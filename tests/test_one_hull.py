"""One hull per vector: the optimum and the curve rows read the same
``v_optimal_estimates(lbf)``, and the numeric finite-variance oracle's
verdict does not depend on which grid hull it is read on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coordest import analysis, estimators
from coordest.cli import ingest, main
from coordest.estimators import v_optimal_estimates
from coordest.functions import LowerBoundFn, lb_function, rg_fn
from coordest.model import PiecewiseLinearMap, TauScheme

from conftest import builtin_functions
from limit_oracle import check_finite_variance_curve, finite_variance_ladder

SCHEMES = {
    "pps:tau=4": TauScheme.pps(4.0, r=3),
    "pwl+pps": TauScheme((
        PiecewiseLinearMap.pps(4.0),
        PiecewiseLinearMap(((0.0, 0.0), (0.25, 1.0), (0.6, 2.5), (1.0, 5.0))),
        PiecewiseLinearMap(((0.0, 0.0), (0.5, 3.0), (1.0, 4.0))),
    )),
}
FUNCTIONS = builtin_functions(3) + [rg_fn(p, 3) for p in (0.45, 0.55, 0.7)]
values_st = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))


@given(st.sampled_from(sorted(SCHEMES)), st.lists(values_st, min_size=3, max_size=3),
       st.integers(0, len(FUNCTIONS) - 1))
@settings(max_examples=150, deadline=None)
def test_verdict_on_a_grid_hull_is_the_verdict_on_the_exact_hull(scheme_name, v, k):
    lbf = lb_function(FUNCTIONS[k], v, SCHEMES[scheme_name])
    want = finite_variance_ladder(v_optimal_estimates(lbf)).ok
    for grid_n in (16, 64, 256):
        assert check_finite_variance_curve(lbf, grid_n).ok == want


@pytest.mark.parametrize("grid_n", [16, 64, 256, 512])
def test_verdict_boundary_on_power_gaps(grid_n):
    # the gap u^p has finite variance for p > 1/2, but its increments shrink
    # by 4^-(2p-1) per step of the ladder, which halves them only from p = 3/4
    def verdict(p):
        return check_finite_variance_curve(LowerBoundFn((1.0,), 0.0, lambda us: 1.0 - us ** p), grid_n).ok

    assert [verdict(p) for p in (0.4, 0.5, 0.6, 0.74)] == [False] * 4
    assert [verdict(p) for p in (0.76, 1.0, 2.0)] == [True] * 3


def _count_hulls(monkeypatch) -> tuple[list, list]:
    """The heads of the curves of every hull block, and the hulls built in
    them: the rows of a corner-hull block, or one hull from a curve's arcs."""
    curves, hulls = [], []
    real_block, real_corners, real_arcs = estimators.hull_block, estimators.lower_hulls, estimators.arc_hull
    for module in (analysis, estimators):
        monkeypatch.setattr(module, "hull_block", lambda block: curves.extend(block.heads) or real_block(block))
    monkeypatch.setattr(estimators, "lower_hulls", lambda us, ys, live: hulls.extend(us) or real_corners(us, ys, live))
    monkeypatch.setattr(estimators, "arc_hull", lambda *a, **k: hulls.append(a) or real_arcs(*a, **k))
    return curves, hulls


@pytest.mark.parametrize("spec", ["rg:p=1", "rg:p=2"])
@pytest.mark.parametrize("command", ["analyze", "characterize"])
def test_one_hull_per_vector(tmp_path, monkeypatch, command, spec):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(12)
    rows = rng.lognormal(0.0, 1.0, (6, 3)) * (rng.random((6, 3)) > 0.25)
    path.write_text("item,v1,v2,v3\n" + "".join(f"i{j}," + ",".join(map(repr, r)) + "\n"
                                                 for j, r in enumerate(rows.tolist())))
    curves, hulls = _count_hulls(monkeypatch)
    argv = [command, "--input", str(path), "--function", spec, "--out", str(tmp_path / "out.jsonl")]
    if command == "characterize":
        argv += ["--curves", str(tmp_path / "curves.csv")]
    assert main(argv) == 0
    assert len(curves) == len(hulls) == ingest(path).n_items
