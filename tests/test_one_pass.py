"""The one-pass ``characterize`` path against copies of the code it
replaced: the per-piece loop of the ordered sum, the scalar hull slopes, the
``csv.writer`` of the ``--curves`` rows and the per-check curves of the
verdicts."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coordest import analysis, estimators, functions
from coordest.analysis import check_bounded, check_estimable, check_finite_variance, curve_table
from coordest.cli import _curve_row_format, ingest, main, parse_scheme
from coordest.functions import lb_function, parse_function, rg_fn
from coordest.hull import SUM_BLOCK, EstimateFn, LowerHull, _ordered_sum, integrate_square, lower_hull
from coordest.model import TauScheme


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.uint64).tolist()


def _loop_sum(e, values, lo, hi):
    """The per-piece loop of the ordered sum before it was blocked."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    total = np.zeros(np.broadcast_shapes(lo.shape, hi.shape))
    with np.errstate(invalid="ignore"):
        for plo, phi, v in zip(e.los.tolist(), e.his.tolist(), values):
            w = np.minimum(phi, hi) - np.maximum(plo, lo)
            total += np.where(w > 0.0, v * w, 0.0)
    return float(total) if total.ndim == 0 else total


def _estimate_fn(values, rng) -> EstimateFn:
    edges = np.unique(np.concatenate([[0.0, 1.0], rng.random(len(values) - 1)]))
    return EstimateFn(edges[:-1], edges[1:], values[: len(edges) - 1])


def _assert_same_sums(e, lo, hi=1.0):
    assert _bits(_ordered_sum(e, e.values, lo, hi)) == _bits(_loop_sum(e, e.values.tolist(), lo, hi))
    assert _bits(integrate_square(e, lo, hi)) == _bits(_loop_sum(e, [v * v for v in e.values.tolist()], lo, hi))


def test_single_window_sums_in_piece_order():
    # a pairwise sum of these terms differs from the left-to-right one
    rng = np.random.default_rng(7)
    pairwise_differs = 0
    for n in (64, 200, 1000):
        for _ in range(10):
            e = _estimate_fn(rng.lognormal(0.0, 2.0, n), rng)
            _assert_same_sums(e, 0.0)
            _assert_same_sums(e, 0.3, 0.9)
            terms = e.values * (e.his - e.los)
            pairwise_differs += float(np.sum(terms)) != _loop_sum(e, e.values.tolist(), 0.0, 1.0)
    assert pairwise_differs > 0


def test_all_zero_sums_start_from_positive_zero():
    rng = np.random.default_rng(8)
    e = _estimate_fn(np.full(80, -0.0), rng)
    cutoffs = np.concatenate([rng.random(50), [0.0, 1.0, 2.0]])
    for lo in (0.0, 0.5, cutoffs):
        got = _ordered_sum(e, e.values, lo, 1.0)
        assert _bits(got) == _bits(_loop_sum(e, e.values.tolist(), lo, 1.0))
        assert _bits(got) == _bits(np.zeros(np.shape(got)))


@pytest.mark.parametrize("windows", [SUM_BLOCK // 5 + 1, SUM_BLOCK // 64, SUM_BLOCK + 3])
def test_sums_across_block_edges(windows):
    rng = np.random.default_rng(windows)
    e = _estimate_fn(rng.lognormal(0.0, 1.0, 70), rng)
    lo = rng.random(windows)
    hi = lo + rng.random(windows)
    _assert_same_sums(e, lo, hi)
    _assert_same_sums(e, lo.reshape(-1, 1)[:40], hi[:30])


def test_infinite_values_add_only_where_they_overlap():
    rng = np.random.default_rng(9)
    values = rng.lognormal(0.0, 1.0, 90)
    values[[0, 17, 18, 60]] = math.inf
    e = _estimate_fn(values, rng)
    cutoffs = np.concatenate([e.los, e.his, rng.random(40)])
    _assert_same_sums(e, cutoffs)
    _assert_same_sums(e, 0.0, cutoffs)
    assert math.isinf(e.integral()) and not np.isnan(e.integral(lo=cutoffs)).any()


def _scalar_slopes(vertices) -> list[float]:
    """The hull slopes as v_optimal_estimates took them before it read the
    vertex arrays."""
    return [max(0.0, (y1 - y2) / (u2 - u1)) for (u1, y1), (u2, y2) in zip(vertices, vertices[1:])]


HULLS = [
    ((1e-12, -0.0), (0.5, 0.0), (1.0, 0.0)),
    ((1e-12, 1.0), (0.25, 0.5), (0.5, -0.0), (0.75, 0.0), (1.0, 0.0)),
    ((1e-12, -0.0), (0.5, -0.0), (1.0, 0.0)),
    ((1e-12, math.inf), (0.5, math.inf), (1.0, 0.0)),
    ((1e-300, 1e300), (2e-300, 0.0), (1.0, 0.0)),
]


@pytest.mark.parametrize("vertices", HULLS)
def test_hull_slopes_match_the_scalar_max(monkeypatch, vertices):
    monkeypatch.setattr(estimators, "lower_hull", lambda points: LowerHull(vertices))
    lbf = lb_function(rg_fn(1.0, 2), (1.0, 0.0), TauScheme.pps(4.0, r=2))
    est = estimators.v_optimal_estimates(lbf, 64)
    assert _bits(est.values) == _bits(_scalar_slopes(vertices))
    assert _bits(est.los) == _bits([u for u, _ in vertices[:-1]])
    assert _bits(est.his) == _bits([u for u, _ in vertices[1:]])


def test_hull_slopes_of_real_curves_match_the_scalar_max(monkeypatch):
    hulls = []

    def spy(points):
        hulls.append(lower_hull(points))
        return hulls[-1]

    monkeypatch.setattr(estimators, "lower_hull", spy)
    rng = np.random.default_rng(10)
    scheme = TauScheme.pps(4.0, r=3)
    for spec in ("rg:p=2", "rg:p=1", "max", "min", "one_sided_rg:p=1,hi=3,lo=1"):
        f = parse_function(spec, 3)
        for _ in range(4):
            v = tuple(rng.lognormal(0.0, 1.0, 3) * (rng.random(3) > 0.3))
            est = estimators.v_optimal_estimates(lb_function(f, v, scheme), 128)
            assert _bits(est.values) == _bits(_scalar_slopes(hulls[-1].vertices))


ROW = (0.25, -0.0, math.inf, math.nan, 5e-324)


@given(st.text(max_size=12))
@settings(max_examples=300, deadline=None)
def test_curve_row_format_is_csv_writer(item):
    buf = io.StringIO()
    csv.writer(buf).writerow((item, *ROW))
    assert _curve_row_format(item) % ROW == buf.getvalue()


ODD_IDS = ["a,b", 'say "hi"', "100%", "%s%%d", " lead", "ünï", "日本", "x'y"]


def _odd_ids_csv(tmp_path):
    rng = np.random.default_rng(11)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["item", "v1", "v2"])
    for item in ODD_IDS:
        writer.writerow([item, *(rng.lognormal(0.0, 1.0, 2) * (rng.random(2) > 0.2)).tolist()])
    path = tmp_path / "odd.csv"
    path.write_text(buf.getvalue(), encoding="utf-8")
    return path


def _old_characterize(data, f, scheme, grid_n, depth):
    """The records and curve CSV of characterize before it built one curve
    per vector: each check builds its own, and csv.writer writes the rows."""
    records = []
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["item", "u", "lower_bound", "hull", "j_estimate", "v_optimal"])
    for item in data.item_ids:
        v = data.vector(item)
        est = check_estimable(v, f, scheme)
        bd = check_bounded(v, f, scheme)
        fin = check_finite_variance(v, f, scheme)
        records.append({
            "item": item, "vector": list(v), "function": f.describe(),
            "estimable": est.ok, "estimable_gap": est.value, "bounded": bd.ok,
            "bounded_slope": bd.value, "finite_variance": fin.ok,
            "chain_ok": analysis.implication_chain_ok(bd.ok, fin.ok, est.ok),
        })
        writer.writerows((item, *row) for row in curve_table(v, f, scheme, grid_n=grid_n, depth=depth))
    return "".join(json.dumps(r, allow_nan=False) + "\n" for r in records), buf.getvalue()


@pytest.mark.parametrize("spec", ["rg:p=2", "max", "one_sided_rg:p=1,hi=1,lo=2"])
def test_characterize_matches_the_per_check_curves(tmp_path, monkeypatch, spec):
    path = _odd_ids_csv(tmp_path)
    data = ingest(path)
    assert "lead" in data.item_ids and "a,b" in data.item_ids
    # every curve, whichever entry point builds it (lb_function,
    # lb_functions or lb_breakpoints), takes its breakpoints from one
    # functions._breakpoints call, which gets one left end per curve
    curves_built = []
    real = functions._breakpoints
    monkeypatch.setattr(functions, "_breakpoints", lambda scheme, levels, owners, lefts: curves_built.extend(lefts) or real(scheme, levels, owners, lefts))
    out, curves = tmp_path / "out.jsonl", tmp_path / "curves.csv"
    argv = ["characterize", "--input", str(path), "--function", spec, "--grid-n", "64",
            "--out", str(out), "--curves", str(curves)]
    assert main(argv) == 0
    assert len(curves_built) == data.n_items
    monkeypatch.undo()
    want_jsonl, want_csv = _old_characterize(
        data, parse_function(spec, 2), parse_scheme("pps:tau=4", 2), 64, 40)
    assert out.read_text() == want_jsonl
    assert curves.read_bytes() == want_csv.encode()
