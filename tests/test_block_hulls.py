"""The block corner hulls against the scalar chain.

``hull.lower_hulls`` sorts a padded block of point sets with one
``lexsort`` and runs the monotone chain once per row; ``HullEstimates``
takes the slopes of every row in one array pass, and with the vertices as
piece ends they are an ``EstimateBlock``, whose square integrals come from
one pass.  Each row's
vertices, slopes and square integral must equal, bit for bit, what the
scalar chain of ``scalar_reference`` gives for that row alone, followed by
the slopes and the per-vector square integral of its estimate.  A row
without a hull raises its error only when it is read, so in ``analyze`` and
``characterize`` it fails after the records of the rows before it.
"""

from __future__ import annotations

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from coordest import analysis, estimators
from coordest.cli import console_main
from coordest.estimators import HullEstimates, sum_estimate
from coordest.functions import lb_function, parse_function
from coordest.hull import lower_hull, lower_hulls
from coordest.model import TauScheme, ingest
from coordest.samplers import sample_instances

from scalar_reference import hull_estimate_fn, ref_integrate_square, ref_value_at, scalar_lower_hull, scalar_v_optimal


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def _row(rng, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The u in (0, 1] and the heights of one row of 2 to 40 points."""
    m = int(rng.integers(2, 41))
    us = rng.random(m) + 2.0**-53
    if kind == "repeated":
        us = rng.choice(us[:max(2, m // 3)], m)
    ys = rng.lognormal(0.0, 2.0, m) * (rng.random(m) > 0.2)
    if kind == "collinear":
        run = rng.random(m) < 0.7
        ys[run] = 3.0 - 2.0 * us[run]
    elif kind == "tiny":
        # a curve below 2^-500: the chain's power-of-two shift
        ys = np.ldexp(ys, -int(rng.integers(510, 1040)))
    elif kind == "steep":
        # slopes past 2^500: the square integral's shift
        us[: m // 2] = rng.random(m // 2) * 1e-300
        ys[: m // 2] = 1e200 * (2.0 + rng.random(m // 2))
    elif kind == "zero":
        ys = np.zeros(m)
    elif kind == "signed":
        ys = ys * rng.choice([-1.0, 1.0], m)
        ys[rng.random(m) < 0.1] = -0.0
    elif kind == "infinite":
        ys[rng.random(m) < 0.2] = math.inf
    return us, ys


KINDS = ("plain", "repeated", "collinear", "tiny", "steep", "zero", "signed", "infinite")


def _random_block(rng, n: int):
    xs, ys = [], []
    for kind in rng.choice(KINDS, n):
        us, hs = _row(rng, str(kind))
        # a row may close at (1, 0), given by its xs alone
        if rng.random() < 0.5:
            us, hs = np.append(us, 1.0), hs if rng.random() < 0.5 else np.append(hs, 0.0)
        xs.append(us)
        ys.append(hs)
    return xs, ys


def _scalar(us, hs):
    points = np.column_stack((us, np.append(hs, np.zeros(len(us) - len(hs)))))
    return scalar_lower_hull(points)


# a stand-in for a curve with concave pieces, whose hull is the corner
# hull of its points: HullEstimates reads only its exponent
CORNERS = SimpleNamespace(exponent=None)


def _estimates(xs, ys) -> HullEstimates:
    return HullEstimates([CORNERS] * len(xs), xs, ys)


def test_block_hulls_match_the_scalar_chain():
    rng = np.random.default_rng(50)
    shifted = steep = 0
    for n in (1, 2, 5, 16, 33):
        for _ in range(12):
            xs, ys = _random_block(rng, n)
            vu, vy, counts = lower_hulls(xs, ys)
            hulls = _estimates(xs, ys)
            squares = hulls.square_integrals
            for k, (us, hs) in enumerate(zip(xs, ys)):
                want = _scalar(us, hs)
                m = counts[k]
                assert _bits(np.column_stack((vu[k, :m], vy[k, :m]))) == _bits(want.vertices)
                opt = hull_estimate_fn(want)
                assert _bits(hulls.block.edges[k, :m]) == _bits([u for u, _ in want.vertices])
                assert _bits(hulls.block.values[k, :m - 1]) == _bits(opt.values)
                # a slope past 2^512 beside an infinite one: the scalar
                # squares overflow (to inf, as the block's do)
                assert _bits([squares[k]]) == _bits([ref_integrate_square(opt)])
                top = np.abs(np.asarray(hs)).max(initial=0.0)
                shifted += 0.0 < top < 2.0**-500 and len(want.vertices) > 2
                steep += opt.values.max() > 2.0**500
    assert shifted > 10 and steep > 10


def test_one_row_is_lower_hull():
    rng = np.random.default_rng(51)
    for kind in KINDS:
        for _ in range(20):
            us, hs = _row(rng, kind)
            points = np.column_stack((us, hs))
            assert _bits(lower_hull(points).vertices) == _bits(scalar_lower_hull(points).vertices)
            assert lower_hull(map(tuple, points.tolist())).vertices == lower_hull(points).vertices


def test_a_row_without_a_hull_fails_only_when_read():
    rng = np.random.default_rng(52)
    xs, ys = _random_block(rng, 6)
    xs[2], ys[2] = np.array([0.5, 0.5, 0.5]), np.array([1.0, 0.0, 2.0])
    xs[4], ys[4] = np.array([]), np.array([])
    hulls = _estimates(xs, ys)
    estimates = hulls.block
    squares = estimates.square_integral(np.arange(6))
    for k in range(6):
        if k in (2, 4):
            assert lower_hulls(xs, ys)[2][k] == 0
            with pytest.raises(ValueError, match="two points with distinct u"):
                hulls.check(k)
            # the block reads 0 on the row
            assert squares[k] == 0.0 and not estimates.value_at(k, xs[k]).any()
        else:
            sq = ref_integrate_square(hull_estimate_fn(_scalar(xs[k], ys[k])))
            assert _bits([squares[k]]) == _bits([sq])
    # the whole block of such rows
    assert lower_hulls([np.array([0.5])], [np.array([1.0])])[2] == [0]
    assert lower_hulls([], [])[2] == []


def _data(tmp_path, rows) -> str:
    path = tmp_path / "data.csv"
    path.write_text("item,v1,v2,v3\n" + "".join(f"i{j}," + ",".join(map(repr, r)) + "\n"
                                                 for j, r in enumerate(rows)))
    return str(path)


@pytest.mark.parametrize("command", ["analyze", "characterize"])
def test_a_row_without_a_hull_fails_after_the_records_before_it(tmp_path, monkeypatch, capsys, command):
    # blocks (i0, i1, i2), (i3, i4): the hull of i1 has a single seed
    monkeypatch.setattr(analysis, "CURVE_BLOCK", 3)
    rng = np.random.default_rng(53)
    path = _data(tmp_path, (rng.lognormal(0.0, 1.0, (5, 3)) + 0.1).tolist())
    real = estimators.hull_seeds
    seen = []

    def one_seed(lbf):
        seen.append(lbf)
        if len(seen) == 2:
            return np.array([1.0, 1.0]), np.array([1.0])
        return real(lbf)

    # analyze and the --curves rows read hull seeds in the one block step of estimators
    monkeypatch.setattr(estimators, "hull_seeds", one_seed)
    argv = [command, "--input", path, "--function", "rg:p=1"]
    if command == "characterize":
        argv += ["--curves", str(tmp_path / "curves.csv")]
    assert console_main(argv) == 2
    out, err = capsys.readouterr()
    assert [line.split('"item": ')[1][:4] for line in io.StringIO(out)] == ['"i0"']
    assert err == "coordest: error: item 'i1': need at least two points with distinct u\n"
    if command == "characterize":
        items = {row.split(",", 1)[0] for row in (tmp_path / "curves.csv").read_text().splitlines()[1:]}
        assert items == {"i0"}


@pytest.mark.parametrize("spec", ["rg:p=1", "max", "min", "rg:p=2", "one_sided_rg:p=0.5,hi=1,lo=2"])
def test_oracle_estimates_match_the_scalar_chain(tmp_path, spec):
    rng = np.random.default_rng(54)
    rows = (rng.lognormal(0.0, 1.0, (40, 3)) * (rng.random((40, 3)) > 0.3)).tolist()
    data = ingest(_data(tmp_path, rows))
    scheme = TauScheme.pps(4.0, r=3)
    f = parse_function(spec, 3)
    samples = sample_instances(data, scheme, 5)
    got = sum_estimate(samples, f, "voptimal-oracle", data=data).estimates
    want = [ref_value_at(scalar_v_optimal(lb_function(f, v, scheme)), [u])[0]
            for v, u in zip(rows, samples.seeds.tolist())]
    assert _bits(got) == _bits(want)
