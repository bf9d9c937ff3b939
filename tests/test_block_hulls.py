"""The block corner hulls against the scalar chain.

``hull.lower_hulls`` sorts a padded block of point sets, with a mask of
the points that count, by one ``lexsort`` and runs the monotone chain once
per row.  ``estimators.hull_block`` takes the points of a block of corner
curves from their padded breakpoints, reads them in one call, and takes the
slopes of every row in one array pass; with the vertices as piece ends they
are an ``EstimateBlock``, whose square integrals come from one pass.  Each
row's points must be those of the per-vector ``scalar_reference.hull_seeds``,
and its vertices, slopes and square integral must equal, bit for bit, what
the scalar chain of ``scalar_reference`` gives for that row alone, followed
by the slopes and the per-vector square integral of its estimate.  A row
without a hull raises its error only when it is read, so in ``analyze`` and
``characterize`` it fails after the records of the rows before it.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from coordest import analysis, estimators
from coordest.cli import console_main
from coordest.estimators import hull_block, sum_estimate
from coordest.functions import LowerBoundFn, lb_function, parse_function
from coordest.hull import lower_hull, lower_hulls
from coordest.model import TauScheme, ingest
from coordest.samplers import sample_instances

from scalar_reference import (curve_block_of, hull_estimate_fn, hull_seeds, ref_integrate_square, ref_value_at,
                              scalar_lower_hull, scalar_v_optimal)


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def _heights(rng, kind: str, us: np.ndarray) -> np.ndarray:
    """Random heights at the seeds ``us`` of one row."""
    m = len(us)
    ys = rng.lognormal(0.0, 2.0, m) * (rng.random(m) > 0.2)
    if kind == "collinear":
        run = rng.random(m) < 0.7
        ys[run] = 3.0 - 2.0 * us[run]
    elif kind == "tiny":
        # a curve below 2^-500: the chain's power-of-two shift
        ys = np.ldexp(ys, -int(rng.integers(510, 1040)))
    elif kind == "steep":
        # slopes past 2^500: the square integral's shift
        near = us < 1e-290
        ys[near] = 1e200 * (2.0 + rng.random(near.sum()))
    elif kind == "zero":
        ys = np.zeros(m)
    elif kind == "signed":
        ys = ys * rng.choice([-1.0, 1.0], m)
        ys[rng.random(m) < 0.1] = -0.0
    elif kind == "infinite":
        ys[rng.random(m) < 0.2] = math.inf
    return ys


def _row(rng, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The u in (0, 1] and the heights of one row of 2 to 40 points."""
    m = int(rng.integers(2, 41))
    us = rng.random(m) + 2.0**-53
    if kind == "repeated":
        us = rng.choice(us[:max(2, m // 3)], m)
    elif kind == "steep":
        us[: m // 2] = rng.random(m // 2) * 1e-300
    return us, _heights(rng, kind, us)


KINDS = ("plain", "repeated", "collinear", "tiny", "steep", "zero", "signed", "infinite")


def _scattered(rng, rows):
    """The rows of points as one padded block, each point at a random
    column of its row in its order, and the other entries not live and of
    any value."""
    width = max(len(us) for us, _ in rows) + int(rng.integers(0, 4))
    us, ys = rng.choice([0.0, 0.5, 2.0, -1.0, math.inf], (2, len(rows), width))
    live = np.zeros(us.shape, dtype=bool)
    for k, (u, y) in enumerate(rows):
        at = np.sort(rng.choice(width, len(u), replace=False))
        us[k, at], ys[k, at], live[k, at] = u, y, True
    return us, ys, live


def test_block_hulls_match_the_scalar_chain():
    rng = np.random.default_rng(50)
    shifted = 0
    for n in (1, 2, 5, 16, 33):
        for _ in range(12):
            rows = [_row(rng, str(kind)) for kind in rng.choice(KINDS, n)]
            vu, vy, counts = lower_hulls(*_scattered(rng, rows))
            for k, (us, hs) in enumerate(rows):
                if len(np.unique(us)) < 2:
                    assert counts[k] == 0
                    continue
                want = scalar_lower_hull(np.column_stack((us, hs)))
                m = counts[k]
                assert _bits(np.column_stack((vu[k, :m], vy[k, :m]))) == _bits(want.vertices)
                # the padding: copies of the last vertex
                assert _bits(vu[k, m:]) == _bits(vu[k, m - 1:m].repeat(vu.shape[1] - m))
                assert _bits(vy[k, m:]) == _bits(vy[k, m - 1:m].repeat(vy.shape[1] - m))
                top = np.abs(hs).max(initial=0.0)
                shifted += 0.0 < top < 2.0**-500 and len(want.vertices) > 2
    assert shifted > 10


def _curve(rng, kind: str) -> LowerBoundFn:
    """A stand-in curve with concave pieces (exponent None) of 1 to 300
    breakpoints ending at 1: ``hull_block`` reads it only through its
    breakpoints and the reader."""
    m = int(rng.choice([1, 2, 5, 40, 300]))
    bps = rng.random(m) + 2.0**-53
    if kind == "repeated":
        # a breakpoint one float right of another: the seed read just right
        # of the first is the second
        bps = np.concatenate((bps, np.nextafter(bps, 2.0)))
    elif kind == "steep":
        bps[: m // 2 + 1] *= 1e-300
    if rng.random() < 0.15:
        # a subnormal head: the anchor is the smallest float, the head itself
        bps[0] = math.ulp(0.0)
    bps = np.unique(np.append(bps[bps < 1.0], 1.0))
    return LowerBoundFn(tuple(bps.tolist()), 0.0, None, None)


def _curves(rng, n: int):
    """``n`` stand-in curves, and a reader of random heights at the seeds
    ``hull_seeds`` reads each at."""
    lbfs, heights = [], {}
    for k, kind in enumerate(rng.choice(KINDS, n).tolist()):
        lb = _curve(rng, kind)
        _, at = hull_seeds(lb)
        heights.update(zip(zip([k] * len(at), at.tolist()), _heights(rng, kind, at).tolist()))
        lbfs.append(lb)
    return lbfs, lambda rows, us: np.array([heights[k, u] for k, u in zip(rows.tolist(), us.tolist())])


def _reference(lb: LowerBoundFn, read, k: int):
    """The scalar chain of curve ``k`` over the points of ``hull_seeds``."""
    xs, at = hull_seeds(lb)
    ys = read(np.full(len(at), k), at)
    return xs[0], scalar_lower_hull(np.column_stack((xs, np.append(ys, 0.0))))


def test_hull_block_rows_match_the_scalar_chain_over_the_per_vector_seeds():
    rng = np.random.default_rng(55)
    steep = subnormal = wide = 0
    for n in (1, 2, 5, 16, 33):
        for _ in range(8):
            lbfs, read = _curves(rng, n)
            block, anchors, errors = hull_block(curve_block_of(lbfs, read))
            squares = block.square_integral(np.arange(n))
            assert errors == [None] * n
            for k, lb in enumerate(lbfs):
                anchor, want = _reference(lb, read, k)
                opt = hull_estimate_fn(want)
                m = len(want.vertices)
                assert _bits([anchors[k]]) == _bits([anchor])
                assert _bits(block.edges[k, :m]) == _bits([u for u, _ in want.vertices])
                assert _bits(block.values[k, :m - 1]) == _bits(opt.values)
                assert not block.values[k, m - 1:].any() and (block.edges[k, m:] == 1.0).all()
                # a slope past 2^512 beside an infinite one: the scalar
                # squares overflow (to inf, as the block's do)
                assert _bits([squares[k]]) == _bits([ref_integrate_square(opt)])
                steep += opt.values.max() > 2.0**500
                subnormal += anchor == math.ulp(0.0)
            wide += max(len(lb.breakpoints) for lb in lbfs) > 100 * min(len(lb.breakpoints) for lb in lbfs)
    assert steep > 10 and subnormal > 10 and wide > 10


def test_one_row_is_lower_hull():
    rng = np.random.default_rng(51)
    for kind in KINDS:
        for _ in range(20):
            us, hs = _row(rng, kind)
            points = np.column_stack((us, hs))
            assert _bits(lower_hull(points).vertices) == _bits(scalar_lower_hull(points).vertices)
            assert lower_hull(map(tuple, points.tolist())).vertices == lower_hull(points).vertices


def _one_point(k: int):
    """``lower_hulls`` with the points of row ``k`` of its first call but the
    first masked out, so that the row has no hull."""
    real, calls = estimators.lower_hulls, []

    def call(us, ys, live):
        if not calls:
            live = live.copy()
            live[k, 1:] = False
        calls.append(len(us))
        return real(us, ys, live)

    return call


def test_a_row_without_a_hull_fails_only_when_read(monkeypatch):
    rng = np.random.default_rng(52)
    rows = [_row(rng, str(kind)) for kind in rng.choice(KINDS, 6)]
    rows[2] = np.array([0.5, 0.5, 0.5]), np.array([1.0, 0.0, 2.0])
    rows[4] = np.array([0.25]), np.array([1.0])
    counts = lower_hulls(*_scattered(rng, rows))[2]
    assert [counts[k] for k in (2, 4)] == [0, 0] and all(counts[k] >= 2 for k in (0, 1, 3, 5))
    for k in (0, 1, 3, 5):
        want = scalar_lower_hull(np.column_stack(rows[k]))
        assert counts[k] == len(want.vertices)
    # the whole block of such rows
    assert lower_hulls(np.array([[0.5]]), np.array([[1.0]]), np.ones((1, 1), dtype=bool))[2] == [0]
    assert lower_hulls(np.ones((1, 3)), np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))[2] == [0]
    # a row of hull_block without a hull: its error is returned, and it reads 0
    lbfs, read = _curves(rng, 6)
    monkeypatch.setattr(estimators, "lower_hulls", _one_point(2))
    block, _, errors = hull_block(curve_block_of(lbfs, read))
    squares = block.square_integral(np.arange(6))
    for k, lb in enumerate(lbfs):
        if k == 2:
            assert isinstance(errors[k], ValueError) and str(errors[k]) == "need at least two points with distinct u"
            assert squares[k] == 0.0 and not block.value_at(k, rng.random(20)).any()
        else:
            assert errors[k] is None
            assert _bits([squares[k]]) == _bits([ref_integrate_square(hull_estimate_fn(_reference(lb, read, k)[1]))])


def _data(tmp_path, rows) -> str:
    path = tmp_path / "data.csv"
    path.write_text("item,v1,v2,v3\n" + "".join(f"i{j}," + ",".join(map(repr, r)) + "\n"
                                                 for j, r in enumerate(rows)))
    return str(path)


@pytest.mark.parametrize("command", ["analyze", "characterize"])
def test_a_row_without_a_hull_fails_after_the_records_before_it(tmp_path, monkeypatch, capsys, command):
    # blocks (i0, i1, i2), (i3, i4): the hull of i1 has a single point
    monkeypatch.setattr(analysis, "CURVE_BLOCK", 3)
    rng = np.random.default_rng(53)
    path = _data(tmp_path, (rng.lognormal(0.0, 1.0, (5, 3)) + 0.1).tolist())
    # analyze and the --curves rows take their hulls in the one block step of estimators
    monkeypatch.setattr(estimators, "lower_hulls", _one_point(1))
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
