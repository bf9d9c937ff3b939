"""The block curve builder against the per-vector reference.

``lb_functions`` builds the curves of a block of data vectors in array
passes: each map crosses every level of the block at once, and
``snap_crossings`` steps and bisects all the crossings together.  The block
holds them padded: breakpoints padded with exactly 1.0, pieces with 0.
``competitiveness_reports`` and ``curve_block`` then read the dyadic
tables, hull inputs, tail seeds and curve rows of a block with one call
each.  Every row of the block (its breakpoints where real, its
pieces, its head and its reads) must equal, bit for bit, what the scalar
code of ``scalar_reference`` builds for each vector alone, and the one-row calls
(``lb_function``, ``competitiveness_ratio``, ``curve_table``) must equal the
block's rows.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from coordest import analysis
from coordest.analysis import competitiveness_ratio, curve_table
from coordest.cli import console_main
from coordest.functions import lb_function, lb_functions, max_fn, rg_fn
from coordest.model import SNAP_ULPS, Known, PiecewiseLinearMap, snap_crossings

from conftest import builtin_functions
from scalar_reference import (
    block_report_texts,
    lb_breakpoints,
    sample_item,
    scalar_crossings,
    scalar_curve_columns,
    scalar_lb_function,
    report_text,
    scalar_report,
    scheme_breakpoints,
    snap_crossing,
)
from test_corner_hulls import SCHEMES, analysis_vectors
from test_curve_step import split_block
from test_head_piece import LOWS, _scheme, _vector

FUNCTIONS = builtin_functions(3) + [rg_fn(0.5, 3)]
KINDS = ("pps", "pwl", "mixed")


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def _block(rng, kind: str, k: int, n: int = 23):
    """A scheme of ``kind`` (``pwl`` maps have 3 interior joints and may
    have flat segments), with a nonzero domain low for odd ``k``, and ``n``
    vectors: random ones, the vector at the domain lows (all zero for even
    ``k``), and ones with subnormal entries.  The last vector is random, so
    it has crossings of its own."""
    lows = LOWS if k % 2 else (0.0,) * 3
    scheme = _scheme(rng, kind, lows)
    rows = [_vector(rng, lows) for _ in range(n - 4)]
    rows[3:3] = [lows, (lows[0], 1e-310, 3e-320), (max(lows[0], 2.5e-308), 0.0, 4e-315)]
    rows.insert(-1, (lows[0] + 1.5, 7e-311, lows[2]))
    return scheme, np.array(rows)


def _same_curve(got, want, rng) -> None:
    assert got.breakpoints == want.breakpoints
    assert got.domain_left == want.domain_left == 0.0
    assert got.exponent == want.exponent
    assert _bits(np.ravel(got.pieces)) == _bits(np.ravel(want.pieces))
    us = np.concatenate([rng.random(20), got.head * rng.random(5), got.breakpoints,
                         np.nextafter(got.breakpoints, 2.0)])
    us = us[(us > 0.0) & (us <= 1.0)]
    assert _bits(got.value(us)) == _bits(want.value(us))


def _same_rows(rows: np.ndarray, f, scheme, rng) -> np.ndarray:
    """Each row of the ``lb_functions`` block of ``rows`` against the
    per-vector curve of its vector, and ``lb_function`` too; the mask of
    the block's real breakpoints."""
    curves = lb_functions(f, rows, scheme)
    assert len(curves) == len(rows) and curves.exponent == f.p
    width = curves.breakpoints.shape[1]
    assert curves.real.shape == curves.cs.shape == curves.ds.shape == (len(rows), width)
    for k, v in enumerate(rows.tolist()):
        want = scalar_lb_function(f, v, scheme)
        m = len(want.breakpoints)
        assert curves.real[k].tolist() == [True] * m + [False] * (width - m)
        assert _bits(curves.breakpoints[k, :m]) == _bits(want.breakpoints)
        assert _bits(curves.breakpoints[k, m:]) == _bits([1.0] * (width - m))
        cs, ds = np.transpose(want.pieces)
        assert _bits(curves.cs[k]) == _bits(np.append(cs, [0.0] * (width - m)))
        assert _bits(curves.ds[k]) == _bits(np.append(ds, [0.0] * (width - m)))
        assert _bits([curves.heads[k]]) == _bits([want.head])
        us = np.concatenate([rng.random(20), want.head * rng.random(5), want.breakpoints,
                             np.nextafter(want.breakpoints, 2.0)])
        us = us[(us > 0.0) & (us <= 1.0)]
        assert _bits(curves.read(np.full(len(us), k), us)) == _bits(want.value(us))
        _same_curve(lb_function(f, v, scheme), want, rng)
    return curves.real


@pytest.mark.parametrize("kind", KINDS + tuple(sorted(SCHEMES)))
def test_block_curves_match_the_per_vector_curves(kind):
    # blocks under random schemes of each kind, and the benchmark's vectors
    # under each analysis scheme
    rng = np.random.default_rng((KINDS + tuple(sorted(SCHEMES))).index(kind))
    if kind in SCHEMES:
        blocks = [(SCHEMES[kind], np.array(analysis_vectors(401)[:48]))]
    else:
        blocks = [_block(rng, kind, k) for k in range(6)]
    crossings = padded = 0
    for scheme, rows in blocks:
        for f in FUNCTIONS:
            real = _same_rows(rows, f, scheme, rng)
            crossings += np.count_nonzero(real) - len(rows)
            padded += np.count_nonzero(~real)
    assert crossings > len(blocks) * len(FUNCTIONS) * 20 and padded > 0


@pytest.mark.parametrize("keep", ["mask", "indices", "slice"])
def test_a_sub_block_holds_and_reads_the_rows_it_keeps(keep):
    # take(keep) is the block of the kept curves, read at their own rows
    rng = np.random.default_rng(("mask", "indices", "slice").index(keep) + 90)
    scheme, rows = _block(rng, "mixed", 1)
    picked = {"mask": rng.random(len(rows)) < 0.5, "indices": rng.permutation(len(rows))[:9],
              "slice": slice(3, None, 4)}[keep]
    at = np.arange(len(rows))[picked]
    for f in FUNCTIONS:
        curves = lb_functions(f, rows, scheme)
        sub = curves.take(picked)
        assert len(sub) == len(at) > 0 and sub.exponent == curves.exponent
        assert sub.real.tolist() == curves.real[at].tolist()
        for name in ("breakpoints", "cs", "ds", "heads"):
            assert _bits(getattr(sub, name).ravel()) == _bits(getattr(curves, name)[at].ravel())
        who = rng.integers(0, len(at), 40)
        us = np.concatenate((rng.random(30), sub.breakpoints[who[30:], 0]))
        assert _bits(sub.read(who, us)) == _bits(curves.read(at[who], us))
        for k, v in zip(who[:3].tolist(), rows[at[who[:3]]].tolist()):
            assert _bits(sub.read(np.full(len(us), k), us)) == _bits(scalar_lb_function(f, v, scheme).value(us))


@pytest.mark.parametrize("kind", KINDS)
def test_outcome_curves_match_the_scalar_breakpoints(kind):
    # an outcome's levels are its revealed values, and its breakpoints
    # start past its seed
    rng = np.random.default_rng(40 + KINDS.index(kind))
    for k in range(6):
        scheme, rows = _block(rng, kind, k)
        for v in rows.tolist():
            out = sample_item(v, float(rng.uniform(1e-3, 1.0)), scheme)
            levels = {s.value for s in out.slots if isinstance(s, Known)} | set(scheme.domain.lows)
            want = tuple(sorted(scheme_breakpoints(scheme, sorted(levels), out.seed) | {1.0}))
            got = lb_breakpoints(max_fn(3), out)
            assert got.breakpoints == want
            assert got.domain_left == out.seed and got.pieces is None


@pytest.mark.parametrize("kind", KINDS)
def test_block_reports_match_the_per_vector_reports(monkeypatch, kind):
    # blocks of 5 put a block edge inside each input and leave a short last block
    monkeypatch.setattr(analysis, "CURVE_BLOCK", 5)
    rng = np.random.default_rng(10 + KINDS.index(kind))
    for k in range(4):
        scheme, rows = _block(rng, kind, k)
        for f in FUNCTIONS:
            reports = block_report_texts(rows, f, scheme)
            assert len(reports) == len(rows)
            for v, got in zip(rows.tolist(), reports):
                assert got == report_text(lambda: scalar_report(v, f, scheme)), (v, f)
                assert got == report_text(lambda: competitiveness_ratio(v, f, scheme)), (v, f)


@pytest.mark.parametrize("kind", KINDS)
def test_block_curve_rows_match_the_per_vector_rows(kind):
    rng = np.random.default_rng(20 + KINDS.index(kind))
    for k in range(3):
        scheme, rows = _block(rng, kind, k, n=12)
        for f in FUNCTIONS:
            block = split_block(rows, f, scheme)
            for v, got in zip(rows.tolist(), block):
                want = scalar_curve_columns(v, f, scheme, 40)
                assert [_bits(c) for c in got] == [_bits(c) for c in want], (v, f)
                table = curve_table(v, f, scheme)
                assert _bits(table) == _bits(np.array(got).T), (v, f)


# ---------------------------------------------------------------------------
# the array snap


def _flat_maps():
    """Maps with rising, flat and almost flat segments: on a segment that
    rises by 1e-12 over 0.3 many seeds share one value, and the
    interpolated crossing lands farther from the last revealing seed than
    ``SNAP_ULPS`` steps reach."""
    yield PiecewiseLinearMap(((0.0, 0.0), (0.3, 2.0), (0.6, 2.0 + 1e-12), (0.8, 2.0 + 1e-12), (1.0, 4.0)))
    yield PiecewiseLinearMap(((0.0, 0.5), (0.25, 0.5 + 3e-11), (0.5, 1.0), (1.0, 1.0 + 2e-10)))
    yield PiecewiseLinearMap(((0.0, 1.0), (0.5, 1.0000001), (1.0, 5.0)))
    yield PiecewiseLinearMap(((0.0, 0.0), (0.75, 0.0), (1.0, 1.120208535626552)))
    yield PiecewiseLinearMap(((0.0, 0.0), (0.3, 2.0), (0.6, 2.0), (1.0, 4.0)))
    yield PiecewiseLinearMap.pps(3.0)
    yield PiecewiseLinearMap.pps(0.7)


def _levels(m, rng) -> np.ndarray:
    """Levels at every joint value and one float below, at the map's value
    at seed 0, and spread over the map's range, inside the flat segments
    most of all."""
    ts = [t for _, t in m.points]
    flat = [a + (b - a) * x for a, b in zip(ts, ts[1:]) if b - a < 1e-9 for x in rng.random(40)]
    return np.array([*ts, *np.nextafter(ts, -1.0), float(m.value(0.0)), *flat,
                     *(ts[0] + (ts[-1] - ts[0]) * rng.random(40)), ts[-1] * 1.5, 0.0])


def test_array_crossings_match_the_scalar_snap():
    rng = np.random.default_rng(30)
    bisected = 0
    for m in _flat_maps():
        levels = _levels(m, rng)
        which, us = m.crossing_seeds(levels)
        for i, level in enumerate(levels.tolist()):
            want = scalar_crossings(m, level)
            assert tuple(np.unique(us[which == i]).tolist()) == want, (m, level)
            assert tuple(np.unique(m.crossing_seeds([level])[1]).tolist()) == want, (m, level)
        # how far each rising crossing lies from its interpolated seed
        for (ua, ta), (ub, tb) in zip(m.points, m.points[1:]):
            for level in levels[(ta <= levels) & (levels <= tb)].tolist():
                if tb > ta and (u := ua + (level - ta) * (ub - ua) / (tb - ta)) > 0.0:
                    got = snap_crossing(m.value, u, level, ua, ub)
                    bisected += abs(_bits([got])[0] - _bits([u])[0]) > SNAP_ULPS
    assert bisected > 20


def test_array_snap_matches_the_scalar_snap_element_by_element():
    rng = np.random.default_rng(31)
    for m in _flat_maps():
        ua, ub = np.array(m.points[:-1])[:, 0], np.array(m.points[1:])[:, 0]
        seg = rng.integers(len(ua), size=200)
        lo, hi = ua[seg], ub[seg]
        # crossings from anywhere in the segment, some far from the answer
        us = lo + (hi - lo) * rng.random(200)
        levels = m.value(lo) + (m.value(hi) - m.value(lo)) * rng.random(200)
        got = snap_crossings(m.value, us, levels, lo, hi)
        want = [snap_crossing(m.value, *args) for args in zip(us.tolist(), levels.tolist(), lo.tolist(), hi.tolist())]
        assert _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# errors across blocks


CSV = "item,v1,v2,v3\na,1,0,2\nb,0.5,0.25,0\nc,3,1,1\nd,5e-324,0,0\ne,2,2,2\n"
ERROR = ("coordest: error: item 'd': instance 1 holds 5e-324, which no positive float seed reveals "
         "(its threshold at the smallest seed is 2e-323); the lower bound tends to 0.0 toward seed 0, "
         "not to f(v) = 5e-324\n")


@pytest.mark.parametrize("command", ["analyze", "characterize"])
def test_a_bad_item_fails_after_the_records_before_it_across_blocks(tmp_path, monkeypatch, capsys, command):
    # blocks (a, b), (c, d), (e): the bad item d shares a block with c
    monkeypatch.setattr(analysis, "CURVE_BLOCK", 2)
    path = tmp_path / "data.csv"
    path.write_text(CSV)
    argv = [command, "--input", str(path), "--function", "max"]
    if command == "characterize":
        argv += ["--curves", str(tmp_path / "curves.csv")]
    assert console_main(argv) == 2
    out, err = capsys.readouterr()
    assert [line.split('"item": ')[1][:3] for line in io.StringIO(out)] == ['"a"', '"b"', '"c"']
    assert err == ERROR
    if command == "characterize":
        items = {row.split(",", 1)[0] for row in (tmp_path / "curves.csv").read_text().splitlines()[1:]}
        assert items == {"a", "b", "c"}
    # and with blocks of the default size, the same
    monkeypatch.undo()
    assert console_main(argv) == 2
    assert capsys.readouterr() == (out, err)
