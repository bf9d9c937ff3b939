"""The block kernel of the hull estimates against one estimate at a time.

``hull.EstimateBlock`` holds the estimates of a block as padded rows and
reads them all at once: ``value_at`` by one ``searchsorted`` per run of
equal rows and one gather, the integrals by one ordered sum.  Each read of
each row must equal, bit for bit, the per-vector reads of
``scalar_reference`` (``ref_value_at``, ``ref_integral`` and
``ref_integrate_square``) of that row alone, on blocks that mix constant
rows, arc rows and rows without a piece.  ``hull_block`` builds the corner
hulls or the arc hulls of a block of real curves as such a block, and the
commands read every hull through it: none calls the scalar API
(``v_optimal_estimates``, ``integrate_square``, ``lower_hull``).
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from coordest import analysis, cli, estimators, hull
from coordest.estimators import estimate_query, hull_block, mc_query_estimates, v_optimal_estimates
from coordest.functions import lb_function, lb_functions, parse_function
from coordest.hull import EstimateBlock, FloatRangeError
from coordest.model import TauScheme, ingest
from coordest.samplers import sample_instances

from scalar_reference import (
    Pieces,
    curve_block_of,
    one_row,
    pieces,
    ref_integral,
    ref_integrate_square,
    ref_value_at,
    row_pieces,
    scalar_v_optimal,
)


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def _row(rng, p: float | None, kind: str) -> Pieces:
    """One estimate of 1 to 40 pieces: constant, or with arc pieces when
    ``p`` is given; ``kind`` adds an infinite value, values past 2^500
    (whose squares are scaled), or leaves no piece."""
    if kind == "empty":
        return pieces([], [], [])
    m = int(rng.integers(1, 41))
    edges = np.sort(rng.random(m + 1))
    edges[0] *= rng.choice([1.0, 1e-12, 0.0])
    if rng.random() < 0.5:
        edges[-1] = 1.0
    if len(np.unique(edges)) < m + 1:
        return _row(rng, p, kind)
    values = rng.lognormal(0.0, 2.0, m) * (rng.random(m) > 0.2)
    if kind == "infinite":
        values[rng.integers(m)] = math.inf
    elif kind == "huge":
        values *= 2.0**510
    if p is None:
        return pieces(edges[:-1], edges[1:], values)
    # arc pieces whose line c + d*u stays positive on them, or not
    arc = rng.random(m) < 0.6
    d = np.where(arc, -rng.lognormal(0.0, 1.0, m), 0.0)
    c = np.where(arc, -d * edges[1:] + rng.random(m) * rng.choice([1.0, 0.0, -0.1], m), 0.0)
    return pieces(edges[:-1], edges[1:], values, np.column_stack((c, d)), p)


def _block(rows: list[Pieces], p: float | None) -> EstimateBlock:
    """The rows as one block, each padded with copies of its last edge."""
    width = max(len(e.los) for e in rows)
    edges = np.ones((len(rows), width + 1))
    values, cs, ds = (np.zeros((len(rows), width)) for _ in range(3))
    for k, e in enumerate(rows):
        m = len(e.los)
        if m:
            edges[k, :m], edges[k, m:] = e.los, e.his[-1]
        values[k, :m] = e.values
        if e.arcs is not None:
            cs[k, :m], ds[k, :m] = e.arcs.T
    return EstimateBlock(edges, values, None if p is None else (cs, ds), p)


def _windows(rng, e: Pieces) -> np.ndarray:
    """Every piece end, one float either side of it, 0, 1 and random seeds."""
    ends = np.concatenate((e.los, e.his))
    return np.concatenate((ends, np.nextafter(ends, -1.0), np.nextafter(ends, 2.0), [0.0, 1.0], rng.random(8)))


@pytest.mark.parametrize("p", [None, 1.5, 2.0, 2.5, 3.0])
def test_block_reads_match_the_reads_of_each_row(p):
    rng = np.random.default_rng(70 + int(4 * (p or 0)))
    kinds = ("plain", "plain", "plain", "infinite", "huge", "empty")
    checked = 0
    for n in (1, 2, 7, 16):
        for _ in range(6):
            rows = [_row(rng, p if rng.random() < 0.7 else None, str(rng.choice(kinds))) for _ in range(n)]
            if p is not None:
                # constant rows in an arc block carry their own exponent
                rows = [e if e.arcs is not None else pieces(e.los, e.his, e.values, np.zeros((len(e.los), 2)), p)
                        for e in rows]
            block = _block(rows, p)
            # every row's windows, and its reads of them as arrays, as the
            # package read one estimate (a scalar seed takes libm's pow,
            # which may differ from numpy's array pow in the last bit)
            windows = [_windows(rng, e) for e in rows]
            his = [rng.random(len(w)) * 1.2 for w in windows]
            reads = [(ref_value_at(e, w), ref_integral(e, lo=w), ref_integral(e, w, h), ref_integrate_square(e, lo=w),
                      ref_integrate_square(e, w, h)) for e, w, h in zip(rows, windows, his)]
            # shuffled, so that the runs of one row are short
            pairs = [(k, i) for k, w in enumerate(windows) for i in range(len(w))]
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
            which = np.array([k for k, _ in pairs])
            us = np.array([windows[k][i] for k, i in pairs])
            hi = np.array([his[k][i] for k, i in pairs])
            want = [[reads[k][read][i] for k, i in pairs] for read in range(5)]
            assert _bits(block.value_at(which, us)) == _bits(want[0])
            assert _bits(block.integral(which, us)) == _bits(want[1])
            assert _bits(block.integral(which, us, hi)) == _bits(want[2])
            assert _bits(block.square_integral(which, us)) == _bits(want[3])
            assert _bits(block.square_integral(which, us, hi)) == _bits(want[4])
            # a whole row at once, as the Monte Carlo sweep reads it
            k = int(rng.integers(n))
            seeds = _windows(rng, rows[k])
            assert _bits(block.value_at(k, seeds)) == _bits(ref_value_at(rows[k], seeds))
            checked += len(us)
    assert checked > 1000


def test_the_scalar_api_reads_row_0_of_a_block():
    rng = np.random.default_rng(75)
    for p in (None, 2.5):
        e = _row(rng, p, "plain")
        us = _windows(rng, e)
        assert _bits(hull.integrate_square(one_row(e), lo=us)) == _bits(ref_integrate_square(e, lo=us))
        assert _bits(hull.integrate_square(one_row(e), 0.3, 0.7)) == _bits(ref_integrate_square(e, 0.3, 0.7))
    # the hull of one curve is the one row of its own block
    lb = lb_function(parse_function("rg:p=2", 3), [1.0, 0.5, 0.25], SCHEME)
    est = v_optimal_estimates(lb)
    assert est.values.shape[0] == 1 and _bits(est.edges[0]) == _bits(np.append(scalar_v_optimal(lb).los, 1.0))


SCHEME = TauScheme.pps(4.0, r=3)


def _check_rows(block, errors, lbfs, rng):
    """Each row of ``block`` whose hull did not fail against the scalar hull
    of its curve: its pieces, then zero-width ones of value 0 and d = 0 at
    its last edge, and its reads."""
    for k, lb in enumerate(lbfs):
        if errors[k] is not None:
            continue
        want = scalar_v_optimal(lb)
        got, m = row_pieces(block, k), len(want.los)
        assert [_bits(a[:m]) for a in (got.los, got.his, got.values)] == [_bits(a) for a in want[:3]]
        assert (got.los[m:] == want.his[-1]).all() and (got.his[m:] == want.his[-1]).all()
        assert not got.values[m:].any()
        if block.arcs is not None:
            assert not got.arcs[m:].any() and _bits(got.arcs[:m]) == _bits(want.arcs)
        us = _windows(rng, want)
        us = us[(us > 0.0) & (us <= 1.0)]
        assert _bits(block.value_at(k, us)) == _bits(ref_value_at(want, us))
        assert _bits(block.integral(k, us)) == _bits(ref_integral(want, lo=us))
        assert _bits(block.square_integral([k])) == _bits([ref_integrate_square(want)])


def test_corner_hull_block_rows_match_the_hull_of_each_curve():
    # corner rows of several functions in one block
    rng = np.random.default_rng(76)
    specs = rng.choice(["max", "min", "rg:p=1", "rg:p=0.5"], 24)
    rows = rng.lognormal(0.0, 1.0, (24, 3)) * (rng.random((24, 3)) > 0.25) + np.array([[0.1, 0.0, 0.0]])
    lbfs = [lb_function(parse_function(str(s), 3), v, SCHEME) for s, v in zip(specs, rows.tolist())]
    block, _, errors = hull_block(curve_block_of(lbfs))
    assert block.arcs is None and errors == [None] * 24 and set(specs.tolist()) == {"max", "min", "rg:p=1", "rg:p=0.5"}
    _check_rows(block, errors, lbfs, rng)


@pytest.mark.parametrize("arcs", ["rg:p=1.5", "rg:p=2", "rg:p=2.5", "one_sided_rg:p=3,hi=3,lo=1"])
def test_arc_hull_block_rows_match_the_hull_of_each_curve(arcs):
    # arc rows of one exponent, and rows whose hull passes the largest float
    rng = np.random.default_rng(76)
    rows = rng.lognormal(0.0, 1.0, (24, 3)) * (rng.random((24, 3)) > 0.25) + np.array([[0.1, 0.0, 0.0]])
    failed = [3, 10, 17]
    rows[failed] = [[1e-300, 0.0, 1e308]]
    lbfs = [lb_function(parse_function(arcs, 3), v, SCHEME) for v in rows.tolist()]
    block, _, errors = hull_block(lb_functions(parse_function(arcs, 3), rows, SCHEME))
    assert block.arcs is not None
    for k in failed:
        assert isinstance(errors[k], FloatRangeError)
        assert not block.values[k].any() and (block.edges[k] == 1.0).all()
    assert [k for k, error in enumerate(errors) if error is not None] == failed
    _check_rows(block, errors, lbfs, rng)


@pytest.fixture
def per_vector_reads(monkeypatch):
    """The number of calls of the scalar hull API, patched in every
    ``coordest`` module that holds it."""
    counts = {"v_optimal_estimates": 0, "integrate_square": 0, "lower_hull": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for real in (estimators.v_optimal_estimates, hull.integrate_square, hull.lower_hull):
        spy = counted(real.__name__, real)
        for name, module in list(sys.modules.items()):
            if (name == "coordest" or name.startswith("coordest.")) and getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, spy)
    return counts


@pytest.mark.parametrize("function", ["rg:p=2.5", "max"])
def test_the_commands_read_no_hull_per_vector(tmp_path, per_vector_reads, function):
    rng = np.random.default_rng(77)
    rows = rng.lognormal(0.0, 1.0, (120, 3)) * (rng.random((120, 3)) > 0.25)
    path = tmp_path / "data.csv"
    path.write_text("item,v1,v2,v3\n" + "".join(f"i{k}," + ",".join(map(repr, r)) + "\n"
                                                 for k, r in enumerate(rows.tolist())))
    common = ["--input", str(path), "--out", str(tmp_path / "out.jsonl")]
    assert cli.main(["characterize", *common, "--function", function, "--curves", str(tmp_path / "c.csv")]) == 0
    assert len((tmp_path / "c.csv").read_text().splitlines()) > 120
    cli.main(["analyze", *common, "--function", function])
    query = "lpp:p=2.5" if function.startswith("rg") else "maxsum"
    for reps in ("1", "50"):
        assert cli.main(["estimate", *common, "--query", query, "--estimator", "voptimal-oracle", "--reps", reps]) == 0
    assert per_vector_reads == {"v_optimal_estimates": 0, "integrate_square": 0, "lower_hull": 0}


def test_analyze_takes_its_hulls_from_the_one_block_step(monkeypatch):
    # 130 vectors are three blocks of CURVE_BLOCK; each takes one
    # hull_block, and no other is built
    rng = np.random.default_rng(78)
    rows = rng.lognormal(0.0, 1.0, (130, 3)) * (rng.random((130, 3)) > 0.25)
    rows[7] = 0.0
    calls = {"hull_block": 0}
    real_block = estimators.hull_block

    def build(*args):
        calls["hull_block"] += 1
        return real_block(*args)

    monkeypatch.setattr(analysis, "hull_block", build)
    monkeypatch.setattr(estimators, "hull_block", build)
    for spec in ("max", "rg:p=2.5"):
        f = parse_function(spec, 3)
        blocks = list(analysis.competitiveness_reports(rows, f, SCHEME))
        assert all(error is None for _, error in blocks)
        got = [analysis.report_record(fields, k) for fields, _ in blocks for k in range(len(fields["ratio"]))]
        assert got[7]["square_integral_opt"] == 0.0 and len(got) == 130
        assert [g["square_integral_opt"] for g in got[:3]] == \
            [ref_integrate_square(scalar_v_optimal(lb_function(f, v, SCHEME))) for v in rows[:3].tolist()]
    assert calls == {"hull_block": 6}


def test_the_oracle_sweep_sums_are_the_single_salt_sums_at_any_exponent(tmp_path):
    # read at one seed and at an array of seeds, an arc's power took libm's
    # pow and numpy's array pow, which differ in the last bit at some
    # seeds (salts 64 and 176 here at p = 2.5); one block read takes the latter
    path = tmp_path / "data.csv"
    path.write_text("item,v1,v2,v3\na,1.13,0.88,1.9\nb,0.5,2.19,0.16\n")
    data, p = ingest(path), 2.5
    salts = np.arange(256, dtype=np.uint64)
    sums = mc_query_estimates(data, SCHEME, "lpp", list(data.item_ids), salts, p=p, estimator="voptimal-oracle")
    single = [estimate_query(sample_instances(data, SCHEME, s), 3, "lpp", "voptimal-oracle", p=p, data=data).value
              for s in salts.tolist()]
    assert _bits(sums) == _bits(single)
