"""The columnar estimation and analysis paths against per-item references.

The reference bodies below are the per-item dyadic and inverse-probability
estimators, the slot-by-slot interval box under them, the per-item Monte
Carlo sweep over salts, and the scalar piece loops, hull chain and per-row
curve table of the analysis layer, as they were before these paths became
columnar.  The batch kernels must reproduce them bit for bit on random
(data, scheme, salt) triples.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordest import estimators
from coordest.estimators import (
    JACCARD,
    LP,
    MAX_SUM,
    MIN_SUM,
    QUERY_KINDS,
    dyadic_indices,
    estimate_query,
    ht_estimates,
    j_estimates,
    j_piece_tables,
    j_piece_values,
    mc_query_estimates,
    query_functions,
    sum_estimate,
)
from coordest.analysis import (
    CheckResult,
    check_bounded,
    check_estimable,
    check_finite_variance,
    competitiveness_ratio,
    curve_table,
)
from coordest.estimators import v_optimal_estimates
from coordest.functions import (
    _breakpoints,
    _lb_from_bounds,
    evaluate,
    lb_function,
    lower_bound_from_vector,
)
from coordest.hull import integrate_square, lower_hull
from coordest.model import (
    InstanceSet,
    Known,
    PiecewiseLinearMap,
    TauScheme,
    Unknown,
    _unit_interval_np,
    hash_seed,
    outcome_columns,
)
from coordest.samplers import sample_instances

from conftest import builtin_functions, random_vector
from limit_oracle import ProbeResult, check_estimable_curve, check_finite_variance_curve
from test_corner_hulls import CORNER_TOL, concave_pieces
from scalar_reference import dyadic_index, grid_hull, j_estimate_fn, kept_rows, one_row, pieces, row_pieces, sample_item


def _ref_outcome_bounds(outcome, xs, domain):
    r = outcome.r
    n = xs.shape[0]
    lows = np.empty((r, n))
    highs = np.empty((r, n))
    for i, slot in enumerate(outcome.slots):
        taus = np.asarray(outcome.scheme.maps[i].value(xs), dtype=float)
        lo = domain.lows[i]
        if isinstance(slot, Known):
            known = slot.value >= taus
            lows[i] = np.where(known, slot.value, lo)
            highs[i] = np.where(known, slot.value, taus)
        else:
            lows[i] = lo
            highs[i] = taus
    return lows, highs


def _ref_lower_bound(f, outcome, x):
    xs = np.array([x], dtype=float)
    lows, highs = _ref_outcome_bounds(outcome, xs, outcome.scheme.domain)
    return float(_lb_from_bounds(f, lows, highs)[0])


def _ref_j_estimate(outcome, f):
    i = dyadic_index(outcome.seed)
    hi = 2.0 ** (-i)
    head = _ref_lower_bound(f, outcome, hi)
    prev = 0.0 if i == 0 else _ref_lower_bound(f, outcome, 2.0 ** (-i + 1))
    return max(0.0, 2.0 ** (i + 1) * (head - prev))


def _ref_ht_estimate(outcome, f):
    tau_star = outcome.scheme.common_pps_tau()
    if f.kind in ("max", "or"):
        known = [s.value for s in outcome.slots if isinstance(s, Known)]
        if not known:
            return 0.0
        m = max(known)
        if any(s.bound > m for s in outcome.slots if isinstance(s, Unknown)):
            return 0.0
        p = min(1.0, m / tau_star)
        return (m if f.kind == "max" else 1.0) / p
    if not all(isinstance(s, Known) for s in outcome.slots):
        return 0.0
    values = [s.value for s in outcome.slots]
    p = min(min(1.0, x / tau_star) for x in values)
    return min(values) / p


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.uint64).tolist()


values_st = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))


@st.composite
def schemes(draw, r: int) -> TauScheme:
    kind = draw(st.sampled_from(["pps-common", "pps", "pwl"]))
    taus = st.floats(min_value=0.25, max_value=8.0)
    if kind == "pps-common":
        return TauScheme.pps(draw(taus), r=r)
    if kind == "pps":
        return TauScheme.pps([draw(taus) for _ in range(r)])
    maps = []
    for _ in range(r):
        if draw(st.booleans()):
            maps.append(PiecewiseLinearMap.pps(draw(taus)))
            continue
        # infimum 0 (the default domain's lower bound), one inner joint
        u = draw(st.floats(min_value=0.05, max_value=0.95))
        t1, t2 = sorted((draw(taus), draw(taus)))
        maps.append(PiecewiseLinearMap(((0.0, 0.0), (u, t1), (1.0, t2))))
    return TauScheme(tuple(maps))


@st.composite
def triples(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=25))
    matrix = [[draw(values_st) for _ in range(r)] for _ in range(n)]
    salt = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return InstanceSet(tuple(f"it{j}" for j in range(n)), np.array(matrix)), draw(schemes(r)), salt


@given(triples())
@settings(max_examples=120, deadline=None)
def test_batch_kernels_match_per_item_reference(triple):
    data, scheme, salt = triple
    samples = sample_instances(data, scheme, salt)
    outcomes = [samples[item] for item in data.item_ids]
    for item, v, outcome in zip(data.item_ids, data.matrix.tolist(), outcomes):
        assert outcome == sample_item(v, hash_seed(item, salt), scheme)
    fns = builtin_functions(data.r)
    for f in fns:
        ref = [_ref_j_estimate(o, f) for o in outcomes]
        batch = j_estimates(f, samples.seeds, samples.revealed, samples.cells, scheme)
        assert _bits(batch) == _bits(ref)
        res = sum_estimate(samples, f, "j")
        assert _bits([res.value]) == _bits([float(sum(ref))])
    if scheme.common_pps_tau() is None:
        return
    for f in fns:
        if f.kind not in ("max", "min", "or"):
            continue
        ref = [_ref_ht_estimate(o, f) for o in outcomes]
        batch = ht_estimates(f, samples.revealed, samples.cells, scheme)
        assert _bits(batch) == _bits(ref)
        assert _bits([sum_estimate(samples, f, "ht").value]) == _bits([float(sum(ref))])


def test_subset_rows_follow_the_requested_order(demo_data, scheme4):
    samples = sample_instances(demo_data, scheme4, salt=9)
    f = builtin_functions(2)[3]
    ids = ["7", "2", "5"]
    res = sum_estimate(samples, f, "j", ids)
    assert [i for i, _ in res.per_item] == ids
    assert [c for _, c in res.per_item] == [_ref_j_estimate(samples[i], f) for i in ids]


@pytest.mark.parametrize(
    "v, u",
    [
        ((2.0, 1.0), 0.5),  # the unknown bound ties the revealed maximum
        ((2.0, 2.0), 0.5),  # both entries sit exactly on the threshold
        ((0.0, 3.0), 1.0),
        ((4.0, 0.5), 2.0**-10),
        ((1.0, 1.0), math.ldexp(1.0 + 2.0**-52, -6)),
    ],
)
def test_kernels_at_ties_and_block_edges(scheme4, v, u):
    outcome = sample_item(v, u, scheme4)
    seeds, revealed, values = outcome_columns([outcome])
    for f in builtin_functions(2):
        got = j_estimates(f, seeds, revealed, values, scheme4)
        assert _bits(got) == _bits([_ref_j_estimate(outcome, f)])
        if f.kind in ("max", "min", "or"):
            got = ht_estimates(f, revealed, values, scheme4)
            assert _bits(got) == _bits([_ref_ht_estimate(outcome, f)])


# ---------------------------------------------------------------------------
# Monte Carlo sweeps over salts


def _ref_j_piece_values(v, f, scheme, depth):
    xs = 2.0 ** -np.arange(depth + 1, dtype=float)
    lbs = lower_bound_from_vector(f, v, scheme, xs)
    vals = np.empty(depth + 1)
    vals[0] = 2.0 * lbs[0]
    vals[1:] = 2.0 ** (np.arange(1, depth + 1) + 1) * (lbs[1:] - lbs[:-1])
    return np.clip(vals, 0.0, None)


def _ref_ht_block(v, f, scheme):
    """(upper seed, value) of the certifying block of the per-item HT
    estimate."""
    tau_star = scheme.common_pps_tau()
    fv = evaluate(f, v)
    if fv == 0.0:
        return 1.0, 0.0
    if f.kind in ("max", "or"):
        p = min(1.0, max(v) / tau_star)
    else:
        p = min(min(1.0, x / tau_star) for x in v)
    # p underflows to 0 for entries near 5e-324: no seed is certified
    return p, (fv / p if p > 0.0 else math.inf)


def _ref_mc_query_estimates(data, scheme, query, item_ids, salts, p=None, estimator="j", depth=60):
    """The per-item sweep: hash, table and lookup one item at a time.  The
    Lp root is taken per salt with Python's pow, as both query paths take
    it now."""
    if query == JACCARD:
        lo = _ref_mc_query_estimates(data, scheme, MIN_SUM, item_ids, salts, estimator=estimator)
        hi = _ref_mc_query_estimates(data, scheme, MAX_SUM, item_ids, salts, estimator=estimator)
        out = np.zeros_like(lo)
        np.divide(lo, hi, out=out, where=hi > 0)
        return np.clip(out, 0.0, 1.0)
    (f,) = query_functions(query, data.r, p)
    total = np.zeros(len(salts))
    for item in item_ids:
        v = data.vector(item)
        us = np.array([hash_seed(item, s) for s in salts])
        if estimator == "j":
            table = _ref_j_piece_values(v, f, scheme, depth)
            total += table[np.clip(dyadic_indices(us), 0, depth)]
        else:
            hi, value = _ref_ht_block(v, f, scheme)
            total += np.where(us <= hi, value, 0.0)
    if query == LP:
        total = np.array([x ** (1.0 / float(p)) for x in total.tolist()])
    return total


@st.composite
def sweeps(draw):
    data, scheme, _ = draw(triples())
    ids = draw(st.lists(st.sampled_from(data.item_ids), unique=True, max_size=data.n_items))
    # the CLI's salts: consecutive mod 2^64, some wrapping past it
    start = draw(st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 12, 2**64 - 1)))
    salts = np.uint64(start) + np.arange(draw(st.integers(1, 24)), dtype=np.uint64)
    return data, scheme, ids, salts


@given(sweeps(), st.integers(1, 5), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_mc_sweep_matches_per_item_reference(sweep, item_block, salt_chunk):
    data, scheme, ids, salts = sweep
    cases = [(q, "j") for q in QUERY_KINDS]
    if scheme.common_pps_tau() is not None:
        cases += [(q, "ht") for q in (MAX_SUM, MIN_SUM, "distinct", JACCARD)]
    # small blocks and chunks put their edges inside the drawn sizes
    with mock.patch.object(estimators, "MC_ITEM_BLOCK", item_block), \
            mock.patch.object(estimators, "MC_SALT_CHUNK", salt_chunk):
        got = {c: mc_query_estimates(data, scheme, c[0], ids, salts, p=2.0, estimator=c[1]) for c in cases}
    for (query, estimator), sums in got.items():
        ref = _ref_mc_query_estimates(data, scheme, query, ids, salts.tolist(), p=2.0, estimator=estimator)
        assert _bits(sums) == _bits(ref), (query, estimator)
    for k, salt in enumerate(salts.tolist()):
        samples = sample_instances(data, scheme, salt)
        for (query, estimator), sums in got.items():
            single = estimate_query(samples, data.r, query, estimator, ids, p=2.0)
            assert _bits([sums[k]]) == _bits([single.value]), (query, estimator, salt)


@given(sweeps(), st.integers(1, 5), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_mc_oracle_sweep_matches_single_salt_queries(sweep, item_block, salt_chunk):
    # one hull per item and function, read at the item's seed for every salt
    data, scheme, ids, salts = sweep
    salts = salts[:4]
    calls = mock.Mock(wraps=estimators.hull_block)
    with mock.patch.object(estimators, "MC_ITEM_BLOCK", item_block), \
            mock.patch.object(estimators, "MC_SALT_CHUNK", salt_chunk), \
            mock.patch.object(estimators, "hull_block", calls):
        got = {q: mc_query_estimates(data, scheme, q, ids, salts, p=2.0, estimator="voptimal-oracle")
               for q in QUERY_KINDS}
    # the hulls of each block of items come from one call per function
    hulls = sum(len(call.args[0]) for call in calls.call_args_list)
    assert hulls == len(ids) * sum(len(query_functions(q, data.r, 2.0)) for q in QUERY_KINDS)
    for k, salt in enumerate(salts.tolist()):
        samples = sample_instances(data, scheme, salt)
        for query, sums in got.items():
            single = estimate_query(samples, data.r, query, "voptimal-oracle", ids, p=2.0, data=data)
            assert _bits([sums[k]]) == _bits([single.value]), (query, salt)


def test_mc_tables_cover_every_hashed_seed(scheme4):
    # the smallest hashed seed, h = 0, is 2^-64: dyadic index 64, the last
    # slot of the sweep's table, with no clipping; the second entry is
    # revealed at 2^-64 and not at 2^-63, so max puts mass in that slot
    assert _unit_interval_np(np.zeros(1, dtype=np.uint64))[0] == 2.0**-64
    assert dyadic_index(2.0**-64) == estimators.MC_DEPTH == 64
    v = (0.0, 6.0 * 2.0**-64)
    i = np.arange(65)
    seeds = np.concatenate([np.ldexp(1.0, -i), np.ldexp(1.0 + 2.0**-52, -i - 1)])
    outcomes = [sample_item(v, float(u), scheme4) for u in seeds]
    for f in builtin_functions(2):
        table = j_piece_tables(np.array([v]), f, scheme4, estimators.MC_DEPTH)[0]
        assert _bits(table) == _bits(j_piece_values(v, f, scheme4, estimators.MC_DEPTH))
        lookup = estimators._slot_table(table)[estimators._dyadic_slots(seeds)]
        want = j_estimates(f, *outcome_columns(outcomes), scheme4)
        assert _bits(lookup) == _bits(want)
        assert table[64] == want[64] and (f.kind != "max" or table[64] == 12.0)


def test_mc_ht_certifies_a_seed_equal_to_its_probability():
    # with tau* = 1 and both entries equal to the item's seed at salt 5, the
    # certifying probability is exactly that seed: the block (0, p] is closed
    salts = np.arange(3, 8, dtype=np.uint64)
    u = hash_seed("a", 5)
    data = InstanceSet(("a",), np.array([[u, u]]))
    scheme = TauScheme.pps(1.0, r=2)
    for query in (MAX_SUM, MIN_SUM, "distinct"):
        sums = mc_query_estimates(data, scheme, query, ["a"], salts, estimator="ht")
        single = estimate_query(sample_instances(data, scheme, 5), 2, query, "ht", ["a"])
        assert single.value > 0.0
        assert sums[2] == single.value
    # entries so small that p lies below every seed: certified at no salt
    tiny = InstanceSet(("b",), np.array([[1e-300, 1e-300]]))
    for query in (MAX_SUM, MIN_SUM, "distinct"):
        assert mc_query_estimates(tiny, scheme, query, ["b"], salts, estimator="ht").tolist() == [0.0] * 5


# ---------------------------------------------------------------------------
# the analysis path: piecewise estimates, hulls and curve tables


def _pieces(e):
    return list(zip(e.los.tolist(), e.his.tolist(), e.values.tolist()))


def _arc(e, k):
    """The (c, d) of piece k of ``e`` if it is an arc, else None."""
    if e.arcs is None or not e.arcs[k, 1] < 0.0:
        return None
    return tuple(e.arcs[k].tolist())


def _pow(s, q):
    """``max(s, 0)^q`` by numpy's array power, the one an
    :class:`~coordest.hull.EstimateBlock` takes: Python's ``**`` may differ from it in the last bit, and a drop,
    the difference of two powers, carries that bit however small the drop."""
    return float((np.array([max(s, 0.0)]) ** q)[0])


def _ref_value_at(e, u):
    his = e.his.tolist()
    if not his or u <= e.los[0] or u > his[-1]:
        return 0.0
    k = bisect_left(his, u)
    if arc := _arc(e, k):
        c, d = arc
        return e.exponent * -d * _pow(c + d * u, e.exponent - 1.0)
    return e.values.tolist()[k]


def _ref_integral(e, lo=0.0, hi=1.0):
    total = 0.0
    for k, (p_lo, p_hi, value) in enumerate(_pieces(e)):
        a, b = max(p_lo, lo), min(p_hi, hi)
        if b <= a:
            continue
        if arc := _arc(e, k):
            c, d = arc
            total += _pow(c + d * a, e.exponent) - _pow(c + d * b, e.exponent)
        else:
            total += value * (b - a)
    return total


def _ref_integrate_square(e, lo=0.0, hi=1.0):
    total = 0.0
    for k, (p_lo, p_hi, value) in enumerate(_pieces(e)):
        a, b = max(p_lo, lo), min(p_hi, hi)
        if b <= a:
            continue
        if arc := _arc(e, k):
            c, d = arc
            p = e.exponent
            q = 2.0 * p - 1.0
            total += p * p * -d / q * _pow(c + d * a, q) - p * p * -d / q * _pow(c + d * b, q)
            continue
        if math.isinf(value):
            return math.inf
        total += value * value * (b - a)
    return total


def _ref_lower_hull(points):
    best = {}
    for u, y in points:
        u, y = float(u), float(y)
        if u not in best or y < best[u]:
            best[u] = y
    # a curve below 2^-500 is scaled up by a power of two (exactly), so
    # that its cross products do not underflow
    top = max(abs(y) for y in best.values())
    shift = -math.frexp(top)[1] if 0.0 < top < 2.0**-500 else 0
    chain = []
    for p in sorted((u, math.ldexp(y, shift)) for u, y in best.items()):
        while len(chain) >= 2 and (
            (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
            - (p[0] - chain[-2][0]) * (chain[-1][1] - chain[-2][1])
        ) <= 0.0:
            chain.pop()
        chain.append(p)
    return tuple((u, math.ldexp(y, -shift)) for u, y in chain)


def _ref_v_optimal_estimates(lb, grid_n=64, corners=False):
    """Hull slopes with one curve call per anchor and breakpoint limit, and
    the hull taken by the dict-and-tuples chain; with ``corners``, from the
    breakpoints without the grid."""
    min_bp = min((b for b in lb.breakpoints if b > 0.0), default=1.0)
    anchor = max(min(estimators.HULL_LEFT_ANCHOR, 1e-3 * min_bp), math.ulp(0.0))
    decades = min(math.log10(1.0 / anchor), 324.0)
    us = np.unique(np.concatenate([
        [] if corners else np.linspace(1.0 / grid_n, 1.0, grid_n),
        [] if corners else np.geomspace(anchor, 1.0, int(max(grid_n, 128, 12 * decades))),
        np.array(lb.breakpoints, dtype=float),
    ]))
    us = us[(us > anchor) & (us <= 1.0)]
    points = [(anchor, lb.value(anchor))]
    points.extend(zip(us.tolist(), np.asarray(lb.value(us), dtype=float).tolist()))
    for b in lb.breakpoints:
        if b < 1.0:
            points.append((b, lb.value(np.nextafter(b, np.inf))))
    points.append((1.0, 0.0))
    vs = _ref_lower_hull(points)
    return [(u1, u2, max(0.0, (y1 - y2) / (u2 - u1))) for (u1, y1), (u2, y2) in zip(vs, vs[1:])]


def _ref_scheme_breakpoints(scheme, levels, left):
    """The pair loop over every two maps, with the scalar map values."""
    pts = set()
    for m in scheme.maps:
        for lvl in levels:
            pts.update(m.crossing_seeds([lvl])[1].tolist())
        pts.update(m.joints())
    for a, b in itertools.combinations(scheme.maps, 2):
        us = sorted({0.0, 1.0, *a.joints(), *b.joints()})
        for ua, ub in zip(us, us[1:]):
            fa, fb = a.value(ua) - b.value(ua), a.value(ub) - b.value(ub)
            if fa == 0.0:
                pts.add(ua)
            if fa * fb < 0.0:
                t = fa / (fa - fb)
                pts.add(ua + t * (ub - ua))
    return {p for p in pts if left < p < 1.0}


def _ref_curve_table(v, f, scheme, depth=40):
    """One row at a time through the scalar piece loops, at seeds gathered
    one at a time: every breakpoint and the float right of it, the ends of
    the hull's pieces (the reference chain's on a curve with concave
    pieces) and of the dyadic pieces, and on a curve neither constant nor
    linear on its pieces, 8 evenly spaced seeds inside each piece from the
    hull anchor on (the count the README states); then the rows that carry
    nothing are dropped, as ``kept_rows`` drops them."""
    lbf = lb_function(f, v, scheme)
    opt = row_pieces(v_optimal_estimates(lbf))
    j_fn = j_estimate_fn(v, f, scheme, depth=min(depth, 40))
    hull = _ref_v_optimal_estimates(lbf, corners=True) if concave_pieces(lbf) else _pieces(opt)
    seeds = set(lbf.breakpoints)
    seeds.update(math.nextafter(b, math.inf) for b in lbf.breakpoints if b < 1.0)
    for lo, hi, _ in hull:
        seeds.update((lo, hi))
    seeds.update(2.0**-j for j in range(min(depth, 40) + 2))
    if lbf.exponent not in (None, 1.0):
        k = 8
        edges = [hull[0][0], *lbf.breakpoints]
        for a, b in zip(edges, edges[1:]):
            seeds.update(a + (b - a) * (i / (k + 1)) for i in range(1, k + 1))
    us = np.array(sorted(u for u in seeds if 0.0 < u <= 1.0))
    lbs = np.asarray(lbf.value(us), dtype=float)
    rows = [
        (u, lb_u, _ref_integral(opt, lo=u), _ref_value_at(j_fn, u), _ref_value_at(opt, u))
        for u, lb_u in zip(us.tolist(), lbs.tolist())
    ]
    return [rows[i] for i in kept_rows(list(zip(*rows)))]


@st.composite
def estimate_fns(draw):
    edges = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=41))))
    piece_value = st.one_of(
        st.floats(0.0, 1e3), st.just(0.0), st.just(math.inf), st.floats(0.0, 1e-300)
    )
    values = [draw(piece_value) for _ in edges[1:]]
    return pieces(edges[:-1], edges[1:], values)


def _probes(e, extra):
    """Seeds at and one ulp either side of every piece edge, at and below
    the support, above the last piece and outside [0, 1]."""
    edges = np.concatenate([e.los[:1] if len(e.los) else [1.0], e.his])
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return np.concatenate([near, [-0.5, -0.0, 0.0, 1.0, 1.5, 5e-324], np.asarray(extra, dtype=float)])


def _many_pieces(n: int = 40):
    rng = np.random.default_rng(5)
    edges = np.unique(np.concatenate([[0.0, 1.0], rng.random(n - 1)])).tolist()
    values = rng.exponential(100.0, len(edges) - 1).tolist()
    return pieces(edges[:-1], edges[1:], values)


@given(estimate_fns(), st.lists(st.floats(-0.5, 1.5), max_size=8))
@example(_many_pieces(), np.linspace(-0.1, 1.1, 25).tolist())
@settings(max_examples=200, deadline=None)
def test_estimate_fn_batches_match_scalar_loops(e, extra):
    us = _probes(e, extra)
    row = one_row(e)
    assert _bits(row.value_at(0, us)) == _bits([_ref_value_at(e, u) for u in us.tolist()])
    assert _bits(row.integral(0, us)) == _bits([_ref_integral(e, lo=u) for u in us.tolist()])
    assert _bits(integrate_square(row, lo=us)) == _bits([_ref_integrate_square(e, lo=u) for u in us.tolist()])
    his = us[::-1]
    pairs = list(zip(us.tolist(), his.tolist()))
    assert _bits(row.integral(0, us, his)) == _bits([_ref_integral(e, a, b) for a, b in pairs])
    assert _bits(integrate_square(row, lo=us, hi=his)) == _bits([_ref_integrate_square(e, a, b) for a, b in pairs])
    # a scalar window reads the same bits
    for u in us.tolist()[:6]:
        for got, want in ((row.value_at(0, u), _ref_value_at(e, u)),
                          (row.integral(0, u), _ref_integral(e, lo=u)),
                          (integrate_square(row, hi=u), _ref_integrate_square(e, hi=u))):
            assert _bits([got]) == _bits([want])


@st.composite
def arc_estimate_fns(draw):
    """Pieces of the hull of a curve of convex arcs: constants (bridges)
    and arcs (c + d*u)^p with d < 0, which stay nonnegative on their piece
    or reach 0 at its right end."""
    edges = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=21))))
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))
    arcs, values = [], []
    for lo, hi in zip(edges, edges[1:]):
        if draw(st.booleans()):
            d = -draw(st.floats(1e-3, 1e3))
            c = -d * hi + draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
            arcs.append((c, d))
            values.append(((c + d * lo) ** p - (c + d * hi) ** p) / (hi - lo))
        else:
            arcs.append((0.0, 0.0))
            values.append(draw(st.floats(0.0, 1e3)))
    return pieces(edges[:-1], edges[1:], values, arcs, p)


@given(arc_estimate_fns(), st.lists(st.floats(-0.5, 1.5), max_size=8))
# an arc whose drop over its piece is 1/340 of its powers
@example(pieces([0.0], [0.125], [0.02344894], [[1.001953125, -0.015625]], 1.5), [])
@settings(max_examples=200, deadline=None)
def test_arc_estimate_fn_batches_match_scalar_loops(e, extra):
    # an arc piece reads p |d| s^(p-1), integrates to its drop s^p and its
    # square to p^2 |d| s^(2p-1) / (2p-1), each between the window's ends.
    # the references take numpy's array power, as the batches do; each sum
    # is compared within 1e-14 of the whole integral, a value within 4 ulps
    us = _probes(e, extra)
    row = one_row(e)
    got, want = row.value_at(0, us), np.array([_ref_value_at(e, u) for u in us.tolist()])
    assert (np.abs(got - want) <= 4.0 * np.spacing(want)).all()
    total, square = _ref_integral(e), _ref_integrate_square(e)
    his = us[::-1]
    pairs = list(zip(us.tolist(), his.tolist()))
    for got, want, scale in (
        (row.integral(0, us), [_ref_integral(e, lo=u) for u in us.tolist()], total),
        (integrate_square(row, lo=us), [_ref_integrate_square(e, lo=u) for u in us.tolist()], square),
        (row.integral(0, us, his), [_ref_integral(e, a, b) for a, b in pairs], total),
    ):
        assert (np.abs(got - np.array(want)) <= 1e-14 * scale).all()


def test_empty_estimate_fn_is_zero_everywhere():
    e = one_row(pieces([], [], []))
    us = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    assert e.value_at(0, us).tolist() == [0.0] * 5
    assert e.integral(0, us).tolist() == [0.0] * 5
    assert integrate_square(e, lo=us).tolist() == [0.0] * 5
    assert e.value_at(0, 0.5) == e.integral(0) == integrate_square(e) == 0.0


def test_infinite_piece_integrates_to_inf_not_nan():
    e = one_row(pieces([0.0, 0.5], [0.5, 1.0], [math.inf, 1.0]))
    cutoffs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert integrate_square(e, lo=cutoffs).tolist() == [math.inf, math.inf, 0.5, 0.25, 0.0]
    assert e.integral(0, cutoffs).tolist() == [math.inf, math.inf, 0.5, 0.25, 0.0]


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-5.0, 5.0)), min_size=2, max_size=60))
@settings(max_examples=200, deadline=None)
def test_lower_hull_matches_the_tuple_chain(pts):
    # duplicated u values and collinear runs exercise the tie rules
    pts = pts + [(u, y + 1.0) for u, y in pts[:3]] + [(0.5 * (pts[0][0] + pts[1][0]), 0.0)]
    if len({u for u, _ in pts}) < 2:
        return
    assert lower_hull(pts).vertices == _ref_lower_hull(pts)
    assert lower_hull(np.array(pts)).vertices == _ref_lower_hull(pts)


FILE_SCHEME = TauScheme((
    PiecewiseLinearMap.pps(4.0),
    PiecewiseLinearMap(((0.0, 0.0), (0.25, 1.0), (0.6, 2.5), (1.0, 5.0))),
    PiecewiseLinearMap(((0.0, 0.0), (0.5, 3.0), (1.0, 4.0))),
))
ANALYSIS_SCHEMES = {"pps:tau=4": TauScheme.pps(4.0, r=3), "pwl+pps": FILE_SCHEME}


@given(st.sampled_from(sorted(ANALYSIS_SCHEMES)), st.lists(values_st, min_size=3, max_size=3),
       st.integers(0, 6))
@example("pps:tau=4", [0.0, 0.0, 4.875], 4)  # rg:p=2: one arc, rows on it
@settings(max_examples=30, deadline=None)
def test_analysis_path_matches_per_row_reference(scheme_name, v, k):
    scheme = ANALYSIS_SCHEMES[scheme_name]
    f = builtin_functions(3)[k]
    lbf = lb_function(f, v, scheme)
    est = row_pieces(v_optimal_estimates(lbf))
    # a hull from the corners of a curve with concave pieces is the
    # reference chain's, bit for bit, and its grid hull within CORNER_TOL
    # (see there), where the grid hull is right: not for data below about
    # 1e-290 (test_tiny_data_keeps_its_optimum)
    if concave_pieces(lbf):
        want = _ref_v_optimal_estimates(lbf, corners=True)
        assert _bits(np.column_stack((est.los, est.his, est.values)).ravel()) == _bits(np.ravel(want))
    if concave_pieces(lbf) and all(x == 0.0 or x >= 1e-100 for x in v):
        for grid_n in (64, 512):
            grid = pieces(*np.array(_ref_v_optimal_estimates(lbf, grid_n)).T)
            sq = _ref_integrate_square(grid)
            assert abs(_ref_integrate_square(est) - sq) <= CORNER_TOL * sq
            us = np.concatenate([est.los, grid.los, [1.0]]).tolist()
            assert all(abs(_ref_integral(est, lo=u) - _ref_integral(grid, lo=u)) <= CORNER_TOL * evaluate(f, v)
                       for u in us)
    got = np.array(curve_table(v, f, scheme))
    want = np.array(_ref_curve_table(v, f, scheme))
    assert len(got) == len(want)
    if concave_pieces(lbf):
        assert _bits(got) == _bits(want)
    else:
        # on an arc the hull and optimal columns take powers, where numpy's
        # array power and Python's may differ in the last bit
        assert _bits(got[:, [0, 1, 3]]) == _bits(want[:, [0, 1, 3]])
        assert np.allclose(got[:, [2, 4]], want[:, [2, 4]], rtol=1e-14, atol=1e-15 * evaluate(f, v))
    # the partial square integrals of the finite-variance oracle, one row
    # each, on the hull of its own grid
    check = check_finite_variance_curve(lbf, grid_n=64)
    est = grid_hull(lbf, 64)
    floor = max(4.0 * est.los[0], 1e-300)
    steps = int(np.clip(np.ceil(np.log(0.0625 / floor) / np.log(4.0)), 13, 60))
    cutoffs = 0.0625 * 4.0 ** -np.arange(steps, dtype=float)
    assert _bits(check.probes) == _bits([_ref_integrate_square(est, lo=c) for c in cutoffs.tolist()])
    # one curve per vector gives the reports the public checks give; a
    # value never revealed at any float seed (such as 5e-324 under tau = 4)
    # leaves a gap at seed 0, which is an error naming its instance
    try:
        report = competitiveness_ratio(v, f, scheme)
    except ValueError as exc:
        assert "which no positive float seed reveals" in str(exc)
        for check in (check_estimable, check_bounded, check_finite_variance):
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                check(v, f, scheme)
        return
    assert report["estimable"] == check_estimable(v, f, scheme).ok
    assert report["bounded"] == check_bounded(v, f, scheme).ok
    assert report["finite_variance"] == check_finite_variance(v, f, scheme).ok
    assert _bits([report["diagnostics"]["estimable_gap"], report["diagnostics"]["bounded_slope"]]) == _bits(
        [check_estimable(v, f, scheme).value, check_bounded(v, f, scheme).value])


def test_flat_head_gives_the_zero_gap_record():
    # a curve flat at f(v) below its head has a zero gap at every limit
    # probe of the oracle, and the exact check reads the same zero gap
    want = ProbeResult(True, 0.0, (0.0, 0.0, 0.0))
    rng = np.random.default_rng(64)
    flat = 0
    for _ in range(200):
        v = random_vector(rng, r=3, scale=10.0)
        for scheme, f in itertools.product(ANALYSIS_SCHEMES.values(), builtin_functions(3)):
            lbf, fv = lb_function(f, v, scheme), evaluate(f, v)
            if (lbf.value(lbf.head * np.array([0.25, 0.5, 0.75])) == fv).all():
                flat += 1
                assert repr(check_estimable_curve(lbf, fv, 1e-3 * lbf.head)) == repr(want), (v, f)
                assert repr(check_estimable(v, f, scheme)) == repr(CheckResult(True, 0.0)), (v, f)
    assert flat > 1000


@given(st.integers(1, 4).flatmap(schemes), st.lists(st.floats(0.0, 10.0), max_size=4),
       st.sampled_from([0.0, 0.1, 0.5]))
@settings(max_examples=200, deadline=None)
def test_scheme_breakpoints_match_the_two_pair_loops(scheme, levels, left):
    levels = np.array(sorted(levels))
    (got,), _ = _breakpoints(scheme, levels, np.zeros(len(levels), dtype=np.intp), np.array([left]))
    assert got.tolist() == sorted(_ref_scheme_breakpoints(scheme, levels.tolist(), left) | {1.0})
