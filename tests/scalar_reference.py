"""One-at-a-time helpers and scalar references that only the tests use.

The package works on columns and blocks: whole sample columns, whole blocks
of data vectors.  These are the one-item forms the tests build outcomes
with, and the scalar code the block kernels are checked against bit for
bit: the float-by-float crossing snap, the per-map crossing loops, the
per-vector lower-bound curve with its head piece, and the competitiveness
report and curve rows of one vector built from that curve alone.
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Mapping, Sequence

import numpy as np

from coordest.analysis import CURVE_SEEDS, MAX_DEPTH, AnalysisReport, _curve_checks, clamped_variance
from coordest.estimators import (
    DEPTH,
    GRID_N,
    dyadic_index,
    ht_blocks,
    j_estimate_fn,
    j_piece_values,
    v_optimal_estimates,
)
from coordest.functions import (
    RG,
    ItemFunction,
    LowerBoundFn,
    _box_bounds,
    _lb_from_bounds,
    evaluate,
    evaluate_many,
    lower_bound_from_vector,
    lower_bounds,
)
from coordest.hull import EstimateFn, integrate_square, scaled_squares
from coordest.model import SNAP_ULPS, Known, Outcome, PiecewiseLinearMap, PpsMap, TauScheme, Unknown, validate_seed
from coordest.samplers import PPS_RANK_KIND, RankFunction

# ---------------------------------------------------------------------------
# one item at a time


def sample_item(v: Sequence[float], u: float, scheme: TauScheme) -> Outcome:
    """Outcome of sampling one item's data vector at seed ``u``: entry ``i``
    is revealed iff ``v_i >= tau_i(u)`` (ties sample)."""
    validate_seed(u)
    if len(v) != scheme.r:
        raise ValueError("vector arity does not match scheme")
    if any(x < lo for x, lo in zip(v, scheme.domain.lows)):
        raise ValueError("vector lies outside the declared domain")
    slots = []
    for i, x in enumerate(v):
        t = float(scheme.maps[i].value(u))
        slots.append(Known(float(x)) if x >= t else Unknown(t))
    return Outcome(u, tuple(slots), scheme)


def tau_at(scheme: TauScheme, instance: int, u: float) -> float:
    """Threshold ``tau_i(u)`` for one instance; raises on a bad index."""
    if not 0 <= instance < scheme.r:
        raise IndexError(f"instance {instance} out of range for r={scheme.r}")
    return float(scheme.maps[instance].value(validate_seed(u)))


def is_consistent(outcome: Outcome, candidate: Sequence[float]) -> bool:
    """Whether ``candidate`` could have produced ``outcome``.

    Revealed slots must match exactly; unsampled slots constrain the
    candidate strictly below the recorded bound.
    """
    if len(candidate) != len(outcome.slots):
        raise ValueError(
            f"candidate has {len(candidate)} entries, outcome has {len(outcome.slots)}"
        )
    for z, slot in zip(candidate, outcome.slots):
        if isinstance(slot, Known):
            if z != slot.value:
                return False
        else:
            if not z < slot.bound:
                return False
    return True


def rank_value(rf: RankFunction, u: float, v: float) -> float:
    """Rank of a value under seed ``u``; may be ``inf`` at the boundary."""
    validate_seed(u)
    if v < 0:
        raise ValueError("values must be nonnegative")
    if v == 0.0:
        return 0.0
    if rf.kind == PPS_RANK_KIND:
        return v / u
    if u == 1.0:
        return math.inf
    return -v / math.log(u)


def conditional_threshold(ranks: Mapping[str, float], item_id: str, k: int) -> float:
    """k-th largest rank value with ``item_id`` excluded (the reference
    definition; ``bottomk_sample`` reads it off one sort)."""
    others = sorted((r for i, r in ranks.items() if i != item_id), reverse=True)
    if len(others) < k:
        raise ValueError("not enough other items to form a threshold")
    return others[k - 1]


def j_cumulative(v: Sequence[float], rho: float, f: ItemFunction, scheme: TauScheme, depth: int = DEPTH) -> float:
    """Integral of the dyadic estimator over seeds in ``(rho, 1]`` for data
    ``v``, summed piece by piece.

    At ``rho = 2^-j`` this telescopes to the lower bound at ``2^-j+1`` up to
    float rounding, which is the construction's defining invariant.
    """
    i_last = dyadic_index(rho)
    if depth < i_last:
        raise ValueError(f"depth {depth} too shallow for rho={rho}")
    total = 0.0
    cum = 0.0  # integral over (2^-j, 1] after j full pieces
    for j in range(i_last + 1):
        hi = 2.0 ** (-j)
        if hi <= rho:
            break
        value = max(0.0, 2.0 ** (j + 1) * (lower_bound_from_vector(f, v, scheme, hi) - cum))
        width = hi - max(rho, hi / 2.0)
        total += value * width
        cum += value * (hi / 2.0)
    return total


def ht_estimate_fn(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> EstimateFn:
    """Inverse-probability estimates as a function of the seed for data
    ``v``: a single constant block on the certifying seeds (one row of
    ``ht_blocks``)."""
    value, p = (float(a[0]) for a in ht_blocks(f, np.asarray(v, dtype=float).reshape(1, -1), scheme))
    if value == 0.0 or p >= 1.0:
        return EstimateFn([0.0], [1.0], [value])
    return EstimateFn([0.0, p], [p, 1.0], [value, 0.0])


def brute_force_lower_bound(f: ItemFunction, outcome: Outcome, x: float, grid_n: int = 64) -> float:
    """Grid-search oracle for ``lower_bound``.

    Free coordinates are swept over ``grid_n`` points spanning
    ``[domain_low, tau_i(x) - delta]`` with ``delta`` one grid step, honouring
    the strict upper bound; fixed coordinates stay at their revealed value.
    Converges to the closed form as ``grid_n`` grows.
    """
    if x < outcome.seed:
        raise ValueError(f"x={x} below outcome seed {outcome.seed}")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    axes = []
    for i, slot in enumerate(outcome.slots):
        tau_x = float(outcome.scheme.maps[i].value(x))
        if isinstance(slot, Known) and slot.value >= tau_x:
            axes.append(np.array([slot.value]))
        else:
            lo = outcome.scheme.domain.lows[i]
            if not math.isfinite(tau_x):
                raise ValueError("cannot grid an unbounded coordinate")
            delta = (tau_x - lo) / grid_n
            axes.append(np.linspace(lo, tau_x - delta, grid_n))
    grids = np.meshgrid(*axes, indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1)
    return float(evaluate_many(f, z).min())


# ---------------------------------------------------------------------------
# the scalar crossing snap and the per-vector curve


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def snap_crossing(value, u: float, level: float, lo: float, hi: float) -> float:
    """The last seed in ``[lo, hi]`` at which the map ``value`` is at most
    ``level`` (``value(lo) <= level``), from the interpolated crossing
    ``u``, one float at a time: the scalar form of
    ``model.snap_crossings``.

    It steps float by float from ``u``.  Past ``SNAP_ULPS`` steps (a
    segment so flat that many seeds share one value) it bisects the rest on
    the bits of the floats, which order as nonnegative floats do.
    """
    u = min(max(u, lo), hi)
    for _ in range(SNAP_ULPS):
        if value(u) > level:
            u = max(math.nextafter(u, -math.inf), lo)
            continue
        up = math.nextafter(u, math.inf)
        if up > hi or value(up) > level:
            return u
        u = up
    a, b = (_bits(lo), _bits(u)) if value(u) > level else (_bits(u), _bits(hi))
    while a < b:
        mid = a + (b - a + 1) // 2
        if value(_from_bits(mid)) <= level:
            a = mid
        else:
            b = mid - 1
    return _from_bits(a)


def scalar_crossings(m, level: float) -> tuple[float, ...]:
    """``m.crossings(level)`` by the per-segment loop with the scalar snap."""
    if isinstance(m, PpsMap):
        u = level / m.tau_star
        if not u > 0.0:
            return ()
        u = snap_crossing(m.value, u, level, 0.0, 1.0)
        return (u,) if 0.0 < u < 1.0 else ()
    out = []
    pts = m.points
    for (ua, ta), (ub, tb) in zip(pts, pts[1:]):
        if ta <= level <= tb:
            if tb > ta:
                u = ua + (level - ta) * (ub - ua) / (tb - ta)
                if u > 0.0:
                    out.append(snap_crossing(m._value, u, level, ua, ub))
            elif ta == level:
                out.extend((ua, ub))
    return tuple(sorted({u for u in out if 0.0 < u < 1.0}))


def scheme_breakpoints(scheme: TauScheme, levels: Sequence[float], left: float) -> set[float]:
    """Candidate seeds where any map crosses a fixed level, plus joints and
    pairwise intersections of maps, at least one of them piecewise-linear."""
    pts: set[float] = set()
    for m in scheme.maps:
        for lvl in levels:
            pts.update(scalar_crossings(m, lvl))
        pts.update(m.joints())
    for a, b in itertools.combinations(scheme.maps, 2):
        if not (isinstance(a, PiecewiseLinearMap) or isinstance(b, PiecewiseLinearMap)):
            continue
        us = np.array(sorted({0.0, 1.0, *a.joints(), *b.joints()}))
        gaps = (a.value(us) - b.value(us)).tolist()
        for ua, ub, fa, fb in zip(us.tolist(), us[1:].tolist(), gaps, gaps[1:]):
            if fa == 0.0:
                pts.add(ua)
            if fa * fb < 0.0:
                t = fa / (fa - fb)
                pts.add(ua + t * (ub - ua))
    return {p for p in pts if left < p < 1.0}


def head_piece(f: ItemFunction, scheme: TauScheme, v: np.ndarray, head: float) -> tuple[float, float]:
    """The ``(c, d)`` of the curve of data ``v`` on ``(0, head]``, one
    vector at a time."""
    lows, highs = (a[:, 0] for a in _box_bounds(v[:, None], True, np.array([head]), scheme))
    if f.p is None:
        return float(_lb_from_bounds(f, lows[:, None], highs[:, None])[0]), 0.0
    known = highs == v
    starts = np.where(known, v, [m.infimum() for m in scheme.maps]).tolist()
    slopes = np.where(known, 0.0, [m.first_slope() for m in scheme.maps]).tolist()
    if f.kind == RG:
        top = max(lows.tolist())
        low = min(range(len(v)), key=lambda i: (starts[i], slopes[i]))
    else:
        hi, low = f.direction
        top = float(lows[hi])
    return max(top - starts[low], 0.0), -slopes[low]


def scalar_lb_function(f: ItemFunction, v: Sequence[float], scheme: TauScheme) -> LowerBoundFn:
    """The lower-bound curve of data ``v`` built for that vector alone, with
    the scalar crossings and head piece."""
    col = np.asarray(v, dtype=float).reshape(-1, 1)
    levels = set(col[:, 0].tolist()) | set(scheme.domain.lows)
    bps = tuple(sorted(scheme_breakpoints(scheme, sorted(levels), 0.0) | {1.0}))
    return LowerBoundFn(bps, 0.0, lambda xs: lower_bounds(f, col, True, np.asarray(xs, dtype=float), scheme),
                        f.p, head_piece(f, scheme, col[:, 0], bps[0]))


def scalar_report(v: Sequence[float], f: ItemFunction, scheme: TauScheme, grid_n: int = GRID_N,
                  depth: int = DEPTH) -> AnalysisReport:
    """The competitiveness report of data ``v`` built for that vector alone:
    its own curve, dyadic values, hull and tail seed read one call each."""
    fv = evaluate(f, v)
    lbf = scalar_lb_function(f, v, scheme)
    est, bd, fin = _curve_checks(lbf, fv, v, scheme)
    diagnostics = {"f_value": fv, "estimable_gap": est.value, "bounded_slope": bd.value,
                   "depth": depth, "grid_n": grid_n}
    if fv == 0.0:
        return AnalysisReport(0.0, 0.0, 1.0, 0.0, 0.0, est.ok, fin.ok, bd.ok, diagnostics)
    depth = max(depth, min(int(math.ceil(-math.log2(lbf.head))) + 20, MAX_DEPTH))
    diagnostics["depth"] = depth
    widths = 2.0 ** -(np.arange(depth + 1, dtype=float) + 1.0)
    squares, shift = scaled_squares(j_piece_values(v, f, scheme, depth))
    sq_j = float(np.sum(widths * squares)) * 2.0**shift * 2.0**shift
    tail = None
    if bd.ok:
        u_tail = 2.0 ** (-depth + 2)
        slope = max((fv - lbf.value(u_tail)) / u_tail, bd.value)
        tail = 256.0 * slope * slope * 2.0**-depth
    diagnostics["j_tail_bound"] = tail
    sq_j += tail or 0.0
    sq_opt = integrate_square(v_optimal_estimates(lbf, grid_n))
    ratio = sq_j / sq_opt if sq_opt > 0.0 else 1.0
    return AnalysisReport(sq_j, sq_opt, ratio, clamped_variance(sq_j, fv), clamped_variance(sq_opt, fv),
                          est.ok, fin.ok, bd.ok, diagnostics)


def scalar_curve_columns(v: Sequence[float], f: ItemFunction, scheme: TauScheme, grid_n: int = GRID_N,
                         depth: int = DEPTH) -> tuple:
    """The five ``curve_table`` columns of data ``v`` built for that vector
    alone: its own curve, hull and dyadic pieces, and one curve call at the
    row seeds."""
    lbf = scalar_lb_function(f, v, scheme)
    opt = v_optimal_estimates(lbf, grid_n)
    j_fn = j_estimate_fn(v, f, scheme, depth=min(depth, 40))
    bps = np.array(lbf.breakpoints)
    seeds = [bps, np.nextafter(bps[bps < 1.0], np.inf), opt.los, opt.his, j_fn.los, j_fn.his]
    if lbf.exponent not in (None, 1.0):
        edges = np.concatenate((opt.los[:1], bps))
        t = np.arange(1, CURVE_SEEDS + 1) / (CURVE_SEEDS + 1)
        seeds.append((edges[:-1, None] + np.diff(edges)[:, None] * t).ravel())
    us = np.unique(np.concatenate(seeds))
    return us, lbf.value(us), opt.integral(lo=us), j_fn.value_at(us), opt.value_at(us)
