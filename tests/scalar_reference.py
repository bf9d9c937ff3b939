"""One-at-a-time helpers and scalar references that only the tests use.

The package works on columns and blocks: whole sample columns, whole blocks
of data vectors.  These are the one-item forms the tests build outcomes
with, and the scalar code the block kernels are checked against bit for
bit: the float-by-float crossing snap, the per-map crossing loops, the
per-vector lower-bound curve with its pieces and verdicts, and the
competitiveness report and curve rows of one vector built from that curve
alone, with the scalar monotone chain of one point set at a time, and the
reads of one estimate at a time (its value, integral and square integral).
The grid hull is the reference hull of a curve of no known form.
"""

from __future__ import annotations

import itertools
import math
import struct
from functools import partial
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from coordest.analysis import (
    CURVE_SEEDS,
    MAX_DEPTH,
    CheckResult,
    _unrevealed_error,
    clamped_variance,
    competitiveness_reports,
    report_record,
)
from coordest.estimators import DEPTH, HULL_LEFT_ANCHOR, ht_blocks, j_piece_values
from coordest.functions import (
    RG,
    ItemFunction,
    LowerBoundFn,
    LowerBoundFns,
    _box_bounds,
    _breakpoints,
    _lb_from_bounds,
    evaluate,
    evaluate_many,
    lower_bound_from_vector,
    lower_bounds,
)
from coordest.hull import SUM_BLOCK, EstimateBlock, FloatRangeError, LowerHull, arc_hull
from coordest.model import (
    SNAP_ULPS,
    Known,
    Outcome,
    TauScheme,
    Unknown,
    outcome_columns,
    validate_seed,
)
from coordest.samplers import PPS_RANK_KIND, RankFunction, Samples

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


def samples_of(outcomes: Mapping[str, Outcome]) -> Samples:
    """The samples, as columns, of hand-made outcomes of one scheme, keyed
    by item id."""
    (scheme,) = {o.scheme for o in outcomes.values()}
    return Samples(outcomes, *outcome_columns(list(outcomes.values())), scheme)


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


def dyadic_index(rho: float) -> int:
    """The index ``i`` with ``rho`` in ``(2^-i-1, 2^-i]``, one seed at a
    time: the reference of ``estimators.dyadic_indices``."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"seed must lie in (0, 1], got {rho}")
    m, e = math.frexp(rho)
    return -e + (m == 0.5)


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


def j_estimate_fn(v: Sequence[float], f: ItemFunction, scheme: TauScheme, depth: int = DEPTH) -> Pieces:
    """The dyadic estimator materialised down to seed ``2^-depth-1``: the
    value ``j_piece_values(...)[j]`` on each piece ``(2^-j-1, 2^-j]``.  The
    reference of the dyadic column of ``curve_block``."""
    his = np.ldexp(1.0, np.arange(-depth, 1))
    return Pieces(0.5 * his, his, j_piece_values(v, f, scheme, depth)[::-1])


def ht_estimate_fn(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> Pieces:
    """Inverse-probability estimates as a function of the seed for data
    ``v``: a single constant block on the certifying seeds (one row of
    ``ht_blocks``)."""
    value, p = (float(a[0]) for a in ht_blocks(f, np.asarray(v, dtype=float).reshape(1, -1), scheme))
    if value == 0.0 or p >= 1.0:
        return pieces([0.0], [1.0], [value])
    return pieces([0.0, p], [p, 1.0], [value, 0.0])


# uniform seeds of the reference grid hull
GRID_N = 256


def grid_seeds(lb: LowerBoundFn, grid_n: int = GRID_N) -> tuple[float, np.ndarray]:
    """The anchor of the hull of ``lb`` and the seeds of its reference grid
    past it: the breakpoints, ``linspace(1/grid_n, 1, grid_n)`` and
    ``max(grid_n, 128, 12 * decades)`` geometric seeds from the anchor."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    anchor = max(min(HULL_LEFT_ANCHOR, 1e-3 * lb.head), math.ulp(0.0))
    decades = min(math.log10(1.0 / anchor), 324.0)
    grid = [np.linspace(1.0 / grid_n, 1.0, grid_n), np.geomspace(anchor, 1.0, int(max(grid_n, 128, 12 * decades)))]
    us = np.unique(np.concatenate([*grid, lb.breakpoints]))
    return anchor, us[(us > anchor) & (us <= 1.0)]


def grid_points(lb: LowerBoundFn, grid_n: int = GRID_N) -> tuple[np.ndarray, np.ndarray]:
    """The points the grid hull of ``lb`` is taken from: the curve at the
    anchor, at the :func:`grid_seeds` and just right of every breakpoint
    (at the breakpoint's seed), and ``(1, 0)``."""
    anchor, us = grid_seeds(lb, grid_n)
    bs = np.array([b for b in lb.breakpoints if b < 1.0], dtype=float)
    xs = np.concatenate(([anchor], us, bs, [1.0]))
    ys = np.append(lb.value(np.concatenate(([anchor], us, np.nextafter(bs, np.inf)))), 0.0)
    return xs, ys


def grid_hull(lb: LowerBoundFn, grid_n: int = GRID_N) -> Pieces:
    """The hull of any curve on (0, 1], one of no known form too, read on
    a grid: the negated slopes of the lower hull of its
    :func:`grid_points`.

    On a curve of convex arcs the hull is linear between grid seeds while
    the curve is convex: it lies above the curve there and misses
    ``sq_opt`` by ``O(grid_n^-2)``.  This was the package's hull of the
    ``p > 1`` range kinds before they took theirs from the arcs.
    """
    return hull_estimate_fn(scalar_lower_hull(np.column_stack(grid_points(lb, grid_n))))


def scalar_lower_hull(points) -> LowerHull:
    """The monotone-chain lower hull of one point set, as the package took
    it one curve at a time: the reference of ``hull.lower_hulls``.

    Duplicate u-coordinates keep their minimum value first; collinear
    interior points are dropped.  Requires at least two distinct u values.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    us, ys = pts[order, 0], pts[order, 1]
    first = np.ones(len(us), dtype=bool)
    first[1:] = us[1:] != us[:-1]
    us, ys = us[first], ys[first]
    # the cross products of a curve below about 1e-154 underflow to 0 and
    # would drop every vertex; a power-of-two scale up is exact
    top = max(ys.max(initial=0.0), -ys.min(initial=0.0))
    shift = -math.frexp(top)[1] if 0.0 < top < 2.0**-500 else 0
    us, ys = us.tolist(), (np.ldexp(ys, shift) if shift else ys).tolist()
    if len(us) < 2:
        raise ValueError("need at least two points with distinct u")
    cu, cy = us[:2], ys[:2]
    ou, oy, au, ay = us[0], ys[0], us[1], ys[1]
    for u, y in zip(us[2:], ys[2:]):
        while (au - ou) * (y - oy) - (u - ou) * (ay - oy) <= 0.0:
            cu.pop()
            cy.pop()
            au, ay = ou, oy
            if len(cu) < 2:
                break
            ou, oy = cu[-2], cy[-2]
        ou, oy, au, ay = au, ay, u, y
        cu.append(u)
        cy.append(y)
    if shift:
        cy = [math.ldexp(y, -shift) for y in cy]
    return LowerHull(tuple(zip(cu, cy)))


def hull_seeds(lb: LowerBoundFn) -> tuple[np.ndarray, np.ndarray]:
    """The u coordinates ``xs`` of the hull's input points of one curve,
    and the seeds ``at`` to read the curve at for all of them but the last,
    ``(1, 0)``, as the package took them one curve at a time: the reference
    of the points of ``estimators.hull_block``.

    The points are the curve at the left anchor, at every breakpoint past
    it and just right of every breakpoint below 1 (read at the breakpoint's
    seed), and ``(1, 0)``.  A curve of convex arcs takes its hull from the
    closed form of its pieces: ``xs`` is the anchor alone and ``at`` is
    empty.
    """
    if lb.domain_left > HULL_LEFT_ANCHOR:
        raise ValueError("need a lower-bound curve valid on all of (0, 1]")
    anchor = max(min(HULL_LEFT_ANCHOR, 1e-3 * lb.head), math.ulp(0.0))
    if lb.exponent is not None and lb.exponent > 1.0:
        if lb.pieces is None or math.isinf(lb.exponent):
            raise ValueError("the hull needs a curve of known form: constant pieces, or (c + d*u)^p on each piece")
        return np.array([anchor]), np.empty(0)
    us = np.array(lb.breakpoints, dtype=float)
    us = us[(us > anchor) & (us <= 1.0)]
    bs = np.array([b for b in lb.breakpoints if b < 1.0], dtype=float)
    xs = np.concatenate(([anchor], us, bs, [1.0]))
    return xs, np.concatenate(([anchor], us, np.nextafter(bs, np.inf)))


def scalar_v_optimal(lb: LowerBoundFn) -> Pieces:
    """``v_optimal_estimates(lb)`` by the scalar chain: the hull of the
    curve at its hull seeds and ``(1, 0)``; a curve of convex arcs takes
    its hull from its arcs (:func:`arc_estimate_fn`)."""
    xs, at = hull_seeds(lb)
    if not len(at):
        return arc_estimate_fn(lb, float(xs[0]))
    return hull_estimate_fn(scalar_lower_hull(np.column_stack((xs, np.append(lb.value(at), 0.0)))))


def arc_estimate_fn(lb: LowerBoundFn, anchor: float) -> Pieces:
    """The pieces of ``arc_hull`` of a curve of convex arcs as one
    estimate, as the package took them one curve at a time: the reference
    of the arc rows of ``estimators.hull_block``."""
    los, his, values, cs, ds = np.array(arc_hull(lb.breakpoints, lb.pieces, lb.exponent, anchor)).T
    return Pieces(los, his, np.fmax(values, 0.0) + 0.0, np.column_stack((cs, ds)), lb.exponent)


def hull_estimate_fn(hull) -> Pieces:
    """The negated slopes of a ``LowerHull``, taken as the package takes
    those of a corner hull."""
    hu, hy = np.array(hull.vertices).T
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.fmax((hy[:-1] - hy[1:]) / (hu[1:] - hu[:-1]), 0.0) + 0.0
    return Pieces(hu[:-1], hu[1:], slopes)


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


def lb_breakpoints(f: ItemFunction, outcome: Outcome) -> LowerBoundFn:
    """Piecewise lower-bound representation for an outcome, valid on
    ``[outcome.seed, 1]``: its levels are its revealed values, and it
    carries no pieces."""
    _, revealed, values = outcome_columns([outcome])
    levels = values[revealed]
    bps, _ = _breakpoints(outcome.scheme, levels, np.zeros(len(levels), dtype=np.intp), np.array([outcome.seed]))
    value_fn = partial(lower_bounds, f, values.T, revealed.T, scheme=outcome.scheme)
    return LowerBoundFn(tuple(bps[0].tolist()), outcome.seed, value_fn, f.p)


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
    """The seeds where ``m`` crosses ``level``, ascending, by the per-segment
    loop with the scalar snap: the reference of
    ``np.unique(m.crossing_seeds([level])[1])``."""
    out = []
    pts = m.points
    for (ua, ta), (ub, tb) in zip(pts, pts[1:]):
        if ta <= level <= tb:
            if tb > ta:
                u = ua + (level - ta) * (ub - ua) / (tb - ta)
                if u > 0.0:
                    out.append(snap_crossing(m.value, u, level, ua, ub))
            elif ta == level:
                out.extend((ua, ub))
    return tuple(sorted({u for u in out if 0.0 < u < 1.0}))


def scheme_breakpoints(scheme: TauScheme, levels: Sequence[float], left: float) -> set[float]:
    """Candidate seeds where any map crosses a fixed level, plus joints and
    pairwise intersections of maps."""
    pts: set[float] = set()
    for m in scheme.maps:
        for lvl in levels:
            pts.update(scalar_crossings(m, lvl))
        pts.update(m.joints())
    for a, b in itertools.combinations(scheme.maps, 2):
        us = np.array(sorted({0.0, 1.0, *a.joints(), *b.joints()}))
        gaps = (a.value(us) - b.value(us)).tolist()
        for ua, ub, fa, fb in zip(us.tolist(), us[1:].tolist(), gaps, gaps[1:]):
            if fa == 0.0:
                pts.add(ua)
            if fa * fb < 0.0:
                t = fa / (fa - fb)
                pts.add(ua + t * (ub - ua))
    return {p for p in pts if left < p < 1.0}


def curve_pieces(f: ItemFunction, scheme: TauScheme, v: np.ndarray, bps: Sequence[float]) -> tuple:
    """The ``(c, d)`` of every piece of the curve of data ``v`` with
    breakpoints ``bps``, one piece at a time: the box at the piece's right
    end, and the least high at its midpoint (at seed 0 for the first
    piece), the flattest among ties."""
    out = []
    for lo, hi in zip((0.0, *bps), bps):
        lows, highs = (a[:, 0] for a in _box_bounds(v[:, None], True, np.array([hi]), scheme))
        if f.p is None:
            out.append((float(_lb_from_bounds(f, lows[:, None], highs[:, None])[0]), 0.0))
            continue
        mid = np.array([0.5 * (lo + hi)])
        lines = [tuple(float(x[0]) for x in m.lines(mid)) for m in scheme.maps]
        known = (highs == v).tolist()
        starts = [x if k else a for x, k, (a, _) in zip(v.tolist(), known, lines)]
        slopes = [0.0 if k else b for k, (_, b) in zip(known, lines)]
        if f.kind == RG:
            top = max(lows.tolist())
            at = 0.0 if lo == 0.0 else float(mid[0])
            low = min(range(len(v)), key=lambda i: (starts[i] + slopes[i] * at, slopes[i]))
        else:
            hi_, low = f.direction
            top = float(lows[hi_])
        out.append((max(top - starts[low], 0.0), -slopes[low]))
    return tuple(out)


def scalar_lb_function(f: ItemFunction, v: Sequence[float], scheme: TauScheme) -> LowerBoundFn:
    """The lower-bound curve of data ``v`` built for that vector alone, with
    the scalar crossings and pieces."""
    col = np.asarray(v, dtype=float).reshape(-1, 1)
    levels = set(col[:, 0].tolist()) | set(scheme.domain.lows)
    bps = tuple(sorted(scheme_breakpoints(scheme, sorted(levels), 0.0) | {1.0}))
    return LowerBoundFn(bps, 0.0, lambda xs: lower_bounds(f, col, True, np.asarray(xs, dtype=float), scheme),
                        f.p, curve_pieces(f, scheme, col[:, 0], bps))


def curve_block_of(lbfs: Sequence[LowerBoundFn], read=None) -> LowerBoundFns:
    """The curves ``lbfs`` as one block, padded as ``lb_functions`` pads
    its own, with pieces of 0 for a curve without pieces and the exponent
    of the first curve (the corner hulls of a block never read it, so its
    corner curves may mix exponents); read by ``read(rows, us)``, or else
    by each curve's ``value`` one curve at a time."""
    lens = np.array([len(lb.breakpoints) for lb in lbfs])
    real = np.arange(lens.max()) < lens[:, None]
    bps, cs, ds = np.ones(real.shape), np.zeros(real.shape), np.zeros(real.shape)
    bps[real] = [b for lb in lbfs for b in lb.breakpoints]
    for k, lb in enumerate(lbfs):
        if lb.pieces is not None:
            cs[k, :lens[k]], ds[k, :lens[k]] = np.array(lb.pieces).T

    def value(rows, us):
        out = np.empty(len(us))
        for k in np.unique(rows).tolist():
            out[rows == k] = lbfs[k].value(us[rows == k])
        return out

    return LowerBoundFns(bps, real, cs, ds, lbfs[0].exponent, read or value)


def curve_checks(lbf: LowerBoundFn, f_value: float, v: Sequence[float], scheme: TauScheme) -> tuple:
    """The estimable, bounded and finite-variance verdicts of the curve
    ``lbf`` of data ``v``, from its head piece, one curve at a time: the
    reference of ``analysis.curve_verdicts`` and the ``check_*``
    functions; an infinite ``f_value`` is an error.  Estimable: the gap of
    ``f_value`` over the head at seed 0, which is 0 unless an entry is
    revealed at no positive float seed, an error.  Bounded: the head's
    slope at 0+, ``p * c^(p-1) * |d|`` (0 for a constant head and for
    ``f_value = 0``).  Finite variance: a bound on every slope of the
    convex hull from ``(0, f_value)``, the slope at 0+ on a convex head and
    ``f_value / head`` on a concave one; it is finite exactly when the
    slope at 0+ is (the float quotient may overflow, the real one not).
    """
    c, d = lbf.head_piece
    p = lbf.exponent
    if not math.isfinite(f_value):
        raise FloatRangeError(p)
    at_zero = c if p is None else float((np.array([c]) ** p)[0])
    if f_value != at_zero:
        raise _unrevealed_error(v, scheme, f_value, at_zero)
    slope = 0.0
    if p is not None and c > 0.0 and d != 0.0:
        with np.errstate(over="ignore"):
            slope = float(p * np.float64(c) ** (p - 1.0) * -d)
    steepest = max(slope, f_value / lbf.head)
    return (CheckResult(True, 0.0), CheckResult(math.isfinite(slope), slope),
            CheckResult(math.isfinite(slope), steepest))


def scaled_squares(values: np.ndarray) -> tuple[np.ndarray, int]:
    """The squares of ``values`` times ``2^(-2 * shift)``, and ``shift``: when
    the largest value exceeds 2^500 (data below about 1e-150 under pps), all
    are scaled by the exact power of two that brings it under 2^500, so no
    square overflows; else ``shift`` is 0 and the squares are ``values**2``."""
    top = values.max(initial=0.0)
    if not 2.0**500 < top < math.inf:
        return values * values, 0
    shift = math.frexp(top)[1] - 500
    values = np.ldexp(values, -shift)
    return values * values, shift


def scalar_depth(lbf: LowerBoundFn, fv: float, depth: int = DEPTH) -> int:
    """The dyadic depth of the report of a vector of ``f`` value ``fv``
    and curve ``lbf``: ``depth``, or 20 past the curve's head where that
    is deeper, up to ``MAX_DEPTH``; ``depth`` where ``fv`` is 0."""
    if fv == 0.0:
        return depth
    return max(depth, min(int(math.ceil(-math.log2(lbf.head))) + 20, MAX_DEPTH))


def scalar_report(v: Sequence[float], f: ItemFunction, scheme: TauScheme, depth: int = DEPTH) -> dict:
    """The competitiveness report of data ``v`` built for that vector alone,
    as the dict of its record: its own curve, dyadic values, hull and tail
    seed read one call each."""
    fv = evaluate(f, v)
    lbf = scalar_lb_function(f, v, scheme)
    est, bd, fin = curve_checks(lbf, fv, v, scheme)
    depth = scalar_depth(lbf, fv, depth)
    diagnostics = {"f_value": fv, "estimable_gap": est.value, "bounded_slope": bd.value, "depth": depth}
    report = {"square_integral_j": 0.0, "square_integral_opt": 0.0, "ratio": 1.0, "variance_j": 0.0,
              "variance_opt": 0.0, "estimable": est.ok, "finite_variance": fin.ok, "bounded": bd.ok,
              "diagnostics": diagnostics}
    if fv == 0.0:
        return report
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
    sq_opt = ref_integrate_square(scalar_v_optimal(lbf))
    report.update(square_integral_j=sq_j, square_integral_opt=sq_opt, ratio=sq_j / sq_opt if sq_opt > 0.0 else 1.0,
                  variance_j=float(clamped_variance(sq_j, fv)), variance_opt=float(clamped_variance(sq_opt, fv)))
    return report


def report_text(make) -> str:
    """The report ``make()`` returns as text (``repr`` tells every float
    apart), or the error it raises."""
    try:
        return repr(make())
    except ValueError as exc:
        return f"ValueError: {exc}"


def block_report_texts(rows, f: ItemFunction, scheme: TauScheme) -> list[str]:
    """The :func:`report_text` of each vector of ``rows`` from its
    ``competitiveness_reports`` block, up to the first that fails, whose
    error ends the list."""
    texts = []
    for fields, error in competitiveness_reports(rows, f, scheme):
        texts += [repr(report_record(fields, k)) for k in range(len(fields["ratio"]))]
        if error is not None:
            return texts + [f"ValueError: {error}"]
    return texts


def scalar_curve_columns(v: Sequence[float], f: ItemFunction, scheme: TauScheme, depth: int = DEPTH) -> tuple:
    """The five ``curve_table`` columns of data ``v`` built for that vector
    alone: the rows of :func:`scalar_full_curve_columns` that
    :func:`kept_rows` keeps."""
    columns = scalar_full_curve_columns(v, f, scheme, depth)
    keep = kept_rows(columns)
    return tuple(c[keep] for c in columns)


def kept_rows(columns) -> list[int]:
    """The indices of the rows of the full columns ``(u, lower_bound, hull,
    j_estimate, v_optimal)`` that carry something, one row at a time: the
    first and the last row, and each row whose lower bound, dyadic or
    optimal value differs from the same column at the row before it or at
    the row after it in the full table."""
    _, lb, _, j, vopt = (np.asarray(c).tolist() for c in columns)

    def flat(i: int) -> bool:  # rows i and i + 1 agree
        return lb[i] == lb[i + 1] and j[i] == j[i + 1] and vopt[i] == vopt[i + 1]

    n = len(lb)
    return [i for i in range(n) if i in (0, n - 1) or not (flat(i - 1) and flat(i))]


def scalar_full_curve_columns(v: Sequence[float], f: ItemFunction, scheme: TauScheme, depth: int = DEPTH) -> tuple:
    """Every row ``curve_block`` evaluates for data ``v`` before it drops
    the rows that carry nothing, built for that vector alone: its own curve,
    hull and dyadic pieces, and one curve call at the row seeds."""
    lbf = scalar_lb_function(f, v, scheme)
    opt = scalar_v_optimal(lbf)
    j_fn = j_estimate_fn(v, f, scheme, depth=min(depth, 40))
    bps = np.array(lbf.breakpoints)
    seeds = [bps, np.nextafter(bps[bps < 1.0], np.inf), opt.los, opt.his, j_fn.los, j_fn.his]
    if lbf.exponent not in (None, 1.0):
        edges = np.concatenate((opt.los[:1], bps))
        t = np.arange(1, CURVE_SEEDS + 1) / (CURVE_SEEDS + 1)
        seeds.append((edges[:-1, None] + np.diff(edges)[:, None] * t).ravel())
    us = np.unique(np.concatenate(seeds))
    return us, lbf.value(us), ref_integral(opt, lo=us), ref_value_at(j_fn, us), ref_value_at(opt, us)


# ---------------------------------------------------------------------------
# one estimate at a time: the reference of hull.EstimateBlock


class Pieces(NamedTuple):
    """One estimate as float arrays, the plain record the ``ref_*`` reads
    take: ``values[i]`` on the seed interval ``(los[i], his[i]]``, or,
    where ``arcs`` is given and its ``d`` is negative, the negated slope of
    the convex arc ``(c + d*u)^exponent`` with ``(c, d) = arcs[i]`` (see
    ``hull.EstimateBlock``)."""

    los: np.ndarray
    his: np.ndarray
    values: np.ndarray
    arcs: np.ndarray | None = None
    exponent: float | None = None


def pieces(los, his, values, arcs=None, exponent=None) -> Pieces:
    """A record of float arrays, ``arcs`` as one ``(c, d)`` row a piece."""
    arcs = None if arcs is None else np.asarray(arcs, dtype=float).reshape(-1, 2)
    return Pieces(*(np.asarray(x, dtype=float) for x in (los, his, values)), arcs, exponent)


def one_row(e: Pieces) -> EstimateBlock:
    """``e`` as the one row of an ``EstimateBlock``, as
    ``v_optimal_estimates`` returns a hull."""
    arcs = None if e.arcs is None else (e.arcs[None, :, 0], e.arcs[None, :, 1])
    return EstimateBlock(np.concatenate((e.los[:1], e.his))[None], e.values[None], arcs, e.exponent)


def row_pieces(block: EstimateBlock, k: int = 0) -> Pieces:
    """Row ``k`` of ``block`` as a record, with its padding."""
    arcs = None if block.arcs is None else np.column_stack((block.arcs[0][k], block.arcs[1][k]))
    return Pieces(block.edges[k, :-1], block.edges[k, 1:], block.values[k], arcs, block.exponent)


def ref_value_at(e: Pieces, u):
    """The value of ``e`` at each seed ``u`` by one ``searchsorted`` over
    its pieces: that of the piece holding the seed, and 0 at or below its
    first edge and above its last."""
    us = np.asarray(u, dtype=float)
    out = np.zeros(us.shape)
    if len(e.his):
        idx = np.minimum(np.searchsorted(e.his, us, side="left"), len(e.his) - 1)
        out = e.values[idx]
        if e.arcs is not None:
            c, d = e.arcs[idx].T
            p = e.exponent
            out = np.where(d < 0.0, p * -d * np.maximum(c + d * us, 0.0) ** (p - 1.0), out)
        out = np.where((us > e.los[0]) & (us <= e.his[-1]), out, 0.0)
    return float(out) if out.ndim == 0 else out


def ref_integral(e: Pieces, lo=0.0, hi=1.0):
    """The integral of ``e`` over each window ``(lo, hi]`` by the ordered
    sum over its pieces."""
    p = e.exponent
    return ref_ordered_sum(e, e.values, lo, hi, lambda s, d: np.maximum(s, 0.0) ** p)


def ref_ordered_sum(e: Pieces, values: np.ndarray, lo, hi, arc_drop=None):
    """Sum of ``value * overlap`` over the pieces of ``e`` for each window
    ``(lo, hi]`` (broadcast), added piece by piece from the left, starting
    from +0.0: blocks of pieces summed with ``cumsum`` down the piece axis.
    A piece that misses the window adds nothing.  An arc piece of ``e``
    adds ``arc_drop(s_a, d) - arc_drop(s_b, d)`` instead, with ``s = c +
    d*u`` at the ends ``a < b`` of the overlap."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    total = np.zeros(np.broadcast(lo, hi).shape)
    step = max(1, SUM_BLOCK // max(total.size, 1))
    # pieces down the first axis, windows along the others
    col = (-1,) + (1,) * total.ndim
    los, his, values = e.los.reshape(col), e.his.reshape(col), values.reshape(col)
    if e.arcs is not None:
        cs, ds = e.arcs[:, 0].reshape(col), e.arcs[:, 1].reshape(col)
    with np.errstate(invalid="ignore"):
        for a in range(0, len(values), step):
            b = np.minimum(his[a : a + step], hi)
            t = np.maximum(los[a : a + step], lo)
            w = b - t
            terms = np.where(w > 0.0, values[a : a + step] * w, 0.0)
            if e.arcs is not None:
                c, d = cs[a : a + step], ds[a : a + step]
                drop = arc_drop(c + d * t, d) - arc_drop(c + d * b, d)
                terms = np.where((d < 0.0) & (w > 0.0), drop, terms)
            terms[0] += total
            total = np.cumsum(terms, axis=0, out=terms)[-1]
    return float(total) if total.ndim == 0 else total


def ref_integrate_square(e: Pieces, lo=0.0, hi=1.0):
    """``integrate_square(one_row(e), lo, hi)`` by the ordered sum of the squares of
    ``e``, scaled by :func:`scaled_squares` and scaled back at the end."""
    with np.errstate(over="ignore"):
        squares, shift = scaled_squares(e.values)
    p = e.exponent

    def arc_drop(s, d):
        k = 2.0 * p - 1.0
        with np.errstate(over="ignore"):
            return np.ldexp(p * p * -d / k * np.maximum(s, 0.0) ** k, -2 * shift)

    total = ref_ordered_sum(e, squares, lo, hi, arc_drop)
    if shift:
        with np.errstate(over="ignore"):
            total = total * 2.0**shift * 2.0**shift
    return total
