"""Lower convex hulls of planar point sets and piecewise integration.

The hull of a lower-bound curve is the central object of the analysis layer:
its negated derivative is the minimum-variance unbiased nonnegative estimate
for the underlying data vector, so hull slopes and their square integrals
drive both the optimal-variance baseline and the characterization checks.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class LowerHull:
    """Vertices of the lower boundary of the convex hull of a point set,
    ordered by strictly increasing u with non-decreasing slopes."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        vs = tuple((float(u), float(y)) for u, y in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 2:
            raise ValueError("a hull needs at least two vertices")
        us = [u for u, _ in vs]
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValueError("hull u-coordinates must strictly increase")
        slopes = self.slopes()
        if any(b < a - 1e-12 * max(1.0, abs(a)) for a, b in zip(slopes, slopes[1:])):
            raise ValueError("hull slopes must be non-decreasing")

    def slopes(self) -> tuple[float, ...]:
        vs = self.vertices
        return tuple(
            (y2 - y1) / (u2 - u1) for (u1, y1), (u2, y2) in zip(vs, vs[1:])
        )

    def value(self, x):
        """Piecewise-linear interpolation along the hull (clamped outside)."""
        us = np.array([u for u, _ in self.vertices])
        ys = np.array([y for _, y in self.vertices])
        out = np.interp(x, us, ys)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def lower_hull(points: Iterable[tuple[float, float]]) -> LowerHull:
    """Monotone-chain lower hull: one row of :func:`lower_hulls`.

    Duplicate u-coordinates keep their minimum value first; collinear interior
    points are dropped, so every input point lies on or above the returned
    chain.  Requires at least two distinct u values.  ``points`` may be an
    (n, 2) array.
    """
    pts = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=float).reshape(-1, 2)
    return lower_hulls([pts[:, 0]], [pts[:, 1]]).hull(0)


def _chain(us: list[float], ys: list[float]) -> tuple[list[float], list[float]]:
    """The monotone chain of points sorted by strictly increasing u, at
    least two of them: its vertices as two float lists."""
    # the chain's last two points are also held as o = (ou, oy) and
    # a = (au, ay); a goes while o -> a -> (u, y) does not turn
    # counter-clockwise, i.e. while cross(o, a, (u, y)) <= 0
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
    return cu, cy


class LowerHulls:
    """The lower hulls of a block of point sets, one per row: row ``k``
    has ``counts[k]`` vertices ``(us[k, j], ys[k, j])``, and is padded to
    the block's width with copies of its last vertex.  A row of fewer than
    two distinct u has no hull: reading it raises its error, and it leaves
    the other rows alone.  (A plain class: a dataclass adds about 1 ms to
    the import of every command.)"""

    def __init__(self, us: np.ndarray, ys: np.ndarray, counts: list[int]):
        self.us, self.ys, self.counts = us, ys, counts

    def _count(self, k: int) -> int:
        if self.counts[k] < 2:
            raise ValueError("need at least two points with distinct u")
        return self.counts[k]

    def hull(self, k: int) -> LowerHull:
        n = self._count(k)
        return LowerHull(tuple(zip(self.us[k, :n].tolist(), self.ys[k, :n].tolist())))

    @cached_property
    def slopes(self) -> np.ndarray:
        """The negated slope of every hull piece, clamped at 0 and 0 on the
        padding: the bits of the scalar ``max(0.0, (y1 - y2) / (u2 - u1))``
        (``fmax`` turns a NaN into 0.0, and adding +0.0 turns a -0.0 into
        0.0)."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.fmax((self.ys[:, :-1] - self.ys[:, 1:]) / np.diff(self.us, axis=1), 0.0) + 0.0

    def estimate(self, k: int) -> EstimateFn:
        """The negated slopes of row ``k``'s hull as an estimate; its
        vertices must lie in [0, 1]."""
        n = self._count(k)
        return EstimateFn(self.us[k, :n - 1], self.us[k, 1:n], self.slopes[k, :n - 1])

    @cached_property
    def square_integrals(self) -> np.ndarray:
        """``integrate_square(self.estimate(k))`` of every row, bit for bit,
        in one pass: the squares scaled by each row's own shift of
        :func:`scaled_squares`, times the piece widths, added left to right
        from +0.0 by a row-wise ``cumsum`` (the padding adds +0.0), then
        scaled back."""
        values = self.slopes
        top = values.max(axis=1, initial=0.0)
        shift = np.where((2.0**500 < top) & (top < math.inf), np.frexp(top)[1] - 500, 0)
        values = np.ldexp(values, -shift[:, None])
        terms = np.zeros(self.us.shape)
        scale = np.ldexp(1.0, shift)
        # a row with an infinite slope is not shifted, and its integral is
        # inf; the scale back is two exact power-of-two steps
        with np.errstate(over="ignore"):
            terms[:, 1:] = values * values * np.diff(self.us, axis=1)
            return np.cumsum(terms, axis=1)[:, -1] * scale * scale

    def square_integral(self, k: int) -> float:
        self._count(k)
        return float(self.square_integrals[k])


def lower_hulls(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> LowerHulls:
    """The monotone-chain lower hull of each row of points ``(xs[k][j],
    ys[k][j])``; where ``ys[k]`` stops short of ``xs[k]`` the points past
    its end lie at height 0 (a curve's closing point ``(1, 0)``).

    The rows are padded into one block and sorted by one ``lexsort``, by u
    and then y, with the padding last; the first point of each u stays.
    Each row then runs :func:`_chain` over plain float lists, and the
    vertices of all rows are gathered back into one padded block.
    """
    lens = np.array([len(x) for x in xs], dtype=np.intp)
    cols = np.arange(lens.max(initial=0))
    live = cols < lens[:, None]
    us, hs = np.zeros(live.shape), np.zeros(live.shape)
    if len(xs):
        us[live] = np.concatenate(xs)
        hs[cols < np.array([len(y) for y in ys])[:, None]] = np.concatenate(ys)
    order = np.lexsort((hs, us, ~live), axis=-1)
    us, hs = np.take_along_axis(us, order, -1), np.take_along_axis(hs, order, -1)
    live[:, 1:] &= us[:, 1:] != us[:, :-1]
    # the cross products of a curve below about 1e-154 underflow to 0 and
    # would drop every vertex; a power-of-two scale up is exact
    top = np.max(np.abs(hs), axis=1, where=live, initial=0.0)
    shift = np.where((0.0 < top) & (top < 2.0**-500), -np.frexp(top)[1], 0)
    counts = live.sum(axis=1).tolist()
    flat_u, flat_y = us[live].tolist(), np.ldexp(hs[live], np.repeat(shift, counts)).tolist()
    vu, vy, sizes, start = [], [], [], 0
    for count in counts:
        cu, cy = _chain(flat_u[start:start + count], flat_y[start:start + count]) if count >= 2 else ((), ())
        vu += cu
        vy += cy
        sizes.append(len(cu))
        start += count
    # each row's vertices, then copies of its last; a row without a hull
    # reads the vertex after it, or the one zero past the end
    size = np.array(sizes, dtype=np.intp)
    last = np.maximum(size - 1, 0)[:, None]
    at = (np.cumsum(size) - size)[:, None] + np.minimum(np.arange(max(max(sizes, default=0), 1)), last)
    return LowerHulls(np.array(vu + [0.0])[at], np.ldexp(np.array(vy + [0.0])[at], -shift[:, None]), sizes)


@dataclass(frozen=True, eq=False)
class EstimateFn:
    """Piecewise estimator values over seeds on the seed intervals
    ``(los[i], his[i]]``, held as float arrays.  A piece is the constant
    ``values[i]``, or, where ``arcs`` is given and its ``d`` is negative,
    the negated slope ``p * |d| * (c + d*u)^(p-1)`` of the convex arc
    ``(c + d*u)^p`` (``p = exponent``) with ``(c, d) = arcs[i]``; there
    ``values[i]`` holds the arc's mean over the piece.
    :meth:`value_at`, :meth:`integral` and :func:`integrate_square` take a
    scalar or an array of seeds or cutoffs and return a float or an array to
    match."""

    los: np.ndarray
    his: np.ndarray
    values: np.ndarray
    arcs: np.ndarray | None = None
    exponent: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype.kind not in "biuf":
            bad = next((x for x in values.ravel().tolist() if not isinstance(x, (int, float))), values)
            raise ValueError(f"piece value must be a number, not {type(bad).__name__}")
        for name in ("los", "his", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        los, his = self.los, self.his
        if not los.shape == his.shape == self.values.shape == (len(los),):
            raise ValueError("los, his and values must be 1-d and of one length")
        # count_nonzero: a fraction of the cost of any() on a few pieces
        good = (0.0 <= los) & (los < his) & (his <= 1.0)
        if np.count_nonzero(good) < len(good):
            raise ValueError(f"bad piece interval ({los[~good][0]}, {his[~good][0]}]")
        if np.count_nonzero(self.values < 0):
            raise ValueError("estimates must be nonnegative")
        if np.count_nonzero(los[1:] != his[:-1]):
            raise ValueError("pieces must be contiguous and ordered")
        if self.arcs is not None:
            object.__setattr__(self, "arcs", np.asarray(self.arcs, dtype=float).reshape(len(los), 2))

    @property
    def support_left(self) -> float:
        return float(self.los[0]) if len(self.los) else 1.0

    def value_at(self, u):
        """Value of the piece holding each seed; 0 at or below
        :attr:`support_left` and above the last piece."""
        us = np.asarray(u, dtype=float)
        out = np.zeros(us.shape)
        if len(self.his):
            idx = np.minimum(np.searchsorted(self.his, us, side="left"), len(self.his) - 1)
            out = self.values[idx]
            if self.arcs is not None:
                c, d = self.arcs[idx].T
                p = self.exponent
                out = np.where(d < 0.0, p * -d * np.maximum(c + d * us, 0.0) ** (p - 1.0), out)
            out = np.where((us > self.support_left) & (us <= self.his[-1]), out, 0.0)
        return float(out) if out.ndim == 0 else out

    def integral(self, lo=0.0, hi=1.0):
        """Integral of the estimate over ``(lo, hi]``."""
        p = self.exponent
        # on an arc the estimate integrates to the arc's drop
        return _ordered_sum(self, self.values, lo, hi, lambda s, d: np.maximum(s, 0.0) ** p)


# elements of one (pieces x windows) block of :func:`_ordered_sum`; one
# matrix of every piece and window would raise the peak memory of a curve
# table by several MB
SUM_BLOCK = 2**14


def _ordered_sum(e: EstimateFn, values: np.ndarray, lo, hi, arc_drop=None):
    """Sum of ``value * overlap`` over the pieces of ``e`` for each window
    ``(lo, hi]`` (broadcast), added piece by piece from the left, starting
    from +0.0, so that every entry has the bits of the scalar left-to-right
    sum.  Blocks of pieces are summed with ``cumsum`` down the piece axis,
    which adds strictly in order (``np.sum`` would add pairwise).  A piece
    that misses the window adds nothing, even where its value is
    infinite.  An arc piece of ``e`` adds ``arc_drop(s_a, d) - arc_drop(s_b,
    d)`` instead, with ``s = c + d*u`` at the ends ``a < b`` of the
    overlap."""
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


def integrate_square(e: EstimateFn, lo=0.0, hi=1.0):
    """Integral of the squared estimate over ``(lo, hi]``, for a scalar or
    an array of windows.

    Exact for the constant pieces, up to the rounding of the ordered sum
    (of squares scaled by :func:`scaled_squares`, scaled back at the end),
    and in closed form on an arc: ``p^2 |d| s^(2p-1) / (2p-1)`` taken
    between the ends of its window.  Any infinite piece value inside the
    window, or a true integral beyond the largest float, makes the result
    infinite.  Mass below the materialised support is not summed; the
    finite-variance verdict of :mod:`coordest.analysis` covers it.
    """
    squares, shift = scaled_squares(e.values)
    p = e.exponent

    def arc_drop(s, d):
        # scaled as the squares are; a power past the largest float is inf
        k = 2.0 * p - 1.0
        with np.errstate(over="ignore"):
            return np.ldexp(p * p * -d / k * np.maximum(s, 0.0) ** k, -2 * shift)

    total = _ordered_sum(e, squares, lo, hi, arc_drop)
    if shift:
        # two exact power-of-two steps, each below the largest float
        with np.errstate(over="ignore"):
            total = total * 2.0**shift * 2.0**shift
    return total


# ---------------------------------------------------------------------------
# the lower hull of a curve of convex arcs


def _arc_value(arc, t: float, p: float) -> float:
    s = arc[0] + arc[1] * t
    return s**p if s > 0.0 else 0.0


def _arc_slope(arc, t: float, p: float) -> float:
    s = arc[0] + arc[1] * t
    return p * arc[1] * s ** (p - 1.0) if s > 0.0 else 0.0


def _tangent_height(s: float, e: float, p: float) -> float:
    """The height, at the seed where the arc's line ``c + d*u`` reads
    ``e``, of the arc's tangent where that line reads ``s``:
    ``(1-p) s^p + p e s^(p-1)``.  It rises in ``s`` below ``e`` and falls
    above it."""
    return (1.0 - p) * s**p + p * e * s ** (p - 1.0)


def _tangent_root(p: float, e: float, y: float, s_a: float, s_b: float, above: bool) -> float:
    """The ``s`` in ``[s_a, s_b]`` whose tangent height (see
    :func:`_tangent_height`) is ``y``, where the bracket lies at or above
    ``e`` when ``above``, else at or below it, and the height crosses
    ``y`` inside it.  For ``p = 2`` it is a root of a quadratic, taken in
    the form that does not cancel; for other ``p``, Newton steps kept
    inside a shrinking bracket."""
    if p == 2.0:
        root = math.sqrt(max(e * e - y, 0.0))
        s = e + root if above else (y / (e + root) if e + root > 0.0 else 0.0)
        return min(max(s, s_a), s_b)
    s = 0.5 * (s_a + s_b)
    for _ in range(200):
        f = _tangent_height(s, e, p) - y
        if f == 0.0:
            break
        # below the root while the height is short of y and rises in s
        if (f < 0.0) != above:
            s_a = s
        else:
            s_b = s
        fp = p * (p - 1.0) * s ** (p - 2.0) * (e - s)
        n = s - f / fp if fp != 0.0 else s_a
        if not s_a < n < s_b:
            n = 0.5 * (s_a + s_b)
        if abs(n - s) <= 4.0 * math.ulp(s) or s_b - s_a <= 4.0 * math.ulp(s_b):
            return n
        s = n
    return s


def _touch(x: float, y: float, arc, p: float, right: bool) -> float:
    """The seed at which the line through ``(x, y)`` that supports ``arc``
    (``(c, d, lo, hi)``) from below touches it: for a point left of the
    arc (``right``, the arc lies right of it) the line of least slope, for
    a point right of it the line of greatest slope."""
    c, d, lo, hi = arc
    near, far = (lo, hi) if right else (hi, lo)
    if d == 0.0:
        return near if y > _arc_value(arc, near, p) else far
    e = c + d * x
    s_lo, s_hi = c + d * lo, max(c + d * hi, 0.0)
    # the tangent at the near end passing at or below (x, y) touches there
    if _tangent_height(s_lo if right else s_hi, e, p) <= y:
        return near
    if _tangent_height(s_hi if right else s_lo, e, p) >= y:
        return far
    return min(max((c - _tangent_root(p, e, y, s_hi, s_lo, not right)) / -d, lo), hi)


def _bridge(left, right, p: float) -> tuple[float, float, float]:
    """The seeds ``(t_l, t_r)`` at which the lower common support line of
    two arcs ``(c, d, lo, hi)``, ``left`` ending at or before ``right``
    starts, touches them, and its slope.

    The line touches each arc inside it, where it is the arc's tangent, or
    at one of its ends.  Both inside: the common tangent of two arcs with
    ``d < 0`` in closed form.  Else one end, with the tangent from it to
    the other arc (:func:`_touch`), which keeps that arc above the line;
    the first of those that also stays below the arc of its end (by that
    arc's slope there) is the line, and the one that misses least when
    rounding leaves none.
    """
    cl, dl, lo_l, hi_l = left
    cr, dr, lo_r, hi_r = right
    if dl < 0.0 and dr < 0.0:
        q = p / (p - 1.0)
        # near p = 1 the powers of the slopes pass the largest float; then
        # the ends below find the line
        with contextlib.suppress(OverflowError):
            den = (p - 1.0) * ((-dl) ** -q - (-dr) ** -q)
            tau = p * (cl / -dl - cr / -dr) / den if den != 0.0 else 0.0
            if 0.0 < tau < math.inf:
                t_l = (cl - tau * (-dl) ** (-1.0 / (p - 1.0))) / -dl
                t_r = (cr - tau * (-dr) ** (-1.0 / (p - 1.0))) / -dr
                if lo_l <= t_l <= hi_l and lo_r <= t_r <= hi_r and t_l < t_r:
                    return t_l, t_r, -p * tau ** (p - 1.0)
    best = None
    # the left arc's end at the right arc's start lies above it: no line rests there
    ends = [(True, hi_l), (False, lo_r), (True, lo_l), (False, hi_r)]
    for on_left, end in ends:
        if on_left and end >= lo_r:
            continue
        if on_left:
            t_l, t_r = end, _touch(end, _arc_value(left, end, p), right, p, True)
        else:
            t_l, t_r = _touch(end, _arc_value(right, end, p), left, p, False), end
        if t_l >= t_r:
            # one seed (the arcs meet at a breakpoint): the left arc's slope
            slope = _arc_slope(left, t_l, p)
        else:
            slope = (_arc_value(right, t_r, p) - _arc_value(left, t_l, p)) / (t_r - t_l)
        # the tangent keeps the other arc above the line; the arc whose end
        # it starts from must not rise above it there
        arc, t, lo, hi = (left, t_l, lo_l, hi_l) if on_left else (right, t_r, lo_r, hi_r)
        miss = 0.0
        if lo < hi:
            at = _arc_slope(arc, t, p)
            miss = max(slope - at if t == lo else 0.0, at - slope if t == hi else 0.0)
        if miss <= 0.0:
            return t_l, t_r, slope
        if best is None or miss < best[0]:
            best = (miss, t_l, t_r, slope)
    return best[1:]


class FloatRangeError(ValueError):
    """The error of a curve of exponent ``p`` past the largest float near seed 0."""

    def __init__(self, p: float):
        super().__init__(f"the lower bound near seed 0 passes the largest float (exponent {p:g})")


def arc_hull(breakpoints: Sequence[float], pieces: Sequence[tuple[float, float]], p: float,
             anchor: float) -> EstimateFn:
    """The negated slopes of the lower convex hull of a curve whose piece
    on ``(breakpoints[k-1], breakpoints[k]]`` is the convex arc
    ``max(c + d*u, 0)^p`` of ``pieces[k] = (c, d)``, ``p > 1``, from the
    curve at ``anchor`` to ``(1, 0)``.

    The hull follows each arc over a span (maybe empty) and bridges the
    gaps with common support lines (:func:`_bridge`).  A stack of the
    spans is kept as the monotone chain keeps points: an arc whose span
    the next bridge leaves at its start, no steeper than the bridge into
    it, goes.  At a breakpoint the curve may jump down; the arc's end there
    lies above the next arc's start, and no bridge rests on it.  The
    estimate is a constant on a bridge and ``p |d| s^(p-1)`` on a span.
    """
    try:
        # the curve's largest value: no power of the hull passes it
        _arc_value(pieces[next(k for k, b in enumerate(breakpoints) if b > anchor)], anchor, p)
    except OverflowError:
        raise FloatRangeError(p) from None
    arcs, lo = [], anchor
    for b, (c, d) in zip(breakpoints, pieces):
        if b <= lo:
            continue
        if c + d * lo <= 0.0:
            c, d = 0.0, 0.0  # 0 on the whole piece
        arcs.append((c, d, lo, b))
        lo = b
    arcs.append((0.0, 0.0, 1.0, 1.0))
    # spans as [c, d, lo, hi, slope of the bridge into it]
    stack = [[*arcs[0], -math.inf]]
    for arc in arcs[1:]:
        while True:
            top = stack[-1]
            if len(stack) > 1 and top[2] >= top[3] >= arc[2]:
                # a bare point at the next arc's start, which lies below it
                stack.pop()
                continue
            t_l, t_r, slope = _bridge(top[:4], arc, p)
            if len(stack) > 1 and t_l <= top[2] and slope <= top[4]:
                stack.pop()
                continue
            top[3] = t_l
            stack.append([arc[0], arc[1], t_r, arc[3], slope])
            break
    # (lo, hi, value, c, d) of each piece, left to right: the bridge into a
    # span, then the span; a flat span's mean is 0
    out = []
    for k, (c, d, lo, hi, _) in enumerate(stack):
        if k and lo > stack[k - 1][3]:
            a = stack[k - 1][3]
            out.append((a, lo, (_arc_value(stack[k - 1], a, p) - _arc_value((c, d), lo, p)) / (lo - a), 0.0, 0.0))
        if hi > lo:
            out.append((lo, hi, (_arc_value((c, d), lo, p) - _arc_value((c, d), hi, p)) / (hi - lo), c, d))
    los, his, values, cs, ds = np.array(out).T
    # as the corner hull takes its slopes: a NaN or -0.0 reads 0.0
    return EstimateFn(los, his, np.fmax(values, 0.0) + 0.0, np.column_stack((cs, ds)), p)
