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
    pts = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=float).reshape(1, -1, 2)
    us, ys, (n,) = lower_hulls(pts[..., 0], pts[..., 1], np.ones(pts.shape[:2], dtype=bool))
    if n < 2:
        raise ValueError(NO_HULL)
    return LowerHull(tuple(zip(us[0, :n].tolist(), ys[0, :n].tolist())))


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


NO_HULL = "need at least two points with distinct u"


def lower_hulls(us: np.ndarray, ys: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The monotone-chain lower hull of each row of points ``(us[k, j],
    ys[k, j])`` of two (n, w) arrays, of those where ``live[k, j]``.
    Returns ``(us, ys, counts)``: row ``k`` has ``counts[k]`` vertices
    ``(us[k, j], ys[k, j])``, padded to the block's width with copies of
    its last vertex.  A row of fewer than two distinct u has no hull and a
    count of 0, and leaves the other rows alone.

    The rows are sorted by one ``lexsort``, by u and then y, with the
    points that are not live last, and the mask with them; the first point
    of each u stays.  Each row then runs :func:`_chain` over plain float
    lists, and the vertices of all rows are gathered back into one padded
    block.
    """
    order = np.lexsort((ys, us, ~live), axis=-1)
    us, hs, live = (np.take_along_axis(a, order, -1) for a in (us, ys, live))
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
    return np.array(vu + [0.0])[at], np.ldexp(np.array(vy + [0.0])[at], -shift[:, None]), sizes


# elements of one (windows x pieces) block of an ordered sum; one matrix of
# every piece and window would raise the peak memory of a curve table by
# several MB
SUM_BLOCK = 2**14


class EstimateBlock:
    """Piecewise estimates over seeds, one a row, held as padded arrays:
    row ``k`` is ``values[k, i]`` on the seed interval ``(edges[k, i],
    edges[k, i + 1]]``, or, where ``arcs = (cs, ds)`` is given and
    ``d = ds[k, i]`` is negative, the negated slope ``p * |d| * (c +
    d*u)^(p-1)`` of the convex arc ``(c + d*u)^p`` (``p = exponent``, ``c =
    cs[k, i]``); there ``values[k, i]`` holds the arc's mean over the
    piece.  Each row is padded to the block's width with copies of its last
    edge (seed 1 for a hull): zero-width pieces of value 0 and ``d = 0``.

    Every read takes ``rows``, the row of each seed or window, broadcast
    against the seeds or windows, and returns an array of their shape.
    :meth:`value_at` finds each seed's piece by one ``searchsorted`` per
    run of equal rows and reads every value with one gather; the integrals
    are ordered sums (:meth:`_ordered_sums`).  The scalar API is row 0 of
    a one-row block (:func:`integrate_square`).  (A plain class: a
    dataclass adds about 1 ms to the import of every command.)"""

    def __init__(self, edges: np.ndarray, values: np.ndarray, arcs: tuple[np.ndarray, np.ndarray] | None = None,
                 exponent: float | None = None):
        if edges.shape[1] < 2:
            # rows without a piece: one of width 0 at their one edge, or at 1
            edges = np.repeat(edges[:, :1] if edges.shape[1] else np.ones((len(edges), 1)), 2, axis=1)
            values = np.zeros((len(edges), 1))
            arcs = None
        self.edges, self.values, self.arcs, self.exponent = edges, values, arcs, exponent

    def value_at(self, rows, us) -> np.ndarray:
        """The value of row ``rows[i]`` at seed ``us[i]``: that of the piece
        holding the seed, and 0 at or below the row's first edge and above
        its last."""
        rows, us = np.broadcast_arrays(np.asarray(rows, dtype=np.intp), np.asarray(us, dtype=float))
        shape, rows, us = us.shape, rows.ravel(), us.ravel()
        width = self.values.shape[1]
        at = np.empty(len(us), dtype=np.intp)
        starts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()]
        for a, b, k in zip(starts, starts[1:] + [len(us)], rows[starts].tolist() if len(us) else []):
            at[a:b] = np.searchsorted(self.edges[k, 1:], us[a:b], side="left")
        at = rows * width + np.minimum(at, width - 1)
        out = np.take(self.values, at)
        if self.arcs is not None:
            c, d = np.take(self.arcs[0], at), np.take(self.arcs[1], at)
            p = self.exponent
            out = np.where(d < 0.0, p * -d * np.maximum(c + d * us, 0.0) ** (p - 1.0), out)
        inside = (us > np.take(self.edges[:, 0], rows)) & (us <= np.take(self.edges[:, -1], rows))
        return np.where(inside, out, 0.0).reshape(shape)

    def integral(self, rows, lo=0.0, hi=1.0) -> np.ndarray:
        """The integral of row ``rows[i]`` over the window ``(lo[i], hi[i]]``."""
        p = self.exponent
        # on an arc the estimate integrates to the arc's drop
        return self._ordered_sums(rows, lo, hi, self.values, lambda s, d, r: np.maximum(s, 0.0) ** p)

    def square_integral(self, rows, lo=0.0, hi=1.0) -> np.ndarray:
        """The integral of the squared row ``rows[i]`` over ``(lo[i], hi[i]]``
        (see :func:`integrate_square`).  Each row's values are scaled as
        :func:`scaled_squares` scales them, by a shift of its own."""
        top = self.values.max(axis=1, initial=0.0)
        shift = np.where((2.0**500 < top) & (top < math.inf), np.frexp(top)[1] - 500, 0)
        values = np.ldexp(self.values, -shift[:, None])
        p = self.exponent

        def arc_drop(s, d, r):
            # scaled as the squares are
            k = 2.0 * p - 1.0
            return np.ldexp(p * p * -d / k * np.maximum(s, 0.0) ** k, -2 * shift[r, None])

        # a row with an infinite value is not shifted, and the square of a
        # large finite one beside it overflows to inf, as its integral
        # does; so does an arc's power past the largest float
        with np.errstate(over="ignore"):
            total = self._ordered_sums(rows, lo, hi, values * values, arc_drop)
            # two exact power-of-two steps, each below the largest float
            scale = np.ldexp(1.0, np.take(shift, np.broadcast_to(rows, total.shape)))
            return total * scale * scale

    def _ordered_sums(self, rows, lo, hi, values: np.ndarray, arc_drop) -> np.ndarray:
        """Sum of ``value * overlap`` over the pieces of row ``rows[i]`` for
        the window ``(lo[i], hi[i]]``, added piece by piece from the left,
        starting from +0.0, so that every entry has the bits of the scalar
        left-to-right sum: ``cumsum`` along the pieces adds strictly in order
        (``np.sum`` would add pairwise).  A piece that misses the window
        adds nothing, even where its value is infinite.  An arc piece adds
        ``arc_drop(s_a, d, r) - arc_drop(s_b, d, r)`` instead, with ``s = c
        + d*u`` at the ends ``a < b`` of the overlap and ``r`` the rows.
        The windows are taken ``SUM_BLOCK // width`` at a time, each with
        its row's pieces gathered."""
        rows, lo, hi = np.broadcast_arrays(np.asarray(rows, dtype=np.intp), np.asarray(lo, dtype=float),
                                           np.asarray(hi, dtype=float))
        shape, rows, lo, hi = rows.shape, rows.ravel(), lo.ravel()[:, None], hi.ravel()[:, None]
        total = np.empty(len(rows))
        step = max(1, SUM_BLOCK // values.shape[1])
        with np.errstate(invalid="ignore"):
            for a in range(0, len(rows), step):
                r = rows[a:a + step]
                edges = self.edges[r]
                t = np.maximum(edges[:, :-1], lo[a:a + step])
                b = np.minimum(edges[:, 1:], hi[a:a + step])
                w = b - t
                terms = np.where(w > 0.0, values[r] * w, 0.0)
                if self.arcs is not None:
                    c, d = self.arcs[0][r], self.arcs[1][r]
                    drop = arc_drop(c + d * t, d, r) - arc_drop(c + d * b, d, r)
                    terms = np.where((d < 0.0) & (w > 0.0), drop, terms)
                terms[:, 0] += 0.0
                total[a:a + step] = np.cumsum(terms, axis=1)[:, -1]
        return total.reshape(shape)


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


def integrate_square(e: EstimateBlock, lo=0.0, hi=1.0) -> np.ndarray:
    """Integral of the squared row 0 of ``e`` over ``(lo, hi]``, for a
    scalar or an array of windows: an array of their shape.

    Exact for the constant pieces, up to the rounding of the ordered sum
    (of squares scaled by :func:`scaled_squares`, scaled back at the end),
    and in closed form on an arc: ``p^2 |d| s^(2p-1) / (2p-1)`` taken
    between the ends of its window.  Any infinite piece value inside the
    window, or a true integral beyond the largest float, makes the result
    infinite.  Mass below the materialised support is not summed; the
    finite-variance verdict of :mod:`coordest.analysis` covers it.
    """
    return e.square_integral(0, lo, hi)


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
             anchor: float) -> list[tuple[float, float, float, float, float]]:
    """The pieces ``(lo, hi, value, c, d)`` of the negated slopes of the
    lower convex hull of a curve whose piece on ``(breakpoints[k-1],
    breakpoints[k]]`` is the convex arc ``max(c + d*u, 0)^p`` of
    ``pieces[k] = (c, d)``, ``p > 1``, from the curve at ``anchor`` to
    ``(1, 0)``.

    The hull follows each arc over a span (maybe empty) and bridges the
    gaps with common support lines (:func:`_bridge`).  A stack of the
    spans is kept as the monotone chain keeps points: an arc whose span
    the next bridge leaves at its start, no steeper than the bridge into
    it, goes.  At a breakpoint the curve may jump down; the arc's end there
    lies above the next arc's start, and no bridge rests on it.  The
    estimate is a constant on a bridge and ``p |d| s^(p-1)`` on a span;
    ``value`` is the piece's mean, before the clamp at 0 that
    :class:`EstimateBlock` rows take (``d`` is 0 on a bridge).
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
    # each piece, left to right: the bridge into a span, then the span; a
    # flat span's mean is 0
    out = []
    for k, (c, d, lo, hi, _) in enumerate(stack):
        if k and lo > stack[k - 1][3]:
            a = stack[k - 1][3]
            out.append((a, lo, (_arc_value(stack[k - 1], a, p) - _arc_value((c, d), lo, p)) / (lo - a), 0.0, 0.0))
        if hi > lo:
            out.append((lo, hi, (_arc_value((c, d), lo, p) - _arc_value((c, d), hi, p)) / (hi - lo), c, d))
    return out
