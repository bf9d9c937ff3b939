"""Lower convex hulls of planar point sets and piecewise integration.

The hull of a lower-bound curve is the central object of the analysis layer:
its negated derivative is the minimum-variance unbiased nonnegative estimate
for the underlying data vector, so hull slopes and their square integrals
drive both the optimal-variance baseline and the characterization checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
    """Monotone-chain lower hull.

    Duplicate u-coordinates keep their minimum value first; collinear interior
    points are dropped, so every input point lies on or above the returned
    chain.  Requires at least two distinct u values.  ``points`` may be an
    (n, 2) array.
    """
    pts = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=float).reshape(-1, 2)
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
    # the chain as two float lists, its last two points also held as
    # o = (ou, oy) and a = (au, ay); a goes while o -> a -> (u, y) does not
    # turn counter-clockwise, i.e. while cross(o, a, (u, y)) <= 0
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


@dataclass(frozen=True, eq=False)
class EstimateFn:
    """Piecewise-constant estimator values over seeds: ``values[i]`` on the
    seed interval ``(los[i], his[i]]``, held as float arrays.
    :meth:`value_at`, :meth:`integral` and :func:`integrate_square` take a
    scalar or an array of seeds or cutoffs and return a float or an array to
    match."""

    los: np.ndarray
    his: np.ndarray
    values: np.ndarray

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
            out = np.where((us > self.support_left) & (us <= self.his[-1]), self.values[idx], 0.0)
        return float(out) if out.ndim == 0 else out

    def integral(self, lo=0.0, hi=1.0):
        """Integral of the estimate over ``(lo, hi]``."""
        return _ordered_sum(self, self.values, lo, hi)


# elements of one (pieces x windows) block of :func:`_ordered_sum`; one
# matrix of every piece and window would raise the peak memory of a curve
# table by several MB
SUM_BLOCK = 2**14


def _ordered_sum(e: EstimateFn, values: np.ndarray, lo, hi):
    """Sum of ``value * overlap`` over the pieces of ``e`` for each window
    ``(lo, hi]`` (broadcast), added piece by piece from the left, starting
    from +0.0, so that every entry has the bits of the scalar left-to-right
    sum.  Blocks of pieces are summed with ``cumsum`` down the piece axis,
    which adds strictly in order (``np.sum`` would add pairwise).  A piece
    that misses the window adds nothing, even where its value is
    infinite."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    total = np.zeros(np.broadcast(lo, hi).shape)
    step = max(1, SUM_BLOCK // max(total.size, 1))
    # pieces down the first axis, windows along the others
    col = (-1,) + (1,) * total.ndim
    los, his, values = e.los.reshape(col), e.his.reshape(col), values.reshape(col)
    with np.errstate(invalid="ignore"):
        for a in range(0, len(values), step):
            w = np.minimum(his[a : a + step], hi) - np.maximum(los[a : a + step], lo)
            terms = np.where(w > 0.0, values[a : a + step] * w, 0.0)
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
    (of squares scaled by :func:`scaled_squares`, scaled back at the end).
    Any infinite piece value inside the window, or a true integral beyond
    the largest float, makes the result infinite.  Divergence below the
    materialised support is the business of the refinement checks in
    :mod:`coordest.analysis`, not of this sum.
    """
    squares, shift = scaled_squares(e.values)
    total = _ordered_sum(e, squares, lo, hi)
    if shift:
        # two exact power-of-two steps, each below the largest float
        with np.errstate(over="ignore"):
            total = total * 2.0**shift * 2.0**shift
    return total
