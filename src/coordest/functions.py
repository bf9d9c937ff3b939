"""Item functions and their tightest lower bounds over sampling outcomes.

An item function maps the value tuple of one item across instances to a
nonnegative number.  Given an outcome observed at seed ``rho``, the
information available at any seed ``x >= rho`` confines each coordinate to an
interval: a point for entries still above threshold at ``x``, and
``[domain_low, tau_i(x))`` otherwise.  The lower bound of the function at
``x`` is its infimum over that box.  Because the built-in functions are
continuous, the infimum over the half-open box equals the minimum over its
closure, which each built-in admits in closed form:

* ``max``            -> ``max_i l_i``
* ``min``            -> ``min_i l_i``
* ``or``             -> 1 if some ``l_i > 0`` else 0
* ``rg`` (range^p)   -> ``max(0, max_i l_i - min_i h_i)^p``
* ``one_sided_rg``   -> ``max(0, l_hi - h_lo)^p``

where ``[l_i, h_i]`` is coordinate ``i``'s interval.  The range form follows
from the fact that the spread of any point in a box is at least
``max_i l_i - min_i h_i`` and that value is attained by clamping every free
coordinate onto the same level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .model import Domain, Outcome, TauScheme, outcome_columns

MAX = "max"
MIN = "min"
RG = "rg"
ONE_SIDED_RG = "one_sided_rg"
OR = "or"

_KINDS = (MAX, MIN, RG, ONE_SIDED_RG, OR)


@dataclass(frozen=True)
class ItemFunction:
    """A nonnegative function of one item's value tuple.

    ``p`` is the exponent for the range kinds; ``direction`` is the ordered
    (hi, lo) coordinate pair for the one-sided range.
    """

    kind: str
    arity: int
    p: float | None = None
    direction: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown item function kind {self.kind!r}")
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        if self.kind in (RG, ONE_SIDED_RG):
            if self.p is None or not (math.isfinite(self.p) and self.p > 0):
                raise ValueError(f"{self.kind} requires a positive finite exponent p")
        if self.kind == ONE_SIDED_RG:
            if self.direction is None:
                raise ValueError("one_sided_rg requires a (hi, lo) direction")
            hi, lo = self.direction
            if hi == lo or not (0 <= hi < self.arity and 0 <= lo < self.arity):
                raise ValueError(f"bad direction {self.direction} for arity {self.arity}")

    def describe(self) -> str:
        if self.kind == RG:
            return f"rg:p={self.p:g}"
        if self.kind == ONE_SIDED_RG:
            hi, lo = self.direction
            return f"one_sided_rg:p={self.p:g},hi={hi + 1},lo={lo + 1}"
        return self.kind


def max_fn(arity: int) -> ItemFunction:
    return ItemFunction(MAX, arity)


def min_fn(arity: int) -> ItemFunction:
    return ItemFunction(MIN, arity)


def or_fn(arity: int) -> ItemFunction:
    return ItemFunction(OR, arity)


def rg_fn(p: float, arity: int) -> ItemFunction:
    return ItemFunction(RG, arity, p=float(p))


def one_sided_rg_fn(p: float, hi: int, lo: int, arity: int) -> ItemFunction:
    return ItemFunction(ONE_SIDED_RG, arity, p=float(p), direction=(hi, lo))


# the parameters each kind of :func:`parse_function` takes
_PARAMS = {MAX: (), MIN: (), OR: (), RG: ("p",), ONE_SIDED_RG: ("p", "hi", "lo")}


def parse_function(spec: str, arity: int) -> ItemFunction:
    """Parse a CLI function spec such as ``max`` or ``rg:p=2`` or
    ``one_sided_rg:p=2,hi=1,lo=2`` (hi/lo are 1-based instance numbers).
    An unknown, misplaced or repeated parameter and an exponent that is
    not a finite number are errors."""
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    kind = ONE_SIDED_RG if name == "osrg" else name
    if kind not in _PARAMS:
        raise ValueError(f"unknown function spec {spec!r}")
    args = {}
    for part in argstr.split(",") if argstr else ():
        k, _, v = part.partition("=")
        k = k.strip()
        if k not in _PARAMS[kind]:
            raise ValueError(f"{name} takes {', '.join(_PARAMS[kind]) or 'no parameters'}, not {k!r}")
        if k in args:
            raise ValueError(f"parameter {k!r} given twice")
        args[k] = v.strip()
    if not _PARAMS[kind]:
        return ItemFunction(kind, arity)
    try:
        p = float(args.get("p", 1))
    except ValueError:
        p = math.nan
    if not math.isfinite(p):
        raise ValueError(f"exponent p must be a finite number, not {args['p']!r}")
    if kind == RG:
        return rg_fn(p, arity)
    return one_sided_rg_fn(p, int(args.get("hi", 1)) - 1, int(args.get("lo", 2)) - 1, arity)


def evaluate(f: ItemFunction, v: Sequence[float]) -> float:
    """Exact function value at a data vector: one row of
    :func:`evaluate_many`, so that f(v) and the closed-form lower bounds
    share one formula and agree to the last bit where they coincide."""
    if len(v) != f.arity:
        raise ValueError(f"vector arity {len(v)} != function arity {f.arity}")
    return float(evaluate_many(f, np.asarray(v, dtype=float).reshape(1, -1))[0])


def evaluate_many(f: ItemFunction, z: np.ndarray) -> np.ndarray:
    """Vectorised :func:`evaluate` over the rows of an (m, arity) array: the
    closed-form lower bound on the point box of each row."""
    z = np.asarray(z, dtype=float).T
    return _lb_from_bounds(f, z, z)


# ---------------------------------------------------------------------------
# interval boxes and closed-form infima


def _lb_from_bounds(f: ItemFunction, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Closed-form infimum per column of stacked (arity, n) interval bounds."""
    if f.kind == MAX:
        return lows.max(axis=0)
    if f.kind == MIN:
        return lows.min(axis=0)
    if f.kind == OR:
        return (lows > 0).any(axis=0).astype(float)
    # a power past the largest float is inf, which the analyses reject and
    # JSON output cannot hold
    with np.errstate(over="ignore"):
        if f.kind == RG:
            return np.clip(lows.max(axis=0) - highs.min(axis=0), 0.0, None) ** f.p
        hi, lo = f.direction
        return np.clip(lows[hi] - highs[lo], 0.0, None) ** f.p


def _box_bounds(values: np.ndarray, revealed, xs: np.ndarray, scheme: TauScheme) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate intervals at seeds ``xs`` of outcomes given as (r, n)
    columns of values (the revealed value, else the bound) and revealed
    flags, broadcast against ``xs``.

    A revealed entry is a point while it stays at or above its threshold and
    reverts to unknown, ``[domain_low, tau_i(x))``, at larger seeds where it
    drops below; an unrevealed entry is unknown throughout.  A data vector
    is a column with every entry revealed: the curve a sweeping analysis
    sees at every seed.
    """
    taus = scheme.thresholds(xs)
    known = revealed & (values >= taus)
    lows = np.where(known, values, np.array(scheme.domain.lows, dtype=float)[:, None])
    highs = np.where(known, values, taus)
    return lows, highs


def lower_bounds(f: ItemFunction, values: np.ndarray, revealed, xs: np.ndarray, scheme: TauScheme) -> np.ndarray:
    """Lower bound of ``f`` per column of :func:`_box_bounds`: each outcome
    (or data vector) at its seed in ``xs``."""
    return _lb_from_bounds(f, *_box_bounds(values, revealed, xs, scheme))


def lower_bound(f: ItemFunction, outcome: Outcome, x: float) -> float:
    """Infimum of ``f`` over every data vector consistent with the outcome's
    information at seed ``x``.

    Only defined for ``x`` at or above the observed seed: smaller seeds would
    have revealed strictly more than the outcome records.
    """
    if x < outcome.seed:
        raise ValueError(f"x={x} below outcome seed {outcome.seed}")
    if x > 1.0:
        raise ValueError("seeds beyond 1 carry no information; use domain_infimum")
    _, revealed, values = outcome_columns([outcome])
    xs = np.array([x], dtype=float)
    return float(lower_bounds(f, values.T, revealed.T, xs, outcome.scheme)[0])


def lower_bound_from_vector(f: ItemFunction, v: Sequence[float], scheme: TauScheme, x):
    """Lower-bound value(s) at seed(s) ``x`` for the outcome a given data
    vector would produce; accepts a scalar or an array of seeds."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = lower_bounds(f, checked_vectors(f, [v], scheme).T, True, xs, scheme)
    return float(out[0]) if scalar else out


def domain_infimum(f: ItemFunction, domain: Domain) -> float:
    """Infimum of ``f`` over the whole declared domain (an outcome that
    reveals nothing constrains the data no further than this)."""
    lows = np.array(domain.lows, dtype=float).reshape(-1, 1)
    highs = np.full_like(lows, np.inf)
    return float(_lb_from_bounds(f, lows, highs)[0])


# ---------------------------------------------------------------------------
# piecewise representation of the lower bound as a function of the seed


@dataclass(frozen=True)
class LowerBoundFn:
    """Piecewise view of ``x -> lower bound at x``.

    ``breakpoints`` ascend and end at 1; piece ``k`` covers
    ``(breakpoints[k-1], breakpoints[k]]`` (the first piece starts at
    ``domain_left``).  The function is non-increasing and left-continuous;
    ``value_fn`` maps an array of seeds to its values there.

    ``exponent`` is the ``p`` of pieces of the form ``(c + d*u)^p`` (the
    range kinds), or None when every piece is a constant (``max``, ``min``
    and ``or``).  The default, ``math.inf``, marks a curve of no known form,
    such as one built by hand.  ``pieces`` holds the ``(c, d)`` of each
    piece, with ``c >= 0`` and ``d <= 0``: its value is
    ``max(c + d*u, 0)^p``, or ``c`` when ``exponent`` is None.  It is None
    for a curve of no known form and for one that starts past seed 0.
    """

    breakpoints: tuple[float, ...]
    domain_left: float
    value_fn: Callable[[np.ndarray], np.ndarray]
    exponent: float | None = math.inf
    pieces: tuple[tuple[float, float], ...] | None = None

    def value(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.asarray(self.value_fn(xs), dtype=float)
        return float(out[0]) if scalar else out

    @property
    def head(self) -> float:
        """The smallest positive breakpoint: below it the bound follows
        the single closed form of ``head_piece`` all the way toward seed 0."""
        return next((b for b in self.breakpoints if b > 0.0), 1.0)

    @property
    def head_piece(self) -> tuple[float, float] | None:
        """The ``(c, d)`` of the piece on ``(0, head]``."""
        return None if self.pieces is None else self.pieces[0]


@lru_cache(maxsize=16)
def _scheme_points(scheme: TauScheme) -> np.ndarray:
    """The breakpoints every curve under ``scheme`` shares, ascending in
    (0, 1): the joints of its maps, the seeds where two maps meet and the
    crossings of the domain lows.  Read-only, as equal schemes share it."""
    pts: set[float] = set()
    lows = np.array(scheme.domain.lows, dtype=float)
    for m in scheme.maps:
        pts.update(m.joints())
        pts.update(m.crossing_seeds(lows)[1].tolist())
    for a, b in itertools.combinations(scheme.maps, 2):
        # compare on merged joints, between which both maps are linear
        us = np.array(sorted({0.0, 1.0, *a.joints(), *b.joints()}))
        gaps = (a.value(us) - b.value(us)).tolist()
        for ua, ub, fa, fb in zip(us.tolist(), us[1:].tolist(), gaps, gaps[1:]):
            if fa == 0.0:
                pts.add(ua)
            if fa * fb < 0.0:
                t = fa / (fa - fb)
                pts.add(ua + t * (ub - ua))
    out = np.array(sorted(p for p in pts if 0.0 < p < 1.0), dtype=float)
    out.flags.writeable = False
    return out


def _breakpoints(
    scheme: TauScheme, levels: np.ndarray, owners: np.ndarray, lefts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoints of each of ``len(lefts)`` curves: the seeds past its
    ``lefts[k]`` where a map crosses one of its levels (``levels[i]`` is
    a level of curve ``owners[i]``) or a domain low, together with the
    :func:`_scheme_points`, ascending and ending at 1: the rows of an
    array padded with 1.0, and the mask of the entries that are not padding.

    Each map crosses every level of every curve in one pass; the seeds of
    all curves are then sorted and laid into their rows in one pass more.
    """
    n = len(lefts)
    pts = _scheme_points(scheme)
    whos, seeds = [np.repeat(np.arange(n), len(pts))], [np.tile(pts, n)]
    for m in scheme.maps:
        which, us = m.crossing_seeds(levels)
        whos.append(owners[which])
        seeds.append(us)
    who, us = np.concatenate(whos), np.concatenate(seeds)
    keep = us > lefts[who]
    who = np.concatenate((who[keep], np.arange(n)))
    us = np.concatenate((us[keep], np.ones(n)))
    order = np.lexsort((us, who))
    who, us = who[order], us[order]
    new = np.ones(len(us), dtype=bool)
    new[1:] = (who[1:] != who[:-1]) | (us[1:] != us[:-1])
    counts = np.bincount(who[new], minlength=n)
    real = np.arange(counts.max(initial=1)) < counts[:, None]
    bps = np.ones(real.shape)
    bps[real] = us[new]
    return bps, real


def _pieces(f: ItemFunction, scheme: TauScheme, rows: np.ndarray, bps: np.ndarray,
            real: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(c, d)`` of every piece of the curve of each data vector
    ``rows[k]`` with the breakpoints ``bps[k]`` where ``real[k]``, as two
    arrays padded with 0, from one box pass at the right ends of all pieces.

    No entry is revealed or hidden inside a piece, so its box is the box at
    its right end: constant lows, and highs that are either a revealed
    value or a segment of a map, ``a_i + slope_i * u``.  Two highs cross
    only at a breakpoint, so one of them is the least on the whole piece:
    the least at the piece's midpoint (at seed 0 for the first piece), the
    flattest among ties, the first among those.
    """
    his = bps[real]
    los = np.concatenate((np.zeros((len(bps), 1)), bps[:, :-1]), axis=1)[real]
    v = rows.T[:, np.nonzero(real)[0]]
    lows, highs = _box_bounds(v, True, his, scheme)
    if f.p is None:
        c, d = _lb_from_bounds(f, lows, highs), np.zeros(len(his))
    else:
        mid = 0.5 * (los + his)
        lines = [m.lines(mid) for m in scheme.maps]
        known = highs == v
        starts = np.where(known, v, np.array([a for a, _ in lines]))
        slopes = np.where(known, 0.0, np.array([s for _, s in lines]))
        if f.kind == RG:
            top = lows.max(axis=0)
            at = starts + slopes * np.where(los == 0.0, 0.0, mid)
            least = at == at.min(axis=0)
            flat = np.where(least, slopes, np.inf)
            low = np.argmax(least & (flat == flat.min(axis=0)), axis=0)
        else:
            hi, lo = f.direction
            top, low = lows[hi], np.full(len(his), lo)
        cols = np.arange(len(his))
        c = top - starts[low, cols]
        c = np.where(c < 0.0, 0.0, c)
        d = -slopes[low, cols]
    cs, ds = np.zeros(bps.shape), np.zeros(bps.shape)
    cs[real], ds[real] = c, d
    return cs, ds


class LowerBoundFns:
    """The lower-bound curves of a block of data vectors as padded rows:
    curve ``k`` has the breakpoints ``breakpoints[k]`` where ``real[k]``,
    padded with 1.0, and the ``(c, d)`` of its pieces (as in
    ``LowerBoundFn.pieces``) in ``cs[k]`` and ``ds[k]``, padded with 0.
    ``exponent`` is the one ``p`` of the block, ``heads`` are the first
    breakpoints, and ``read(who, us)`` is the value of curve ``who[i]`` at
    seed ``us[i]``, for flat arrays.  (A plain class: a dataclass adds
    about 1 ms to the import of every command.)"""

    def __init__(self, breakpoints: np.ndarray, real: np.ndarray, cs: np.ndarray, ds: np.ndarray, exponent, read):
        self.breakpoints, self.real, self.cs, self.ds = breakpoints, real, cs, ds
        self.exponent, self.read, self.heads = exponent, read, breakpoints[:, 0]

    def __len__(self) -> int:
        return len(self.breakpoints)

    def take(self, keep) -> LowerBoundFns:
        """The block of the curves ``keep`` selects (a mask, indices or a
        slice), read through this block's ``read``."""
        rows = np.arange(len(self))[keep]
        return LowerBoundFns(self.breakpoints[keep], self.real[keep], self.cs[keep], self.ds[keep], self.exponent,
                             lambda who, us: self.read(rows[who], us))


def checked_vectors(f: ItemFunction, rows, scheme: TauScheme) -> np.ndarray:
    """Data vectors as the rows of an (n, r) float array, checked."""
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != scheme.r:
        raise ValueError("vector arity does not match scheme")
    if rows.shape[1] != f.arity:
        raise ValueError(f"vector arity {rows.shape[1]} != function arity {f.arity}")
    return rows


def lb_functions(f: ItemFunction, rows, scheme: TauScheme) -> LowerBoundFns:
    """The full lower-bound curve, valid on all of (0, 1], of each data
    vector in the rows of an (n, r) array, as one block.

    Breakpoints are the seeds where a value (or a domain low) crosses a
    threshold map, the points where the closed forms switch branch,
    together with the joints and crossings of piecewise-linear maps
    (:func:`_breakpoints`).  Between breakpoints every box bound is a
    constant or one linear piece of a map, and the range forms reach 0 only
    at a crossing of a level.  So the pieces of ``max``, ``min`` and ``or``
    are constant, and those of the range kinds are a power ``p`` of a
    linear function: concave when ``p <= 1``, convex when ``p > 1``.
    The block also carries the closed form of every piece
    (:func:`_pieces`), and reads its curves by :func:`lower_bounds`.
    """
    rows = checked_vectors(f, rows, scheme)
    n = rows.shape[0]
    bps, real = _breakpoints(scheme, rows.ravel(), np.repeat(np.arange(n), scheme.r), np.zeros(n))
    cs, ds = _pieces(f, scheme, rows, bps, real)
    return LowerBoundFns(bps, real, cs, ds, f.p, lambda who, us: lower_bounds(f, rows.T[:, who], True, us, scheme))


def lb_function(f: ItemFunction, v: Sequence[float], scheme: TauScheme) -> LowerBoundFn:
    """Full lower-bound curve for a data vector, valid on all of (0, 1]: the
    one row of :func:`lb_functions`."""
    curves = lb_functions(f, [v], scheme)
    return LowerBoundFn(tuple(curves.breakpoints[0].tolist()), 0.0, partial(curves.read, [0]), f.p,
                        tuple(zip(curves.cs[0].tolist(), curves.ds[0].tolist())))

