"""Verification of the estimability characterization and variance
competitiveness.

For a data vector ``v`` and function ``f`` the full lower-bound curve
``lb(u)`` decides which estimator properties are attainable:

* unbiased + nonnegative      <=>  lb(u) -> f(v) as u -> 0
* ... + finite variance       <=>  the squared hull slopes are integrable
* ... + bounded estimates     <=>  (f(v) - lb(u)) / u stays bounded

Every curve the package builds follows one closed form below its head (its
first breakpoint): the constant of ``max``, ``min`` and ``or``, or
``(c + d*u)^p`` for the range kinds (``LowerBoundFn.head_piece``).  The
three verdicts are read from that form exactly: the limit at 0+, the slope
at 0+, and a bound on every slope of the hull.

Competitiveness compares the squared-estimate integral of the dyadic
estimator against the hull optimum.  The certified bound for the dyadic
construction is 84 (= 28 * 3: each dyadic block's square is at most 28 times
the optimum's square mass on a 3-fold cover of nearby seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimators import DEPTH, GRID_N, dyadic_pieces, hull_estimates, hull_seeds, j_piece_tables
from .functions import ItemFunction, LowerBoundFn, curve_values, evaluate, evaluate_many, lb_function, lb_functions
from .hull import integrate_square, scaled_squares
from .model import TauScheme

RATIO_BOUND = 84.0

# deepest dyadic block competitiveness_ratio sums (data down to about
# 1e-316): 2^-(MAX_DEPTH + 1) is the smallest subnormal float
MAX_DEPTH = 1073

# evenly spaced curve_table rows inside each piece of a curve that is
# neither constant nor linear between its breakpoints
CURVE_SEEDS = 8

# Data vectors whose curves, dyadic tables and hull inputs are built in one
# pass of a few array calls: memory stays flat in the vector count.  The
# hull grid of rg:p=2 is the largest input: on the benchmark's analysis
# input, characterize rg:p=2 --curves peaks about 0.5 MB above one vector
# at a time with blocks of 16, and about 1.7 MB above it with blocks of 32.
CURVE_BLOCK = 16


class AnalysisError(RuntimeError):
    """An internal inconsistency that should be impossible for correct
    lower bounds (e.g. zero optimal mass under a nonzero dyadic mass)."""


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    value: float

    def __bool__(self) -> bool:
        return self.ok


def _curve_checks(lbf: LowerBoundFn, f_value: float, v: Sequence[float], scheme: TauScheme) -> tuple:
    """The estimable, bounded and finite-variance verdicts of the curve
    ``lbf`` of data ``v``, from its head piece.

    * estimable: the gap between ``f_value`` and the head piece at seed 0.
      Every map starts at or below its domain low, so the gap is 0 unless
      some entry is revealed at no positive float seed, which is an error.
    * bounded: the head's slope at 0+, ``p * c^(p-1) * |d|`` (0 for a
      constant head and for ``f_value = 0``).
    * finite variance: a bound on every hull slope.  The hull starts at
      ``(0, f_value)`` and is convex, so its steepest slope is the largest
      ``(f_value - lb(u)) / u``: at most the slope at 0+ on a convex head,
      at most ``f_value / head`` on a concave head and past it.  Its square
      bounds the square integral; the verdict is that it is finite, which
      it is exactly when the slope at 0+ is (the float quotient overflows
      for heads below ``f_value / 1.8e308``, the real one does not).
    """
    c, d = lbf.head_piece
    p = lbf.exponent
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


def _unrevealed_error(v: Sequence[float], scheme: TauScheme, f_value: float, at_zero: float) -> ValueError:
    """The error of data whose curve tends to ``at_zero``, not ``f_value``,
    toward seed 0: an entry above its domain low that is below its
    threshold at the smallest positive seed is revealed at no seed."""
    taus = scheme.thresholds(np.array([math.ulp(0.0)]))[:, 0].tolist()
    where = next((f"instance {i + 1} holds {x!r}, which no positive float seed reveals "
                  f"(its threshold at the smallest seed is {t!r}); "
                  for i, (x, lo, t) in enumerate(zip(v, scheme.domain.lows, taus)) if lo < x < t), "")
    return ValueError(f"{where}the lower bound tends to {at_zero!r} toward seed 0, not to f(v) = {f_value!r}")


def check_estimable(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> CheckResult:
    return _curve_checks(lb_function(f, v, scheme), evaluate(f, v), v, scheme)[0]


def check_bounded(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> CheckResult:
    return _curve_checks(lb_function(f, v, scheme), evaluate(f, v), v, scheme)[1]


def check_finite_variance(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> CheckResult:
    return _curve_checks(lb_function(f, v, scheme), evaluate(f, v), v, scheme)[2]


def implication_chain_ok(bounded: bool, finite_variance: bool, estimable: bool) -> bool:
    """bounded => finite variance => estimable."""
    return (not bounded or finite_variance) and (not finite_variance or estimable)


# ---------------------------------------------------------------------------
# variance and competitiveness


@dataclass
class AnalysisReport:
    """Per-(data, function, scheme) analysis record."""

    square_integral_j: float
    square_integral_opt: float
    ratio: float
    variance_j: float
    variance_opt: float
    estimable: bool
    finite_variance: bool
    bounded: bool
    diagnostics: dict = field(default_factory=dict)

    @property
    def competitive_ok(self) -> bool:
        return self.ratio <= RATIO_BOUND

    @property
    def chain_ok(self) -> bool:
        return implication_chain_ok(self.bounded, self.finite_variance, self.estimable)

    def to_dict(self) -> dict:
        return {**vars(self), "diagnostics": dict(self.diagnostics)}


def clamped_variance(second_moment: float, f_value: float) -> float:
    """Variance of an unbiased estimator from its square integral: the
    second moment minus ``f_value^2``, with a rounding deficit of at most
    1e-9 clamped to 0."""
    var = second_moment - f_value * f_value
    return 0.0 if -1e-9 <= var < 0.0 else var


def curve_blocks(rows, f: ItemFunction, scheme: TauScheme):
    """Each block of up to ``CURVE_BLOCK`` data vectors of the (n, r) array
    ``rows``, in order, with their values under ``f`` (floats) and their
    lower-bound curves: one :func:`evaluate_many` and one
    :func:`lb_functions` call per block."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[1] != f.arity:
        raise ValueError(f"vector arity {rows.shape[1]} != function arity {f.arity}")
    for start in range(0, rows.shape[0], CURVE_BLOCK):
        block = rows[start:start + CURVE_BLOCK]
        yield block, evaluate_many(f, block).tolist(), lb_functions(f, block, scheme)


def _one_row(v: Sequence[float]) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(1, -1)


def competitiveness_ratio(
    v: Sequence[float], f: ItemFunction, scheme: TauScheme, grid_n: int = GRID_N, depth: int = DEPTH
) -> AnalysisReport:
    """Squared-mass ratio of the dyadic estimator to the hull optimum: one
    row of :func:`competitiveness_reports`.

    The dyadic side is summed to ``depth`` and topped with a certified tail
    bound (each deep block's value is at most 16x the boundedness slope, so
    the unsummed mass is at most ``256 * slope^2 * 2^-depth``); the optimal
    side is the truncated hull integral, a slight underestimate.  The
    reported ratio is therefore conservative.
    """
    return next(competitiveness_reports(_one_row(v), f, scheme, grid_n, depth))


def competitiveness_reports(rows, f: ItemFunction, scheme: TauScheme, grid_n: int = GRID_N, depth: int = DEPTH):
    """The :func:`competitiveness_ratio` report of each data vector in the
    rows of an (n, r) array, in order.

    Each block of :func:`curve_blocks` also takes one
    :func:`j_piece_tables` call, at its deepest dyadic depth, and one
    :func:`curve_values` call for the hull inputs and the tail seeds of all
    its vectors.  A vector's verdicts, hull and sums are made when its
    report is taken, so the error of a bad vector comes after the reports
    before it.
    """
    for block, fvs, lbfs in curve_blocks(rows, f, scheme):
        # keep summing dyadic blocks well past the curve's smallest
        # breakpoint, otherwise the worst-case tail bound dwarfs the actual
        # deep mass for data revealed only at tiny seeds
        depths = [max(depth, min(int(math.ceil(-math.log2(lbf.head))) + 20, MAX_DEPTH)) for lbf in lbfs]
        tables = j_piece_tables(block, f, scheme, max(depths))
        hulls = [hull_seeds(lbf, grid_n) if fv != 0.0 else (None, np.empty(0)) for lbf, fv in zip(lbfs, fvs)]
        # the last seed of each vector is its tail seed
        seeds = [np.append(at, 2.0 ** (-d + 2)) for (_, at), d in zip(hulls, depths)]
        values = curve_values(f, block, seeds, scheme)
        for k, v in enumerate(block.tolist()):
            yield _report(lbfs[k], fvs[k], v, scheme, grid_n, depth, depths[k], tables[k], hulls[k][0], values[k])


def _report(lbf, fv, v, scheme, grid_n, depth, deep, table, xs, values) -> AnalysisReport:
    """The report of data ``v`` from its curve ``lbf`` and ``f`` value
    ``fv``: the dyadic values ``table`` down to depth ``deep`` at least,
    and the curve at the hull inputs ``xs`` but the last and at the tail
    seed (``values``)."""
    est_check, bd_check, fv_check = _curve_checks(lbf, fv, v, scheme)
    diagnostics: dict = {
        "f_value": fv,
        "estimable_gap": est_check.value,
        "bounded_slope": bd_check.value,
        "depth": depth,
        "grid_n": grid_n,
    }
    if fv == 0.0:
        # the zero function on zero-valued data: both estimators vanish
        return AnalysisReport(
            square_integral_j=0.0, square_integral_opt=0.0, ratio=1.0, variance_j=0.0, variance_opt=0.0,
            estimable=est_check.ok, finite_variance=fv_check.ok, bounded=bd_check.ok, diagnostics=diagnostics,
        )
    depth = deep
    diagnostics["depth"] = depth
    widths = 2.0 ** -(np.arange(depth + 1, dtype=float) + 1.0)
    squares, shift = scaled_squares(table[:depth + 1])
    sq_j = float(np.sum(widths * squares)) * 2.0**shift * 2.0**shift
    if bd_check.ok:
        # the larger of the slope at 0+ and the chord to the last summed
        # block: on one power piece, the sup of (f(v) - lb(u)) / u there
        u_tail = 2.0 ** (-depth + 2)
        slope = (fv - float(values[-1])) / u_tail
        slope = max(slope, bd_check.value)
        tail = 256.0 * slope * slope * 2.0**-depth
    else:
        tail = None  # no certified bound; written as JSON null
    diagnostics["j_tail_bound"] = tail
    sq_j_total = sq_j + (tail or 0.0)

    sq_opt = integrate_square(hull_estimates(xs, values[:-1]))
    if sq_opt <= 0.0:
        if sq_j_total > 0.0:
            raise AnalysisError(
                "optimal square integral is 0 while the dyadic integral is "
                f"{sq_j_total}; the lower-bound curve is inconsistent"
            )
        ratio = 1.0
    else:
        ratio = sq_j_total / sq_opt
    return AnalysisReport(
        square_integral_j=sq_j_total,
        square_integral_opt=sq_opt,
        ratio=ratio,
        variance_j=clamped_variance(sq_j_total, fv),
        variance_opt=clamped_variance(sq_opt, fv),
        estimable=est_check.ok,
        finite_variance=fv_check.ok,
        bounded=bd_check.ok,
        diagnostics=diagnostics,
    )


def curve_table(
    v: Sequence[float], f: ItemFunction, scheme: TauScheme, grid_n: int = GRID_N, depth: int = DEPTH
) -> list[tuple[float, float, float, float, float]]:
    """Plot-ready rows ``(u, lower_bound, hull, dyadic, optimal)`` at every
    breakpoint and one float right of it (a jump shows as two adjacent
    rows), at the ends of every hull and dyadic piece, and at
    ``CURVE_SEEDS`` seeds inside each piece of a curve that is neither
    constant nor linear there.  Between adjacent rows the dyadic and
    optimal columns and the lower bound of ``max``, ``min`` and ``or`` are
    constant, and the hull column and the lower bound of the ``p = 1``
    range kinds are linear, so the table loses nothing of them.  One row of
    :func:`curve_columns`.

    The hull column is the cumulative optimal estimate (the integral of the
    optimal column from u to 1).  It sits on or below the lower bound at the
    seeds the hull was built from (:func:`v_optimal_estimates`: the curve's
    corners, and for ``rg`` and one-sided ``rg`` with ``p > 1`` its own
    grid).  A curve with concave pieces lies above its corners' hull
    everywhere, so for every other function the hull column stays on or
    below the lower bound up to rounding.  Between the grid seeds of a
    ``p > 1`` curve the hull is linear while the curve is convex, so at the
    interior seeds of this table the hull column can exceed the lower bound
    (on the 120 vectors of the benchmark's seed-401 ``analysis`` input under
    ``rg:p=2``, by up to 4.1e-3 * f(v)).
    """
    row = _one_row(v)
    columns = next(curve_columns(row, lb_functions(f, row, scheme), f, scheme, grid_n, depth))
    return list(zip(*(c.tolist() for c in columns)))


def curve_columns(
    rows: np.ndarray, lbfs: Sequence[LowerBoundFn], f: ItemFunction, scheme: TauScheme,
    grid_n: int = GRID_N, depth: int = DEPTH,
):
    """The five columns of :func:`curve_table` of each data vector
    ``rows[k]`` with curve ``lbfs[k]``, in order; every seed lies in
    (0, 1].

    The block takes one :func:`j_piece_tables` call and one
    :func:`curve_values` call.  The curve is read at every seed a vector's
    rows or hull can take: its hull inputs, its breakpoints, the dyadic
    piece ends and the interior seeds.  A vector's hull, the
    ``v_optimal_estimates(lbf, grid_n)`` of its curve, is built when its
    columns are taken, and its rows are then looked up among those seeds.
    """
    j_depth = min(depth, 40)
    tables = j_piece_tables(rows, f, scheme, j_depth)
    j_ends = np.ldexp(1.0, np.arange(-j_depth - 1, 1))
    hulls = [hull_seeds(lbf, grid_n) for lbf in lbfs]
    inner = [_interior_seeds(lbf, xs[0]) for lbf, (xs, _) in zip(lbfs, hulls)]
    seeds = [np.unique(np.concatenate((at, lbf.breakpoints, j_ends, us)))
             for lbf, (_, at), us in zip(lbfs, hulls, inner)]
    values = curve_values(f, rows, seeds, scheme)
    for lbf, (xs, at), table, us, known, lb in zip(lbfs, hulls, tables, inner, seeds, values):
        opt = hull_estimates(xs, lb[np.searchsorted(known, at)])
        j_fn = dyadic_pieces(table)
        bps = np.array(lbf.breakpoints)
        after = np.nextafter(bps[bps < 1.0], np.inf)
        us = np.unique(np.concatenate((bps, after, opt.los, opt.his, j_fn.los, j_fn.his, us)))
        yield us, lb[np.searchsorted(known, us)], opt.integral(lo=us), j_fn.value_at(us), opt.value_at(us)


def _interior_seeds(lbf: LowerBoundFn, anchor: float) -> np.ndarray:
    """``CURVE_SEEDS`` evenly spaced seeds inside each piece of a curve
    that is neither constant nor linear there, from the hull's ``anchor``
    (its first vertex) through the breakpoints."""
    if lbf.exponent in (None, 1.0):
        return np.empty(0)
    edges = np.concatenate(([anchor], lbf.breakpoints))
    t = np.arange(1, CURVE_SEEDS + 1) / (CURVE_SEEDS + 1)
    return (edges[:-1, None] + np.diff(edges)[:, None] * t).ravel()
