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

from .estimators import DEPTH, _padded, block_hulls, dyadic_indices, j_piece_tables
from .functions import ItemFunction, LowerBoundFn, evaluate, evaluate_many, lb_function, lb_functions, lower_bounds
from .hull import FloatRangeError, scaled_squares
from .model import TauScheme

RATIO_BOUND = 84.0

# deepest dyadic block competitiveness_ratio sums (data down to about
# 1e-316): 2^-(MAX_DEPTH + 1) is the smallest subnormal float
MAX_DEPTH = 1073

# evenly spaced curve_table rows inside each piece of a curve that is
# neither constant nor linear between its breakpoints
CURVE_SEEDS = 8

# Data vectors whose curves, dyadic tables and hull inputs are built in one
# pass of a few array calls: memory stays flat in the vector count.
CURVE_BLOCK = 64


class AnalysisError(ValueError):
    """A report that cannot be made: zero optimal mass under a nonzero
    dyadic mass (a mass below the smallest float, or an inconsistent curve)."""


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    value: float

    def __bool__(self) -> bool:
        return self.ok


def _curve_checks(lbf: LowerBoundFn, f_value: float, v: Sequence[float], scheme: TauScheme) -> tuple:
    """The estimable, bounded and finite-variance verdicts of the curve
    ``lbf`` of data ``v``, from its head piece; an infinite ``f_value`` is an error.

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


def competitiveness_ratio(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> AnalysisReport:
    """Squared-mass ratio of the dyadic estimator to the hull optimum: one
    row of :func:`competitiveness_reports`.

    The dyadic side is summed to a depth of ``DEPTH`` or more and topped
    with a certified tail bound (each deep block's value is at most 16x the
    boundedness slope, so the unsummed mass is at most ``256 * slope^2 *
    2^-depth``); the optimal side is the truncated hull integral, a slight
    underestimate.  The reported ratio is therefore conservative.
    """
    return next(competitiveness_reports(_one_row(v), f, scheme))


def competitiveness_reports(rows, f: ItemFunction, scheme: TauScheme):
    """The :func:`competitiveness_ratio` report of each data vector in the
    rows of an (n, r) array, in order.

    Each block of :func:`curve_blocks` also takes one
    :func:`j_piece_tables` call per dyadic depth of its vectors, the
    :func:`block_hulls` of its vectors of nonzero ``f(v)`` (the oracle's
    and the ``--curves`` rows' hull step) with all their square integrals
    in one call, and one :func:`lower_bounds` call for the tail seeds of
    all its vectors.
    A vector's verdicts and sums are made, and the error of its hull
    raised, when its report is taken, so the error of a bad vector comes
    after the reports before it.
    """
    for block, fvs, lbfs in curve_blocks(rows, f, scheme):
        # keep summing dyadic blocks well past the curve's smallest
        # breakpoint, otherwise the worst-case tail bound dwarfs the actual
        # deep mass for data revealed only at tiny seeds
        depths = [max(DEPTH, min(int(math.ceil(-math.log2(lbf.head))) + 20, MAX_DEPTH)) for lbf in lbfs]
        # one table call per depth (entry j of a table does not depend on
        # the depth it is built to), so a vector of tiny data sends no other row deep
        groups = {d: [k for k, x in enumerate(depths) if x == d] for d in set(depths)}
        tables = {k: t for d, ks in groups.items() for k, t in zip(ks, j_piece_tables(block[ks], f, scheme, d))}
        # the report of a vector of f(v) = 0 reads no hull
        live = [k for k, fv in enumerate(fvs) if fv != 0.0]
        hulls, _, errors = block_hulls(f, block[live], [lbfs[k] for k in live], scheme)
        sq_opts = dict(zip(live, zip(hulls.square_integral(np.arange(len(live))).tolist(), errors)))
        tails = lower_bounds(f, block.T, True, np.ldexp(1.0, 2 - np.array(depths)), scheme).tolist()
        for k, v in enumerate(block.tolist()):
            yield _report(lbfs[k], fvs[k], v, scheme, depths[k], tables[k], tails[k], sq_opts.get(k))


def _report(lbf, fv, v, scheme, depth, table, tail_value, sq_opt) -> AnalysisReport:
    """The report of data ``v`` from its curve ``lbf`` and ``f`` value
    ``fv``: the dyadic values ``table`` down to ``depth`` at least, the
    curve at the tail seed (``tail_value``), and the optimal square integral
    with the error of its hull (``sq_opt``, read only where ``fv`` is not
    0, where the error is raised)."""
    est_check, bd_check, fv_check = _curve_checks(lbf, fv, v, scheme)
    diagnostics: dict = {
        "f_value": fv,
        "estimable_gap": est_check.value,
        "bounded_slope": bd_check.value,
        "depth": DEPTH,
    }
    if fv == 0.0:
        # the zero function on zero-valued data: both estimators vanish
        return AnalysisReport(
            square_integral_j=0.0, square_integral_opt=0.0, ratio=1.0, variance_j=0.0, variance_opt=0.0,
            estimable=est_check.ok, finite_variance=fv_check.ok, bounded=bd_check.ok, diagnostics=diagnostics,
        )
    diagnostics["depth"] = depth
    widths = 2.0 ** -(np.arange(depth + 1, dtype=float) + 1.0)
    squares, shift = scaled_squares(table[:depth + 1])
    sq_j = float(np.sum(widths * squares)) * 2.0**shift * 2.0**shift
    if bd_check.ok:
        # the larger of the slope at 0+ and the chord to the last summed
        # block: on one power piece, the sup of (f(v) - lb(u)) / u there
        u_tail = 2.0 ** (-depth + 2)
        slope = (fv - tail_value) / u_tail
        slope = max(slope, bd_check.value)
        tail = 256.0 * slope * slope * 2.0**-depth
    else:
        tail = None  # no certified bound; written as JSON null
    diagnostics["j_tail_bound"] = tail
    sq_j_total = sq_j + (tail or 0.0)

    sq_opt, error = sq_opt
    if error is not None:
        raise error
    if sq_opt <= 0.0:
        if sq_j_total > 0.0:
            raise AnalysisError(
                f"optimal square integral is 0 while the dyadic integral is {sq_j_total}; "
                "the optimal mass lies below the smallest float, or the lower-bound curve is inconsistent"
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


def curve_table(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> list[tuple[float, float, float, float, float]]:
    """Plot-ready rows ``(u, lower_bound, hull, dyadic, optimal)`` where
    some column changes.  The rows are taken from every breakpoint and one
    float right of it (a jump shows as two adjacent rows), the ends of
    every hull and dyadic piece, and ``CURVE_SEEDS`` seeds inside each piece
    of a curve that is neither constant nor linear there; of those, a row
    whose lower bound, dyadic and optimal values equal both neighbours' is
    dropped, save the first and the last.  Between adjacent rows the
    dyadic and optimal columns and the lower bound of ``max``, ``min`` and
    ``or`` are constant, and the hull column and the lower bound of the
    ``p = 1`` range kinds are linear, so the table loses nothing of them.
    One row of :func:`curve_block`.

    The hull column is the cumulative optimal estimate (the integral of the
    optimal column from u to 1): the lower hull of the curve
    (:func:`v_optimal_estimates`), which stays on or below the lower bound
    up to rounding.  A curve with concave pieces lies above the hull of its
    corners; the hull of a curve of convex arcs (``rg`` and one-sided
    ``rg`` with ``p > 1``) follows the arcs where it touches them.
    """
    row = _one_row(v)
    columns, _, error = curve_block(row, lb_functions(f, row, scheme), f, scheme)
    if error is not None:
        raise error
    return list(zip(*columns.tolist()))


def curve_block(rows: np.ndarray, lbfs: Sequence[LowerBoundFn], f: ItemFunction, scheme: TauScheme):
    """The five columns of :func:`curve_table` of the data vectors
    ``rows[k]`` with curves ``lbfs[k]``, up to the first whose hull fails:
    one (5, W) array ``columns``, in which vector ``k`` holds the columns
    ``ends[k - 1]:ends[k]``, and the error of that hull (or None).  Every
    seed lies in (0, 1].

    Each step runs once for the block, on padded or flat arrays:

    * the hulls: one :func:`block_hulls` step, as the oracle's, read as one
      :class:`~coordest.hull.EstimateBlock`;
    * the rows: each vector's breakpoints and the seeds just right of them,
      its hull's piece ends, the dyadic piece ends and its interior seeds,
      padded with seed 1 (which every vector has), sorted along each row,
      with each seed equal to the one before it masked out;
    * the lower bound at every row from one :func:`lower_bounds` call, the
      dyadic column from one gather in the vectors' dyadic tables (one
      :func:`j_piece_tables` call) by the dyadic index of each row, and the
      optimal column from one read of the hull block;
    * the row drop: each row but each vector's first and last whose lower
      bound, dyadic and optimal values equal those of the rows on both
      sides of it goes.  The lower bound and the optimal column do not
      increase with the seed, so they are constant across it, and the hull
      column is linear through it;
    * the hull column at the rows kept: one ordered sum over the block.
    """
    block, anchors, errors = block_hulls(f, rows, lbfs, scheme)
    n = next((k for k, error in enumerate(errors) if error is not None), len(lbfs))
    error = errors[n] if n < len(lbfs) else None
    if not n:
        return np.empty((5, 0)), [], error
    rows, lbfs = rows[:n], lbfs[:n]
    bps, _ = _padded([lbf.breakpoints for lbf in lbfs])
    after = np.where(bps < 1.0, np.nextafter(bps, np.inf), 1.0)
    j_ends = np.broadcast_to(np.ldexp(1.0, np.arange(-DEPTH - 1, 1)), (n, DEPTH + 2))
    # evenly spaced seeds inside each piece, from the hull's anchor (its
    # first vertex) through the breakpoints, of a curve that is neither
    # constant nor linear between them
    edges = np.concatenate((anchors[:n, None], bps), axis=1)
    t = np.arange(1, CURVE_SEEDS + 1) / (CURVE_SEEDS + 1)
    inside = (edges[:, :-1, None] + np.diff(edges, axis=1)[:, :, None] * t).reshape(n, -1)
    inside[[lbf.exponent in (None, 1.0) for lbf in lbfs]] = 1.0
    seeds = np.sort(np.concatenate((bps, after, block.edges[:n], j_ends, inside), axis=1), axis=1)
    new = np.ones(seeds.shape, dtype=bool)
    new[:, 1:] = seeds[:, 1:] != seeds[:, :-1]
    us, counts = seeds[new], np.count_nonzero(new, axis=1)
    row = np.repeat(np.arange(n), counts)
    lb = lower_bounds(f, np.repeat(rows.T, counts, axis=1), True, us, scheme)
    # the dyadic pieces end at 2^-(DEPTH + 1): 0 at and below it
    i = dyadic_indices(us)
    table = j_piece_tables(rows, f, scheme, DEPTH)
    j = np.where(i <= DEPTH, np.take(table, row * (DEPTH + 1) + np.minimum(i, DEPTH)), 0.0)
    vopt = block.value_at(row, us)
    keep = _changing_rows(lb, j, vopt)
    # every vector has a row at seed 1; its first and last rows stay
    last = np.cumsum(counts) - 1
    keep[last] = keep[last - counts + 1] = True
    us, row = us[keep], row[keep]
    columns = np.stack((us, lb[keep], block.integral(row, us), j[keep], vopt[keep]))
    return columns, np.cumsum(np.bincount(row, minlength=n)).tolist(), error


def _changing_rows(lb: np.ndarray, j: np.ndarray, vopt: np.ndarray) -> np.ndarray:
    """Which rows to keep: every row at which one of the three columns
    differs from its value at the row before or the row after, and the
    first and the last.  A row equal to both neighbours in all three is
    dropped; the rows are compared once, all of them, and not again among
    the rows kept."""
    change = (lb[1:] != lb[:-1]) | (j[1:] != j[:-1]) | (vopt[1:] != vopt[:-1])
    keep = np.ones(len(lb), dtype=bool)
    keep[1:-1] = change[:-1] | change[1:]
    return keep
