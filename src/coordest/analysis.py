"""Verification of the estimability characterization and variance
competitiveness.

For a data vector ``v`` and function ``f`` the full lower-bound curve
``lb(u)`` decides which estimator properties are attainable:

* unbiased + nonnegative      <=>  lb(u) -> f(v) as u -> 0
* ... + finite variance       <=>  the squared hull slopes are integrable
* ... + bounded estimates     <=>  (f(v) - lb(u)) / u stays bounded

Every curve follows one closed form below its head (its first breakpoint),
its head piece, and the three verdicts are read from it exactly.

Competitiveness compares the squared-estimate integral of the dyadic
estimator against the hull optimum.  The certified bound for the dyadic
construction is 84 (= 28 * 3: each dyadic block's square is at most 28 times
the optimum's square mass on a 3-fold cover of nearby seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import DEPTH, dyadic_indices, hull_block, j_piece_tables
from .functions import ItemFunction, LowerBoundFns, checked_vectors, evaluate_many, lb_functions, lower_bounds
from .hull import FloatRangeError, scaled_rows
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


def _unrevealed_error(v: Sequence[float], scheme: TauScheme, f_value: float, at_zero: float) -> ValueError:
    """The error of data whose curve tends to ``at_zero``, not ``f_value``,
    toward seed 0: an entry above its domain low that is below its
    threshold at the smallest positive seed is revealed at no seed."""
    taus = scheme.thresholds(np.array([math.ulp(0.0)]))[:, 0].tolist()
    where = next((f"instance {i + 1} holds {x!r}, which no positive float seed reveals "
                  f"(its threshold at the smallest seed is {t!r}); "
                  for i, (x, lo, t) in enumerate(zip(v, scheme.domain.lows, taus)) if lo < x < t), "")
    return ValueError(f"{where}the lower bound tends to {at_zero!r} toward seed 0, not to f(v) = {f_value!r}")


def _one_row_checks(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> tuple:
    """The estimable, bounded and finite-variance verdicts of data ``v``:
    a one-row :func:`curve_verdicts`, whose error is raised.  The
    finite-variance value bounds every slope of the convex hull from
    ``(0, f(v))``, the slope at 0+ on a convex head and ``f(v) / head`` on
    a concave one: finite exactly when the slope at 0+ is (the float
    quotient may overflow, the real one not)."""
    row = np.array([v], dtype=float)
    curves = lb_functions(f, row, scheme)
    fvs = evaluate_many(f, row)
    verdicts, heads, _, error = curve_verdicts(row, fvs, curves, scheme)
    if error is not None:
        raise error
    ok, gap, bounded, slope, finite = (column.item(0) for column in verdicts.values())
    steepest = max(slope, fvs.item(0) / heads.item(0))
    return CheckResult(ok, gap), CheckResult(bounded, slope), CheckResult(finite, steepest)


def check_estimable(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> CheckResult:
    return _one_row_checks(v, f, scheme)[0]


def check_bounded(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> CheckResult:
    return _one_row_checks(v, f, scheme)[1]


def check_finite_variance(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> CheckResult:
    return _one_row_checks(v, f, scheme)[2]


def implication_chain_ok(bounded, finite_variance, estimable):
    """bounded => finite variance => estimable; of bools, or elementwise of
    bool arrays (``a => b`` is ``b >= a``)."""
    return (finite_variance >= bounded) & (estimable >= finite_variance)


# ---------------------------------------------------------------------------
# variance and competitiveness


def curve_verdicts(rows: np.ndarray, fvs: np.ndarray, curves: LowerBoundFns, scheme: TauScheme):
    """The estimable, bounded and finite-variance verdicts of the data
    vectors ``rows[k]`` of ``f`` values ``fvs[k]``, read from the head
    pieces of their ``curves``, as arrays in the order of a
    ``characterize`` record; the heads; and the index and error of the
    first vector whose checks fail (the vector count and None).  The gap of
    ``f(v)`` over the head at seed 0 is 0, or else an entry is revealed at
    no positive float seed, an error (as is an infinite ``f(v)``).  Bounded
    and finite variance: the head's slope at 0+, ``p * c^(p-1) * |d|``, is
    finite (0 for a constant head and for ``f(v) = 0``).  The values at
    seed 0 take an array power, and the slopes at 0+ take ``c^(p-1)`` one
    float at a time: numpy's array power differs from the scalar one in the
    last bit on some inputs."""
    n, p, heads = len(curves), curves.exponent, curves.heads
    cs, ds = curves.cs[:, 0].copy(), curves.ds[:, 0].copy()
    slopes = np.zeros(n)
    with np.errstate(over="ignore"):
        at_zero = cs if p is None else cs**p
        if p is not None:
            steep = (cs > 0.0) & (ds != 0.0)
            slopes[steep] = p * np.array([np.float64(c) ** (p - 1.0) for c in cs[steep].tolist()]) * -ds[steep]
    bounded = np.isfinite(slopes)
    verdicts = {"estimable": np.ones(n, dtype=bool), "estimable_gap": np.zeros(n), "bounded": bounded,
                "bounded_slope": slopes, "finite_variance": bounded}
    bad = np.flatnonzero(~np.isfinite(fvs) | (fvs != at_zero)).tolist()
    if not bad:
        return verdicts, heads, n, None
    k = bad[0]
    if not math.isfinite(fvs[k]):
        return verdicts, heads, k, FloatRangeError(p)
    return verdicts, heads, k, _unrevealed_error(rows[k].tolist(), scheme, fvs[k].item(), at_zero[k].item())


# the fields of a competitiveness report in the order of its record: its
# own, then those of its diagnostics
REPORT_FIELDS = ("square_integral_j", "square_integral_opt", "ratio", "variance_j", "variance_opt",
                 "estimable", "finite_variance", "bounded")
DIAGNOSTIC_FIELDS = ("f_value", "estimable_gap", "bounded_slope", "depth", "j_tail_bound")


def clamped_variance(second_moment, f_value):
    """Variance of an unbiased estimator from its square integral: the
    second moment minus ``f_value^2``, with a rounding deficit of at most
    1e-9 clamped to 0; elementwise on arrays."""
    var = second_moment - f_value * f_value
    return np.where((-1e-9 <= var) & (var < 0.0), 0.0, var)


def curve_blocks(rows, f: ItemFunction, scheme: TauScheme):
    """Each block of up to ``CURVE_BLOCK`` data vectors of the (n, r) array
    ``rows``, in order, with their ``f`` values (one :func:`evaluate_many`
    call) and lower-bound curves (one :func:`lb_functions` call); the rows
    are checked against the scheme's arity, then the function's."""
    rows = checked_vectors(f, rows, scheme)
    for start in range(0, rows.shape[0], CURVE_BLOCK):
        block = rows[start:start + CURVE_BLOCK]
        yield block, evaluate_many(f, block), lb_functions(f, block, scheme)


def competitiveness_ratio(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> dict:
    """Squared-mass ratio of the dyadic estimator to the hull optimum: the
    :func:`report_record` of a one-row :func:`competitiveness_reports` block.

    The dyadic side is summed to a depth of ``DEPTH`` or more and topped
    with a certified tail bound (each deep block's value is at most 16x the
    boundedness slope, so the unsummed mass is at most ``256 * slope^2 *
    2^-depth``); the optimal side is the truncated hull integral, a slight
    underestimate.  The reported ratio is therefore conservative.
    """
    fields, error = next(competitiveness_reports(np.reshape(v, (1, -1)), f, scheme))
    if error is not None:
        raise error
    return report_record(fields, 0)


def report_record(fields: dict, k: int) -> dict:
    """Row ``k`` of a :func:`competitiveness_reports` block as the dict of
    its ``analyze`` record: ``DIAGNOSTIC_FIELDS`` under ``"diagnostics"``,
    ``j_tail_bound`` None without a certified bound, absent at ``f(v) = 0``."""
    report = {name: column.item(k) for name, column in fields.items()}
    diagnostics = {name: report.pop(name) for name in DIAGNOSTIC_FIELDS}
    if diagnostics["f_value"] == 0.0:
        del diagnostics["j_tail_bound"]
    elif not report["bounded"]:
        diagnostics["j_tail_bound"] = None
    return {**report, "diagnostics": diagnostics}


def competitiveness_reports(rows, f: ItemFunction, scheme: TauScheme):
    """The :func:`competitiveness_ratio` reports of the data vectors in the
    rows of an (n, r) array, per block of :func:`curve_blocks`: one array
    per field of ``REPORT_FIELDS`` and ``DIAGNOSTIC_FIELDS`` (``j_tail_bound``
    NaN where the record has none) over the vectors up to the first that
    fails, and that vector's error (or None): its :func:`curve_verdicts`
    error, else the error of its hull, else an :class:`AnalysisError`.
    A block takes one :func:`j_piece_tables` call per dyadic depth, one
    :func:`hull_block` step (the oracle's) with one square integral call,
    one :func:`lower_bounds` call for the tail seeds, and array passes.
    """
    for block, fvs, curves in curve_blocks(rows, f, scheme):
        verdicts, heads, n, error = curve_verdicts(block, fvs, curves, scheme)
        slopes, bounded = verdicts["bounded_slope"], verdicts["bounded"]
        # keep summing dyadic blocks well past the curve's smallest
        # breakpoint, otherwise the worst-case tail bound dwarfs the actual
        # deep mass for data revealed only at tiny seeds
        depths = np.array([max(DEPTH, min(math.ceil(-math.log2(h)) + 20, MAX_DEPTH)) for h in heads.tolist()])
        # one table call per depth (entry j of a table does not depend on the
        # depth), so a vector of tiny data sends no other row deep
        sq_j = np.empty(len(block))
        for depth in sorted(set(depths.tolist())):
            values, shift = scaled_rows(j_piece_tables(block[depths == depth], f, scheme, depth))
            with np.errstate(over="ignore"):  # scaled back past the largest float: inf
                sq_j[depths == depth] = np.sum(2.0 ** -(np.arange(depth + 1.0) + 1.0) * (values * values), axis=1) \
                    * np.ldexp(1.0, shift) * np.ldexp(1.0, shift)
        live = fvs != 0.0  # the report at f(v) = 0 reads no hull; a failed one reads 0
        hulls, _, errors = hull_block(curves.take(live))
        sq_opt, failed = np.zeros(len(block)), np.zeros(len(block), dtype=bool)
        sq_opt[live], failed[live] = hulls.square_integral(np.arange(len(errors))), [e is not None for e in errors]
        u_tail = np.ldexp(1.0, 2 - depths)
        tails = lower_bounds(f, block.T, True, u_tail, scheme)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the larger of the slope at 0+ and the chord to the last summed
            # block: on one power piece, the sup of (f(v) - lb(u)) / u there
            chord = (fvs - tails) / u_tail
            steepest = np.where(slopes > chord, slopes, chord)
            tail = 256.0 * steepest * steepest * np.ldexp(1.0, -depths)
            sq_j = np.where(live, sq_j + np.where(bounded, tail, 0.0), 0.0)
            fields = dict(
                square_integral_j=sq_j, square_integral_opt=sq_opt, ratio=np.where(sq_opt <= 0.0, 1.0, sq_j / sq_opt),
                variance_j=clamped_variance(sq_j, fvs), variance_opt=clamped_variance(sq_opt, fvs),
                estimable=verdicts["estimable"], finite_variance=verdicts["finite_variance"], bounded=bounded,
                f_value=fvs, estimable_gap=verdicts["estimable_gap"], bounded_slope=slopes,
                depth=np.where(live, depths, DEPTH), j_tail_bound=np.where(live & bounded, tail, math.nan))
        massless = failed | (live & (sq_opt <= 0.0) & (sq_j > 0.0))
        k = int(np.argmax(massless)) if massless[:n].any() else n
        if k < n:
            error = errors[np.count_nonzero(live[:k])] if failed[k] else AnalysisError(
                f"optimal square integral is 0 while the dyadic integral is {sq_j[k].item()}; "
                "the optimal mass lies below the smallest float, or the lower-bound curve is inconsistent")
        yield {name: column[:k] for name, column in fields.items()}, error


def curve_table(v: Sequence[float], f: ItemFunction, scheme: TauScheme) -> list[tuple[float, float, float, float, float]]:
    """Plot-ready rows ``(u, lower_bound, hull, dyadic, optimal)``: one row
    of :func:`curve_block`.  The rows are taken at every breakpoint and one
    float right of it (a jump shows as two rows), at the ends of every hull
    and dyadic piece, and at ``CURVE_SEEDS`` seeds inside each piece of a
    curve neither constant nor linear there; a row whose lower bound,
    dyadic and optimal values equal both neighbours' goes, save the first
    and the last.  The hull column is the cumulative optimal estimate (the
    integral of the optimal column from u to 1), on or below the lower
    bound up to rounding.
    """
    row = np.asarray(v, dtype=float).reshape(1, -1)
    columns, _, error = curve_block(row, lb_functions(f, row, scheme), f, scheme)
    if error is not None:
        raise error
    return list(zip(*columns.tolist()))


def curve_block(rows: np.ndarray, curves: LowerBoundFns, f: ItemFunction, scheme: TauScheme):
    """The five columns of :func:`curve_table` of the data vectors
    ``rows[k]`` with curves ``curves``, up to the first whose hull fails:
    one (5, W) array ``columns``, in which vector ``k`` holds the columns
    ``ends[k - 1]:ends[k]``, and the error of that hull (or None).  Every
    seed lies in (0, 1].  Each step runs once for the block: one
    :func:`hull_block` step, as the oracle's; the seeds of every vector,
    padded with seed 1, sorted along each row and each one equal to the one
    before it masked out; one :func:`lower_bounds` call at all rows, one
    gather in the dyadic tables (one :func:`j_piece_tables` call) and one
    read of the hull block; the row drop, in which a row (but a vector's
    first and last) whose lower bound, dyadic and optimal values equal
    those of the rows on both sides of it goes, the rows compared once, all
    of them; and the hull column at the rows kept, one ordered sum.
    """
    block, anchors, errors = hull_block(curves)
    n = next((k for k, error in enumerate(errors) if error is not None), len(curves))
    error = errors[n] if n < len(curves) else None
    if not n:
        return np.empty((5, 0)), [], error
    rows, bps = rows[:n], curves.breakpoints[:n]
    after = np.where(bps < 1.0, np.nextafter(bps, np.inf), 1.0)
    seeds = [bps, after, block.edges[:n], np.broadcast_to(np.ldexp(1.0, np.arange(-DEPTH - 1, 1)), (n, DEPTH + 2))]
    if curves.exponent not in (None, 1.0):
        # evenly spaced seeds inside each piece, from the hull's anchor (its
        # first vertex) through the breakpoints, of a curve that is neither
        # constant nor linear between them
        edges = np.concatenate((anchors[:n, None], bps), axis=1)
        t = np.arange(1, CURVE_SEEDS + 1) / (CURVE_SEEDS + 1)
        seeds.append((edges[:, :-1, None] + np.diff(edges, axis=1)[:, :, None] * t).reshape(n, -1))
    seeds = np.sort(np.concatenate(seeds, axis=1), axis=1)
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
    change = (lb[1:] != lb[:-1]) | (j[1:] != j[:-1]) | (vopt[1:] != vopt[:-1])
    keep = np.ones(len(us), dtype=bool)
    keep[1:-1] = change[:-1] | change[1:]
    # every vector has a row at seed 1; its first and last rows stay
    last = np.cumsum(counts) - 1
    keep[last] = keep[last - counts + 1] = True
    us, row = us[keep], row[keep]
    columns = np.stack((us, lb[keep], block.integral(row, us), j[keep], vopt[keep]))
    return columns, np.cumsum(np.bincount(row, minlength=n)).tolist(), error
