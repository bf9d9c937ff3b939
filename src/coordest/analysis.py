"""Numerical verification of the estimability characterization and variance
competitiveness.

For a data vector ``v`` and function ``f`` the full lower-bound curve
``lb(u)`` decides which estimator properties are attainable:

* unbiased + nonnegative      <=>  lb(u) -> f(v) as u -> 0
* ... + finite variance       <=>  the squared hull slopes are integrable
* ... + bounded estimates     <=>  (f(v) - lb(u)) / u stays bounded

Every check takes the curve as a :class:`~coordest.functions.LowerBoundFn`
and is numeric: limits are probed on geometric seed sequences below the
curve's head (its first breakpoint) and integrals on geometric cutoff
sequences, with convergence of the probes standing in for the analytic
limit.  A curve flat at ``f(v)`` below its head reads a zero gap at every
probe.

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

from .estimators import DEPTH, GRID_N, base_grid, j_estimate_fn, j_piece_values, v_optimal_estimates
from .functions import (
    ItemFunction,
    LowerBoundFn,
    evaluate,
    lb_function,
)
from .hull import EstimateFn, integrate_square, scaled_squares
from .model import TauScheme

RATIO_BOUND = 84.0

GAP_TOLERANCE = 1e-9

# deepest dyadic block competitiveness_ratio sums (data down to about
# 1e-316): 2^-(MAX_DEPTH + 1) is the smallest subnormal float
MAX_DEPTH = 1073

_PROBE_STEPS = 4.0 ** -np.arange(9.0)  # 4^-t of the limit probes


class AnalysisError(RuntimeError):
    """An internal inconsistency that should be impossible for correct
    lower bounds (e.g. zero optimal mass under a nonzero dyadic mass)."""


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    value: float
    probes: tuple[float, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _probes(eps: float, n: int) -> np.ndarray:
    """The limit probes ``eps * 4^-t`` for t = 0..n-1; a probe that
    underflows to 0 (data below about 1e-316) is an error, not a seed."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    us = eps * _PROBE_STEPS[:n]
    if us[-1] == 0.0:
        raise ValueError(f"limit probe eps * 4^-{n - 1} underflows to 0 (eps = {eps!r})")
    return us


def check_estimable_curve(lb: LowerBoundFn, f_value: float, eps: float = 1e-3) -> CheckResult:
    """Does the lower-bound curve reach ``f_value`` in the limit toward 0?

    Probes the gap at ``eps, eps/4, eps/16``; the limit is accepted when the
    gap is already below tolerance or keeps shrinking (at least halving over
    the two refinements).  A plateau strictly above 0 means mass near seed 0
    is unreachable and no unbiased nonnegative estimator exists.
    """
    gaps = tuple((f_value - lb.value(_probes(eps, 3))).tolist())
    residual = gaps[-1]
    if residual <= GAP_TOLERANCE:
        return CheckResult(True, max(residual, 0.0), gaps)
    shrinking = gaps[2] < gaps[1] < gaps[0] and gaps[2] <= 0.5 * gaps[0]
    return CheckResult(shrinking, residual, gaps)


def check_bounded_curve(lb: LowerBoundFn, f_value: float, eps: float = 1e-3) -> CheckResult:
    """Is ``(f_value - lb(u)) / u`` bounded as u -> 0?

    The ratio is tracked on ``eps * 4^-t`` for t = 0..8 and accepted when the
    final refinement no longer grows (beyond 1%); the observed supremum is
    reported.
    """
    us = _probes(eps, 9)
    ratios = tuple(((f_value - lb.value(us)) / us).tolist())
    sup = max(ratios)
    ok = ratios[-1] <= max(1.01 * ratios[-2], ratios[-2] + 1e-12)
    return CheckResult(ok, sup, ratios)


def check_finite_variance_curve(lb: LowerBoundFn, grid_n: int = GRID_N) -> CheckResult:
    """Are the squared hull slopes integrable near seed 0?

    Computes partial square integrals of the hull-derivative estimates
    ``v_optimal_estimates(lb, grid_n)`` (the hull the optimum uses) over
    ``(cutoff, 1]`` for cutoffs ``4^-k / 16`` and accepts when the
    refinements become Cauchy: either the relative change drops below 1e-6
    or the per-refinement increments at least halve (a bounded slope
    quarters them each step, so their tail is summable).  Divergent curves
    keep adding non-shrinking mass and fail.  So do curves whose gap to
    their limit behaves like ``u^p`` with 1/2 < p < 3/4: their variance is
    finite, but the increments shrink only by ``4^-(2p-1)`` per step, more
    than half.  The lower bounds of item functions have a bounded slope there.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    return _finite_variance_ladder(v_optimal_estimates(lb, grid_n))


def _finite_variance_ladder(est: EstimateFn) -> CheckResult:
    """The verdict of :func:`check_finite_variance_curve` on the hull ``est``."""
    # ladder from 1/16 down to just above the materialised support, so
    # curves with tiny revelation seeds still get probed past their mass
    floor = max(4.0 * est.support_left, 1e-300)
    steps = int(np.clip(np.ceil(np.log(0.0625 / floor) / np.log(4.0)), 13, 60))
    cutoffs = 0.0625 * 4.0 ** -np.arange(steps, dtype=float)
    partials = tuple(integrate_square(est, lo=cutoffs).tolist())
    last = partials[-1]
    if last == 0.0:
        return CheckResult(True, last, partials)
    rel = abs(last - partials[-2]) / abs(last)
    noise = 1e-15 * abs(last)
    deltas = [b - a for a, b in zip(partials, partials[1:])]
    shrinking = all(
        d2 <= 0.5 * d1 + noise for d1, d2 in zip(deltas[-3:], deltas[-2:])
    )
    return CheckResult(bool(rel < 1e-6 or shrinking), last, partials)


def _curve_checks(lbf: LowerBoundFn, f_value: float, eps: float, grid_n: int) -> tuple:
    """The three checks of one curve, with the limit probes at ``eps`` times
    its head (those check_estimable, check_bounded and
    check_finite_variance make), then the hull ``v_optimal_estimates(lbf, grid_n)``."""
    opt = v_optimal_estimates(lbf, grid_n)
    eps *= lbf.head
    return (check_estimable_curve(lbf, f_value, eps), check_bounded_curve(lbf, f_value, eps),
            _finite_variance_ladder(opt), opt)


def check_estimable(v: Sequence[float], f: ItemFunction, scheme: TauScheme, eps: float = 1e-3) -> CheckResult:
    lbf = lb_function(f, v, scheme)
    return check_estimable_curve(lbf, evaluate(f, v), eps * lbf.head)


def check_bounded(v: Sequence[float], f: ItemFunction, scheme: TauScheme, eps: float = 1e-3) -> CheckResult:
    lbf = lb_function(f, v, scheme)
    return check_bounded_curve(lbf, evaluate(f, v), eps * lbf.head)


def check_finite_variance(
    v: Sequence[float], f: ItemFunction, scheme: TauScheme, grid_n: int = GRID_N
) -> CheckResult:
    return check_finite_variance_curve(lb_function(f, v, scheme), grid_n)


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


def competitiveness_ratio(
    v: Sequence[float], f: ItemFunction, scheme: TauScheme, grid_n: int = GRID_N, depth: int = DEPTH
) -> AnalysisReport:
    """Squared-mass ratio of the dyadic estimator to the hull optimum.

    The dyadic side is summed to ``depth`` and topped with a certified tail
    bound (each deep block's value is at most 16x the boundedness slope, so
    the unsummed mass is at most ``256 * slope^2 * 2^-depth``); the optimal
    side is the truncated hull integral, a slight underestimate.  The
    reported ratio is therefore conservative.
    """
    fv = evaluate(f, v)
    lbf = lb_function(f, v, scheme)
    est_check, bd_check, fv_check, opt = _curve_checks(lbf, fv, 1e-3, grid_n)
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
    if not est_check.ok:
        raise AnalysisError(
            f"data {tuple(v)} fails the estimability limit (gap {est_check.value}); "
            "competitiveness is undefined"
        )
    # keep summing dyadic blocks well past the curve's smallest breakpoint,
    # otherwise the worst-case tail bound dwarfs the actual deep mass for
    # data revealed only at tiny seeds
    depth = max(depth, min(int(math.ceil(-math.log2(lbf.head))) + 20, MAX_DEPTH))
    diagnostics["depth"] = depth
    vals = j_piece_values(v, f, scheme, depth)
    widths = 2.0 ** -(np.arange(depth + 1, dtype=float) + 1.0)
    squares, shift = scaled_squares(vals)
    sq_j = float(np.sum(widths * squares)) * 2.0**shift * 2.0**shift
    if bd_check.ok:
        # deep-tail slope observed below the last summed block
        u_tail = 2.0 ** (-depth + 2)
        slope = (fv - lbf.value(u_tail)) / u_tail
        slope = max(slope, bd_check.value)
        tail = 256.0 * slope * slope * 2.0**-depth
    else:
        tail = None  # no certified bound; written as JSON null
    diagnostics["j_tail_bound"] = tail
    sq_j_total = sq_j + (tail or 0.0)

    sq_opt = integrate_square(opt)
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
    """Plot-ready rows ``(u, lower_bound, hull, dyadic, optimal)``.

    The hull column is the cumulative optimal estimate (the integral of the
    optimal column from u to 1).  It sits on or below the lower bound at the
    seeds the hull was built from (:func:`v_optimal_estimates`: the curve's
    corners, and for ``rg`` and one-sided ``rg`` with ``p > 1`` its own
    grid).  A curve with concave pieces lies above its corners' hull
    everywhere, so for every other function the hull column stays on or
    below the lower bound up to rounding.  Between the grid seeds of a
    ``p > 1`` curve the hull is linear while the curve is convex, so at
    other seeds of this table the hull column can exceed the lower bound
    (on 120 generated vectors under ``rg:p=2`` and ``pps:tau=4``, by up to
    4.8e-5, and by up to 0.14 % of f(v)).
    """
    lbf = lb_function(f, v, scheme)
    columns = _curve_columns(lbf, v_optimal_estimates(lbf, grid_n), v, f, scheme, grid_n, depth)
    return list(zip(*(c.tolist() for c in columns)))


def _curve_columns(lbf: LowerBoundFn, opt: EstimateFn, v, f, scheme, grid_n, depth) -> tuple:
    """The five columns of :func:`curve_table`, from the curve ``lbf`` of
    ``v`` and its hull ``opt = v_optimal_estimates(lbf, grid_n)``."""
    j_fn = j_estimate_fn(v, f, scheme, depth=min(depth, 40))
    us = np.unique(np.concatenate([base_grid(grid_n, 1e-6, grid_n // 2), np.array(lbf.breakpoints)]))
    return us, lbf.value(us), opt.integral(lo=us), j_fn.value_at(us), opt.value_at(us)
