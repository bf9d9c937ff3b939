"""The numeric oracle of the estimability characterization: limit probes on
geometric seed sequences and a ladder of partial square integrals, with
convergence of the probes standing in for the analytic limit.

``coordest.analysis`` reads its verdicts exactly from the head piece of the
curves the package builds.  These checks take any curve, so they classify
the hand-built counterexamples of the paper (``1 - sqrt(u)``,
``1 - u^0.4``, ``0.5 - 0.4u``) and serve as the reference the exact
verdicts are compared with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coordest.functions import LowerBoundFn
from coordest.hull import EstimateBlock, integrate_square

from scalar_reference import GRID_N, grid_hull, one_row

GAP_TOLERANCE = 1e-9

_PROBE_STEPS = 4.0 ** -np.arange(9.0)  # 4^-t of the limit probes


@dataclass(frozen=True)
class ProbeResult:
    """A verdict, the value it rests on, and the probes it was read from."""

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


def check_estimable_curve(lb: LowerBoundFn, f_value: float, eps: float = 1e-3) -> ProbeResult:
    """Does the lower-bound curve reach ``f_value`` in the limit toward 0?

    Probes the gap at ``eps, eps/4, eps/16``; the limit is accepted when the
    gap is already below tolerance or keeps shrinking (at least halving over
    the two refinements).  A plateau strictly above 0 means mass near seed 0
    is unreachable and no unbiased nonnegative estimator exists.
    """
    gaps = tuple((f_value - lb.value(_probes(eps, 3))).tolist())
    residual = gaps[-1]
    if residual <= GAP_TOLERANCE:
        return ProbeResult(True, max(residual, 0.0), gaps)
    shrinking = gaps[2] < gaps[1] < gaps[0] and gaps[2] <= 0.5 * gaps[0]
    return ProbeResult(shrinking, residual, gaps)


def check_bounded_curve(lb: LowerBoundFn, f_value: float, eps: float = 1e-3) -> ProbeResult:
    """Is ``(f_value - lb(u)) / u`` bounded as u -> 0?

    The ratio is tracked on ``eps * 4^-t`` for t = 0..8 and accepted when the
    final refinement no longer grows (beyond 1%); the observed supremum is
    reported.
    """
    us = _probes(eps, 9)
    ratios = tuple(((f_value - lb.value(us)) / us).tolist())
    sup = max(ratios)
    ok = ratios[-1] <= max(1.01 * ratios[-2], ratios[-2] + 1e-12)
    return ProbeResult(ok, sup, ratios)


def check_finite_variance_curve(lb: LowerBoundFn, grid_n: int = GRID_N) -> ProbeResult:
    """Are the squared hull slopes integrable near seed 0?

    Computes partial square integrals of the hull-derivative estimates
    ``grid_hull(lb, grid_n)`` over ``(cutoff, 1]`` for cutoffs
    ``4^-k / 16`` and accepts when the refinements become Cauchy: either the
    relative change drops below 1e-6 or the per-refinement increments at
    least halve (a bounded slope quarters them each step, so their tail is
    summable).  Divergent curves keep adding non-shrinking mass and fail.
    So do curves whose gap to their limit behaves like ``u^p`` with
    1/2 < p < 3/4: their variance is finite, but the increments shrink only
    by ``4^-(2p-1)`` per step, more than half.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    return finite_variance_ladder(one_row(grid_hull(lb, grid_n)))


def finite_variance_ladder(est: EstimateBlock) -> ProbeResult:
    """The verdict of :func:`check_finite_variance_curve` on the hull
    ``est``, a one-row block."""
    # ladder from 1/16 down to just above the materialised support, so
    # curves with tiny revelation seeds still get probed past their mass
    floor = max(4.0 * est.edges[0, 0], 1e-300)
    steps = int(np.clip(np.ceil(np.log(0.0625 / floor) / np.log(4.0)), 13, 60))
    cutoffs = 0.0625 * 4.0 ** -np.arange(steps, dtype=float)
    partials = tuple(integrate_square(est, lo=cutoffs).tolist())
    last = partials[-1]
    if last == 0.0:
        return ProbeResult(True, last, partials)
    rel = abs(last - partials[-2]) / abs(last)
    noise = 1e-15 * abs(last)
    deltas = [b - a for a, b in zip(partials, partials[1:])]
    shrinking = all(
        d2 <= 0.5 * d1 + noise for d1, d2 in zip(deltas[-3:], deltas[-2:])
    )
    return ProbeResult(bool(rel < 1e-6 or shrinking), last, partials)
