"""The head piece of a data vector's lower-bound curve and the exact
verdicts read from it.

Below its first breakpoint every curve is the constant ``c`` (``max``,
``min``, ``or``) or ``max(c + d*u, 0)^p`` (the range kinds).  Both forms are
checked against ``lb.value`` at random seeds under PPS maps, piecewise-linear
maps and a domain with a nonzero low; the verdicts of
``coordest.analysis`` are checked against the numeric oracle of
``limit_oracle``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from coordest.analysis import _curve_checks, check_bounded, competitiveness_ratio
from coordest.functions import evaluate, lb_function, rg_fn
from coordest.model import Domain, PiecewiseLinearMap, TauScheme

from conftest import builtin_functions
from limit_oracle import check_bounded_curve, check_estimable_curve, check_finite_variance_curve

FUNCTIONS = builtin_functions(3) + [rg_fn(0.5, 3)]
LOWS = (0.5, 0.0, 0.0)

# The closed form and lb.value round differently: lb takes
# top - (start + slope*u), the form (top - start) + d*u.  Each side is off
# the exact linear value by at most 2 ulps of its largest term, so the two
# linear values differ by at most delta = LINEAR_ULPS ulps of it.  Through
# the power that is at most p * (a + delta)^(p-1) * delta for p >= 1 and
# p * (a - delta)^(p-1) * delta (or delta^p, when a <= 2 delta) for p < 1,
# where a is the form's linear value; the powers add one ulp each.
LINEAR_ULPS = 4


def _power_slack(a: np.ndarray, delta: np.ndarray, p: float) -> np.ndarray:
    if p >= 1.0:
        return p * (a + delta) ** (p - 1.0) * delta
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 2.0 * delta, p * (a - delta) ** (p - 1.0) * delta, delta ** p)


def _pwl(rng, start: float) -> PiecewiseLinearMap:
    """A map from ``start`` with three interior joints; a segment may be
    flat."""
    us = np.sort(rng.uniform(0.0, 1.0, 3))
    steps = rng.uniform(0.0, 4.0, 4) * (rng.random(4) > 0.2)
    ts = start + np.cumsum(steps)
    return PiecewiseLinearMap(tuple(zip([0.0, *us.tolist(), 1.0], [start, *ts.tolist()])))


def _scheme(rng, kind: str, lows) -> TauScheme:
    maps = []
    for lo in lows:
        if kind == "pps" or (kind == "mixed" and rng.random() < 0.5):
            maps.append(PiecewiseLinearMap.pps(float(rng.uniform(0.5, 4.0))))
        else:
            maps.append(_pwl(rng, float(rng.choice([0.0, lo / 2, lo]))))
    return TauScheme(tuple(maps), Domain(tuple(lows)))


def _vector(rng, lows) -> tuple[float, ...]:
    # entries at their domain low (where a map may start) and ties between
    # entries exercise the hidden highs and the flattest-of-ties rule
    v = [lo if rng.random() < 0.3 else float(rng.uniform(lo, lo + 3.0)) for lo in lows]
    if rng.random() < 0.2:
        v[2] = v[1]
    return tuple(v)


def _triples(seed: int, n: int):
    rng = np.random.default_rng(seed)
    for k in range(n):
        kind = ("pps", "pwl", "mixed")[k % 3]
        lows = LOWS if k % 2 else (0.0,) * 3
        yield _vector(rng, lows), FUNCTIONS[k % len(FUNCTIONS)], _scheme(rng, kind, lows)


def _head_form(lbf, us: np.ndarray) -> np.ndarray:
    c, d = lbf.head_piece
    if lbf.exponent is None:
        return np.full_like(us, c)
    return np.maximum(c + d * us, 0.0) ** lbf.exponent


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_head_piece_matches_the_curve(seed):
    rng = np.random.default_rng(100 + seed)
    sloped = 0
    for v, f, scheme in _triples(seed, 300):
        lbf = lb_function(f, v, scheme)
        head = lbf.head
        us = np.concatenate([head * rng.random(16), head * 10.0 ** -rng.uniform(3, 12, 4), [head]])
        us = us[us > 0.0]
        got, want = lbf.value(us), _head_form(lbf, us)
        c, d = lbf.head_piece
        assert c >= 0.0 and d <= 0.0
        if lbf.exponent is None:
            assert d == 0.0
            assert got.tolist() == want.tolist(), (v, f, scheme)
            continue
        sloped += d < 0.0 and c > 0.0
        delta = LINEAR_ULPS * np.spacing(np.maximum(max(v), -d * us))
        bound = _power_slack(np.maximum(c + d * us, 0.0), delta, lbf.exponent)
        bound += np.spacing(np.maximum(got, want)) * 2.0
        assert (np.abs(got - want) <= bound).all(), (v, f, scheme, us[np.abs(got - want) > bound])
    assert sloped > 50


def test_head_piece_at_seed_zero_is_f_of_v_bit_for_bit():
    for v, f, scheme in _triples(7, 400):
        lbf = lb_function(f, v, scheme)
        c, _ = lbf.head_piece
        at_zero = c if lbf.exponent is None else (np.array([c]) ** lbf.exponent)[0]
        assert at_zero == evaluate(f, v) == lbf.value(0.0)


def test_bounded_slope_of_rg2_with_a_zero_entry_is_2_sqrt_f_tau():
    # the zero entry is hidden at every positive seed, with high tau* u; the
    # head is (max v - tau* u)^2, whose slope at 0+ is 2 max(v) tau*
    rng = np.random.default_rng(21)
    f = rg_fn(2.0, 3)
    for tau in (0.5, 1.0, 4.0, 37.0):
        scheme = TauScheme.pps(tau, r=3)
        for _ in range(40):
            v = rng.uniform(0.0, 5.0, 3) * (rng.random(3) > 0.3)
            v[rng.integers(3)] = 0.0
            v = tuple(v.tolist())
            want = 2.0 * math.sqrt(evaluate(f, v)) * tau
            assert check_bounded(v, f, scheme).value == pytest.approx(want, rel=4e-16, abs=0.0)


@pytest.mark.parametrize("seed", [11, 12])
def test_exact_verdicts_equal_the_numeric_oracle(seed):
    checked = 0
    for v, f, scheme in _triples(seed, 240):
        lbf = lb_function(f, v, scheme)
        fv = evaluate(f, v)
        est, bd, fin = _curve_checks(lbf, fv, v, scheme)
        eps = 1e-3 * lbf.head
        o_est = check_estimable_curve(lbf, fv, eps)
        o_bd = check_bounded_curve(lbf, fv, eps)
        o_fin = check_finite_variance_curve(lbf, 64)
        assert (est.ok, bd.ok, fin.ok) == (o_est.ok, o_bd.ok, o_fin.ok) == (True, True, True), (v, f, scheme)
        assert est.value == 0.0
        # the oracle's last ratio is a chord from 0 to eps/4^8: within
        # (p - 1)/2 * |d| u / c <= 1e-8 of the slope at 0+ on a head that
        # stays at or above 0, plus the rounding of f(v) - lb(u) over u
        u = eps * 4.0 ** -8
        noise = 4.0 * np.spacing(fv) / u
        assert abs(bd.value - o_bd.probes[-1]) <= 1e-7 * bd.value + noise, (v, f, scheme)
        checked += 1
    assert checked == 240


def test_ratio_tail_uses_the_exact_slope():
    # one_sided rg:p=2 of (1, 0) under tau* = 1: the head is (1 - u)^2 on
    # (0, 1], the slope at 0+ is 2, and the chord to u_tail is just below
    # it; the certified tail takes the larger, 256 * 4 * 2^-depth
    f = builtin_functions(2)[5]
    rep = competitiveness_ratio((1.0, 0.0), f, TauScheme.pps(1.0, r=2))
    assert rep.diagnostics["bounded_slope"] == 2.0
    assert rep.diagnostics["j_tail_bound"] == 256.0 * 4.0 * 2.0 ** -rep.diagnostics["depth"]
