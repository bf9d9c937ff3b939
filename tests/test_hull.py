from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordest.analysis import (
    RATIO_BOUND,
    check_bounded,
    check_estimable,
    check_finite_variance,
    clamped_variance,
    competitiveness_ratio,
    curve_table,
    implication_chain_ok,
)
from coordest.estimators import j_piece_values, v_optimal_estimates
from coordest.functions import (
    LowerBoundFn,
    evaluate,
    lb_function,
    max_fn,
    min_fn,
    one_sided_rg_fn,
    rg_fn,
)
from coordest.hull import EstimateFn, integrate_square, lower_hull
from coordest.model import TauScheme

from conftest import builtin_functions, random_scheme, random_vector
from limit_oracle import check_bounded_curve, check_estimable_curve, check_finite_variance_curve
from scalar_reference import ht_estimate_fn

ONE_SIDED = one_sided_rg_fn(2, 0, 1, 2)


class TestLowerHull:
    def test_middle_point_above_chord(self):
        h = lower_hull([(0.25, 0.5), (0.5, 0.9), (1.0, 1.0)])
        assert h.vertices == ((0.25, 0.5), (1.0, 1.0))

    def test_collinear_keeps_endpoints(self):
        h = lower_hull([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
        assert h.vertices == ((0.0, 0.0), (1.0, 1.0))

    def test_two_points(self):
        h = lower_hull([(0.2, 1.0), (0.9, 0.1)])
        assert len(h.vertices) == 2

    def test_needs_two_distinct_u(self):
        with pytest.raises(ValueError):
            lower_hull([(0.5, 1.0), (0.5, 0.2)])

    def test_duplicate_u_keeps_min(self):
        h = lower_hull([(0.0, 1.0), (0.5, 5.0), (0.5, 0.0), (1.0, 1.0)])
        assert (0.5, 0.0) in h.vertices

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_dominance_and_convexity(self, pts):
        if len({u for u, _ in pts}) < 2:
            return
        h = lower_hull(pts)
        for u, y in pts:
            assert h.value(u) <= y + 1e-9 * max(1.0, abs(y))
        slopes = h.slopes()
        assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))


class TestIntegrateSquare:
    def test_constant(self):
        e = EstimateFn([0.0], [1.0], [3.0])
        assert integrate_square(e) == 9.0

    def test_callable_piece_rejected(self):
        with pytest.raises(ValueError, match="number"):
            EstimateFn([0.0], [1.0], [lambda u: 2.0 * (1.0 - u)])

    def test_dyadic_terms_of_worked_example(self, scheme1):
        vals = j_piece_values((1.0, 0.0), ONE_SIDED, scheme1, depth=6)
        widths = 2.0 ** -(np.arange(7) + 1.0)
        terms = widths * vals**2
        assert terms[0] == 0.0
        assert terms[1] == pytest.approx(0.25)
        assert terms[2] == pytest.approx(0.78125)

    def test_window(self):
        e = EstimateFn([0.0, 0.5], [0.5, 1.0], [2.0, 1.0])
        assert integrate_square(e, lo=0.25) == pytest.approx(0.25 * 4.0 + 0.5 * 1.0)


class TestVariance:
    def test_hull_derivative_variance_for_parabola(self):
        lb = LowerBoundFn((1.0,), 0.0, lambda xs: (1.0 - xs) ** 2)
        est = v_optimal_estimates(lb, grid_n=512)
        assert clamped_variance(integrate_square(est), 1.0) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_constant_estimator_has_zero_variance(self):
        est = EstimateFn([0.0], [1.0], [2.0])
        assert clamped_variance(integrate_square(est), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_probability_variance(self, scheme4):
        est = ht_estimate_fn((1.0, 3.0), max_fn(2), scheme4)
        got = clamped_variance(integrate_square(est), evaluate(max_fn(2), (1.0, 3.0)))
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_tiny_negative_clamped(self):
        assert clamped_variance(4.0 - 1e-12, 2.0) == 0.0
        assert clamped_variance(4.0 - 1e-6, 2.0) == pytest.approx(-1e-6)

    def test_infinite_second_moment_is_infinite(self):
        assert math.isinf(clamped_variance(math.inf, 2.0))


class TestTinyValues:
    # v = (0, 0, x) under tau = 4 puts the curve's one breakpoint at x / 4;
    # below x = 1e-305 the hull's left anchor, 1e-3 times lower, made
    # math.log10(1 / anchor) infinite and the grid size an OverflowError
    NEIGHBOURS = (1e-310, 1.1e-308, 2.3e-308, 1e-306, 1e-300)

    @pytest.mark.parametrize("x", NEIGHBOURS)
    def test_hull_estimate_keeps_the_mass(self, x):
        scheme = TauScheme.pps(4.0, r=3)
        est = v_optimal_estimates(lb_function(max_fn(3), (0.0, 0.0, x), scheme), grid_n=256)
        assert est.integral() == pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("x", NEIGHBOURS)
    def test_verdicts_match_the_neighbours(self, x):
        scheme = TauScheme.pps(4.0, r=3)
        for f in builtin_functions(3):
            rep = competitiveness_ratio((0.0, 0.0, x), f, scheme)
            assert (rep.estimable, rep.bounded, rep.finite_variance, rep.chain_ok) == (True,) * 4, f.describe()

    def test_square_integral_of_values_whose_squares_overflow(self):
        # (2^600)^2 is past the largest float, its integral over a width of
        # 2^-1000 is not; the 3 on the rest of (0, 1] is lost to rounding
        e = EstimateFn([0.0, 2.0**-1000], [2.0**-1000, 1.0], [2.0**600, 3.0])
        assert integrate_square(e) == 2.0**200
        assert integrate_square(e, lo=np.array([0.0, 0.5])).tolist() == [2.0**200, 4.5]
        # no scaling below 2^500: the bits of the plain sum of squares
        e = EstimateFn([0.0, 0.3], [0.3, 1.0], [2.0**500, 0.1])
        assert integrate_square(e) == 0.0 + 2.0**1000 * 0.3 + 0.1 * 0.1 * 0.7

    def test_hull_of_a_tiny_curve_is_the_scaled_hull(self):
        # cross products of about 2^-1100 underflowed to 0 and dropped
        # every interior vertex
        pts = [(0.1, 2.0), (0.2, 1.9), (0.3, 0.5), (0.6, 0.4), (1.0, 0.0)]
        scaled = lambda vs: tuple((math.ldexp(u, -300), math.ldexp(y, -800)) for u, y in vs)
        assert lower_hull(scaled(pts)).vertices == scaled(lower_hull(pts).vertices)


class TestCharacterizationChecks:
    def test_max_estimable_exactly(self, scheme4):
        res = check_estimable((1.0, 3.0), max_fn(2), scheme4)
        assert res.ok and res.value == 0.0

    def test_one_sided_estimable_in_the_limit(self, scheme1):
        res = check_estimable((1.0, 0.0), ONE_SIDED, scheme1)
        assert res.ok

    def test_persistent_gap_rejected(self):
        res = check_estimable_curve(LowerBoundFn((1.0,), 0.0, lambda us: 0.5 * (1.0 - us)), f_value=1.0)
        assert not res.ok
        assert res.value == pytest.approx(0.5, abs=1e-3)

    def test_bounded_one_sided_slope_two(self, scheme1):
        res = check_bounded((1.0, 0.0), ONE_SIDED, scheme1)
        assert res.ok
        assert res.value == pytest.approx(2.0, abs=1e-3)

    def test_bounded_max_zero_slope(self, scheme4):
        res = check_bounded((1.0, 3.0), max_fn(2), scheme4)
        assert res.ok and res.value == 0.0

    def test_sqrt_gap_unbounded(self):
        res = check_bounded_curve(LowerBoundFn((1.0,), 0.0, lambda us: 1.0 - np.sqrt(us)), f_value=1.0)
        assert not res.ok

    def test_sqrt_gap_still_estimable(self):
        res = check_estimable_curve(LowerBoundFn((1.0,), 0.0, lambda us: 1.0 - np.sqrt(us)), f_value=1.0)
        assert res.ok

    def test_finite_variance_parabola(self):
        lb = LowerBoundFn((1.0,), 0.0, lambda xs: (1.0 - xs) ** 2)
        assert check_finite_variance_curve(lb).ok

    def test_divergent_slope_detected(self):
        lb = LowerBoundFn((1.0,), 0.0, lambda xs: 1.0 - np.sqrt(xs))
        res = check_finite_variance_curve(lb)
        assert not res.ok
        # partial square integrals keep growing instead of settling
        assert res.probes[-1] > res.probes[-3] * 1.05

    def test_zero_function_trivially_finite(self):
        lb = LowerBoundFn((1.0,), 0.0, np.zeros_like)
        assert check_finite_variance_curve(lb).ok

    def test_implication_chain_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            for f in builtin_functions():
                est = check_estimable(v, f, scheme)
                bd = check_bounded(v, f, scheme)
                fv = check_finite_variance(v, f, scheme)
                assert implication_chain_ok(bd.ok, fv.ok, est.ok)


class TestCompetitiveness:
    def test_worked_example_ratio(self, scheme1):
        rep = competitiveness_ratio((1.0, 0.0), ONE_SIDED, scheme1, grid_n=512)
        # dyadic mass 18/7 against optimal mass 4/3
        assert rep.square_integral_j == pytest.approx(18.0 / 7.0, rel=1e-6)
        assert rep.square_integral_opt == pytest.approx(4.0 / 3.0, rel=1e-4)
        assert rep.ratio == pytest.approx(27.0 / 14.0, rel=1e-3)
        assert rep.ratio <= RATIO_BOUND
        assert rep.estimable and rep.finite_variance and rep.bounded

    def test_zero_function_value(self, scheme1):
        rep = competitiveness_ratio((0.0, 1.0), ONE_SIDED, scheme1)
        assert rep.ratio == 1.0
        assert rep.square_integral_j == 0.0 and rep.square_integral_opt == 0.0

    def test_max_within_bound(self, scheme4):
        rep = competitiveness_ratio((1.0, 3.0), max_fn(2), scheme4)
        assert rep.ratio <= RATIO_BOUND
        assert rep.chain_ok

    def test_always_revealed_entry_stays_consistent(self, scheme4):
        # an entry at the threshold is revealed with certainty; the optimal
        # mass must stay positive so the ratio is well defined
        rep = competitiveness_ratio((4.0, 1.0), max_fn(2), scheme4)
        assert rep.square_integral_opt > 0.0
        assert rep.ratio <= RATIO_BOUND

    def test_valid_schemes_are_always_estimable(self):
        # schemes whose maps could leave a gap at seed 0 are rejected at
        # construction, so the non-estimable branch is only reachable through
        # synthetic curves; every accepted scheme must pass the limit check
        rng = np.random.default_rng(33)
        for _ in range(20):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            for f in builtin_functions():
                assert check_estimable(v, f, scheme).ok

    def test_refinement_convergence(self, scheme1):
        rng = np.random.default_rng(32)
        for _ in range(6):
            v = random_vector(rng)
            for f in (ONE_SIDED, rg_fn(2, 2), max_fn(2)):
                lbf = lb_function(f, v, scheme1)
                a = integrate_square(v_optimal_estimates(lbf, grid_n=512))
                b = integrate_square(v_optimal_estimates(lbf, grid_n=1024))
                if a > 0:
                    assert abs(a - b) / a < 1e-4

    def test_ratio_never_below_one(self):
        # the hull optimum is the least achievable squared mass
        rng = np.random.default_rng(34)
        for _ in range(30):
            v = random_vector(rng)
            scheme = random_scheme(rng)
            rep = competitiveness_ratio(v, ONE_SIDED, scheme, grid_n=256)
            assert rep.ratio >= 1.0 - 1e-6

    def test_extreme_scales_stay_classified_and_bounded(self):
        # revelation seeds down to ~1e-12 (huge thresholds over tiny values):
        # probes and hull anchoring must follow the data's own scale
        cases = [
            ((5.49, 0.0), one_sided_rg_fn(2, 0, 1, 2), TauScheme.pps([5.2e5, 6.0e5])),
            ((0.0, 7.9e-7, 0.0), rg_fn(2, 3), TauScheme.pps([4.0e5, 2.5e5, 1.6e5])),
            ((0.0, 2.8e-3, 0.0), rg_fn(2, 3), TauScheme.pps([2.6e5, 3.3e5, 1.8e5])),
            ((1.2e-5, 7.6e-6, 0.0, 9.2e-7), rg_fn(2, 4), TauScheme.pps([931.0, 2088.0, 2596.0, 874.0])),
            ((2.0e3, 1.0e-4), max_fn(2), TauScheme.pps([3.0e3, 0.5])),
        ]
        for v, f, scheme in cases:
            est = check_estimable(v, f, scheme)
            bd = check_bounded(v, f, scheme)
            fv = check_finite_variance(v, f, scheme)
            assert est.ok
            assert implication_chain_ok(bd.ok, fv.ok, est.ok)
            rep = competitiveness_ratio(v, f, scheme, grid_n=256)
            assert 1.0 - 1e-6 <= rep.ratio <= RATIO_BOUND

    def test_inverse_probability_is_optimal_for_max_and_min(self):
        # under a shared PPS threshold the certifying event is a single seed
        # block, so the hull optimum and the inverse-probability estimator
        # coincide for max and min
        from coordest.estimators import v_optimal_estimates as vopt
        from scalar_reference import ht_estimate_fn

        rng = np.random.default_rng(35)
        for _ in range(25):
            scheme = TauScheme.pps(float(rng.uniform(1.0, 4.0)), r=2)
            v = tuple(rng.uniform(0.1, 5.0, size=2))
            for f in (max_fn(2), min_fn(2)):
                sq_ht = integrate_square(ht_estimate_fn(v, f, scheme))
                sq_opt = integrate_square(vopt(lb_function(f, v, scheme), grid_n=256))
                assert sq_opt == pytest.approx(sq_ht, rel=1e-6)


class TestCurveTable:
    def test_columns_are_consistent(self, scheme1):
        grid_n = 64
        sag = 8.0 / grid_n**2  # chord overshoot between hull nodes
        rows = curve_table((1.0, 0.0), ONE_SIDED, scheme1, grid_n=grid_n)
        assert len(rows) > 32
        for u, lb_u, hull_u, j_u, opt_u in rows:
            assert 0.0 < u <= 1.0
            assert hull_u <= lb_u + sag
            assert j_u >= 0.0 and opt_u >= 0.0
