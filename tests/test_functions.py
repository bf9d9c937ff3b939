from __future__ import annotations

import numpy as np
import pytest

from coordest.analysis import (
    check_bounded,
    check_estimable,
    check_finite_variance,
    competitiveness_ratio,
    competitiveness_reports,
    curve_table,
)
from coordest.functions import (
    domain_infimum,
    evaluate,
    lb_function,
    lb_functions,
    lower_bound,
    lower_bound_from_vector,
    max_fn,
    min_fn,
    one_sided_rg_fn,
    or_fn,
    parse_function,
    rg_fn,
)
from coordest.model import Domain, PiecewiseLinearMap, TauScheme

from conftest import builtin_functions, random_scheme, random_vector
from scalar_reference import brute_force_lower_bound, is_consistent, lb_breakpoints, sample_item


class TestEvaluate:
    def test_worked_values(self):
        assert evaluate(rg_fn(2, 2), (1.0, 3.0)) == 4.0
        assert evaluate(max_fn(2), (2.0, 3.0)) == 3.0
        assert evaluate(one_sided_rg_fn(2, 0, 1, 2), (1.0, 0.0)) == 1.0
        assert evaluate(min_fn(2), (1.0, 3.0)) == 1.0
        assert evaluate(or_fn(2), (0.0, 0.0)) == 0.0
        assert evaluate(or_fn(2), (0.0, 0.1)) == 1.0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(max_fn(2), (1.0,))
        # a vector of the scheme's arity but not the function's: every
        # curve and check refuses it, a one-sided range whose hi or lo
        # lies past the vector too
        scheme, v = TauScheme.pps(4.0, r=2), [1.0, 0.5]
        for f in (rg_fn(2.0, 3), max_fn(3), one_sided_rg_fn(2.0, 2, 0, 3), one_sided_rg_fn(2.0, 0, 2, 3)):
            calls = [lambda: lb_function(f, v, scheme), lambda: lb_functions(f, [v], scheme),
                     lambda: lower_bound_from_vector(f, v, scheme, 0.5), lambda: curve_table(v, f, scheme),
                     lambda: competitiveness_ratio(v, f, scheme)]
            calls += [lambda check=check: check(v, f, scheme)
                      for check in (check_estimable, check_bounded, check_finite_variance)]
            for call in calls:
                with pytest.raises(ValueError, match=r"^vector arity 2 != function arity 3$"):
                    call()
        # a vector of neither arity names the scheme's first
        with pytest.raises(ValueError, match="^vector arity does not match scheme$"):
            lb_function(rg_fn(2.0, 3), [1.0], scheme)
        with pytest.raises(ValueError, match="^vector arity does not match scheme$"):
            lower_bound_from_vector(rg_fn(2.0, 3), [1.0, 0.5, 0.25], scheme, 0.5)

    def test_a_vector_of_neither_arity_names_the_scheme_first(self):
        # every curve, check and report names the scheme's arity first, the
        # analysis blocks as the curves do
        scheme, f = TauScheme.pps(4.0, r=2), rg_fn(2.0, 3)
        for v in ([1.0], [1.0, 0.5, 0.25, 0.125]):
            calls = [lambda: lb_function(f, v, scheme), lambda: lb_functions(f, [v], scheme),
                     lambda: lower_bound_from_vector(f, v, scheme, 0.5), lambda: curve_table(v, f, scheme),
                     lambda: competitiveness_ratio(v, f, scheme),
                     lambda: next(competitiveness_reports(np.array([v]), f, scheme))]
            calls += [lambda check=check: check(v, f, scheme)
                      for check in (check_estimable, check_bounded, check_finite_variance)]
            for call in calls:
                with pytest.raises(ValueError, match="^vector arity does not match scheme$"):
                    call()

    def test_parse_round_trip(self):
        for spec in ("max", "min", "or", "rg:p=2", "one_sided_rg:p=2,hi=1,lo=2"):
            f = parse_function(spec, 2)
            assert parse_function(f.describe(), 2) == f
        with pytest.raises(ValueError):
            parse_function("median", 2)

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf")])
    def test_exponent_must_be_positive_and_finite(self, p):
        with pytest.raises(ValueError, match="positive finite exponent"):
            rg_fn(p, 2)
        with pytest.raises(ValueError, match="positive finite exponent"):
            one_sided_rg_fn(p, 0, 1, 2)

    def test_parse_defaults_and_alias(self):
        assert parse_function("rg", 2) == parse_function("rg:p=1", 2) == rg_fn(1.0, 2)
        assert parse_function("osrg:lo=1,hi=2", 2) == one_sided_rg_fn(1.0, 1, 0, 2)


class TestLowerBoundClosedForms:
    def test_one_sided_single_entry(self, scheme1):
        # only the first entry revealed: bound is max(0, v1 - x)^2
        f = one_sided_rg_fn(2, 0, 1, 2)
        out = sample_item((1.0, 0.0), 0.3, scheme1)
        for x in (0.3, 0.5, 0.8, 1.0):
            assert lower_bound(f, out, x) == pytest.approx(max(0.0, 1.0 - x) ** 2)

    def test_one_sided_both_entries(self, scheme1):
        # both revealed: bound is max(0, v1 - max(v2, x))^2
        f = one_sided_rg_fn(2, 0, 1, 2)
        out = sample_item((0.9, 0.4), 0.2, scheme1)
        for x in (0.2, 0.4, 0.6, 0.95):
            assert lower_bound(f, out, x) == pytest.approx(max(0.0, 0.9 - max(0.4, x)) ** 2)

    def test_max_with_unknown_below_known(self, scheme4):
        out = sample_item((1.0, 3.0), 0.5, scheme4)  # Known 3, Unknown(2)
        assert lower_bound(f=max_fn(2), outcome=out, x=0.5) == 3.0

    def test_requires_x_at_or_above_seed(self, scheme4):
        out = sample_item((1.0, 3.0), 0.5, scheme4)
        with pytest.raises(ValueError):
            lower_bound(max_fn(2), out, 0.4)

    def test_domain_infimum(self):
        assert domain_infimum(max_fn(2), Domain.default(2)) == 0.0
        assert domain_infimum(or_fn(2), Domain.default(2)) == 0.0
        assert domain_infimum(or_fn(2), Domain(lows=(0.5, 0.0))) == 1.0
        assert domain_infimum(min_fn(2), Domain(lows=(0.5, 2.0))) == 0.5


class TestBruteForceOracle:
    def test_all_known_equals_eval(self, scheme4):
        out = sample_item((4.0, 3.9), 0.5, scheme4)
        for f in builtin_functions():
            for n in (4, 16, 64):
                assert brute_force_lower_bound(f, out, 0.5, n) == evaluate(f, (4.0, 3.9))

    def test_one_sided_against_closed_form(self, scheme1):
        f = one_sided_rg_fn(2, 0, 1, 2)
        out = sample_item((1.0, 0.0), 0.5, scheme1)
        got = brute_force_lower_bound(f, out, 0.5, grid_n=200)
        assert got == pytest.approx(0.25, abs=1.0 / 200 * 2)

    def test_nothing_sampled_goes_to_zero(self, scheme4):
        out = sample_item((1.0, 1.0), 0.5, scheme4)  # thresholds (2, 2): nothing revealed
        assert brute_force_lower_bound(max_fn(2), out, 0.5, 32) == 0.0

    def test_agreement_on_random_outcomes(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            assert_matches_oracle(random_scheme(rng), random_vector(rng), rng)

    def test_agreement_under_a_nonzero_domain(self):
        # instance 1 holds no value below 0.5: its free entries range over
        # [0.5, tau_1(x))
        rng = np.random.default_rng(8)
        for scheme, v in nonzero_domain_cases(rng):
            assert_matches_oracle(scheme, v, rng)

    def test_curve_turns_where_a_map_crosses_the_domain_low(self):
        for scheme, v in nonzero_domain_cases(np.random.default_rng(9)):
            for f in builtin_functions():
                bps = set(lb_function(f, v, scheme).breakpoints)
                for m in scheme.maps:
                    assert set(m.crossing_seeds([0.5])[1].tolist()) <= bps


def nonzero_domain_cases(rng, n: int = 60):
    """``n`` random (scheme, vector) pairs under the domain lows (0.5, 0): a
    pps map for instance 1, and a pps or a piecewise-linear one for
    instance 2; the first entry of each vector is at least 0.5."""
    domain = Domain(lows=(0.5, 0.0))
    for k in range(n):
        t1, t2 = rng.uniform(0.5, 4.0, size=2)
        second = PiecewiseLinearMap.pps(t2) if k % 2 else PiecewiseLinearMap(((0.0, 0.0), (0.5, 0.25 * t2), (1.0, t2)))
        v = random_vector(rng)
        yield TauScheme((PiecewiseLinearMap.pps(t1), second), domain=domain), (max(v[0], 0.5), v[1])


def assert_matches_oracle(scheme: TauScheme, v, rng, grid_n: int = 80) -> None:
    """The closed-form lower bound of every built-in function at a random
    seed of a random outcome of ``v`` is the grid oracle's, up to the
    oracle's grid step times the function's Lipschitz constant."""
    rho = float(rng.uniform(0.05, 1.0))
    x = float(rng.uniform(rho, 1.0))
    out = sample_item(v, rho, scheme)
    taus = [m.value(x) for m in scheme.maps]
    for f in builtin_functions():
        exact = lower_bound(f, out, x)
        grid = brute_force_lower_bound(f, out, x, grid_n)
        p = f.p or 1.0
        scale = max([1.0, *taus, *v]) ** max(p - 1.0, 0.0)
        lip = 2.0 * p * scale if f.kind in ("rg", "one_sided_rg") else 1.0
        step = max(taus) / grid_n
        assert grid >= exact - 1e-12
        assert grid - exact <= lip * step * len(v) + 1e-12


class TestLowerBoundProperties:
    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            xs = np.linspace(1e-4, 1.0, 101)
            for f in builtin_functions():
                lbs = lower_bound_from_vector(f, v, scheme, xs)
                assert (np.diff(lbs) <= 1e-12).all()

    def test_left_continuity_at_breakpoints(self):
        # power-of-two thresholds keep the tie tau(v/tau*) == v exact in
        # floats, so the value at a breakpoint belongs to its left piece
        rng = np.random.default_rng(4)
        for _ in range(20):
            stars = rng.choice([0.5, 1.0, 2.0, 4.0], size=2)
            scheme = TauScheme.pps([float(t) for t in stars])
            v = random_vector(rng)
            for f in builtin_functions():
                lbf = lb_function(f, v, scheme)
                for b in lbf.breakpoints:
                    if b - 1e-3 <= 0:
                        continue
                    gaps = [abs(lbf.value(b - d) - lbf.value(b)) for d in (1e-3, 1e-6, 1e-9)]
                    assert gaps[2] <= 1e-6 * max(1.0, lbf.value(b - 1e-3))

    def test_outcome_determinism(self):
        # the bound depends only on what the outcome shows, not on which
        # consistent vector produced it
        rng = np.random.default_rng(5)
        for _ in range(60):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            rho = float(rng.uniform(0.05, 0.9))
            out = sample_item(v, rho, scheme)
            z = random_vector(rng)
            if not is_consistent(out, z):
                continue
            out_z = sample_item(z, rho, scheme)
            for f in builtin_functions():
                for x in np.linspace(rho, 1.0, 5):
                    assert lower_bound(f, out, float(x)) == lower_bound(f, out_z, float(x))

    def test_bound_dominance(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            rho = float(rng.uniform(0.05, 0.9))
            out = sample_item(v, rho, scheme)
            # random consistent candidate: keep knowns, shrink unknowns
            z = []
            for slot, vi, lo in zip(out.slots, v, scheme.domain.lows):
                if hasattr(slot, "value"):
                    z.append(slot.value)
                else:
                    z.append(float(lo + rng.random() * (slot.bound - lo) * 0.999))
            assert is_consistent(out, z)
            for f in builtin_functions():
                for x in np.linspace(rho, 1.0, 5):
                    assert lower_bound(f, out, float(x)) <= evaluate(f, z) + 1e-12


class TestPiecewiseRepresentation:
    def test_one_sided_single_piece(self, scheme1):
        f = one_sided_rg_fn(2, 0, 1, 2)
        out = sample_item((1.0, 0.0), 0.3, scheme1)
        lbf = lb_breakpoints(f, out)
        assert lbf.breakpoints == (1.0,)
        xs = np.linspace(0.3, 1.0, 33)
        assert np.allclose(lbf.value(xs), (1.0 - xs) ** 2)

    def test_max_two_pieces(self, scheme4):
        f = max_fn(2)
        out = sample_item((1.0, 3.0), 0.1, scheme4)
        lbf = lb_breakpoints(f, out)
        assert 0.75 in lbf.breakpoints
        assert lbf.value(0.6) == 3.0
        assert lbf.value(0.75) == 3.0
        assert lbf.value(0.76) == 0.0

    def test_nothing_sampled_constant_zero(self, scheme4):
        out = sample_item((1.0, 1.0), 0.6, scheme4)
        lbf = lb_breakpoints(max_fn(2), out)
        xs = np.linspace(0.6, 1.0, 9)
        assert (lbf.value(xs) == 0.0).all()

    def test_matches_pointwise_lower_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            rho = float(rng.uniform(0.05, 0.9))
            out = sample_item(v, rho, scheme)
            for f in builtin_functions():
                lbf = lb_breakpoints(f, out)
                for x in rng.uniform(rho, 1.0, size=8):
                    assert lbf.value(float(x)) == lower_bound(f, out, float(x))

    def test_full_curve_matches_vector_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            for f in builtin_functions():
                lbf = lb_function(f, v, scheme)
                xs = rng.uniform(1e-6, 1.0, size=16)
                assert np.array_equal(lbf.value(xs), lower_bound_from_vector(f, v, scheme, xs))

    def test_piecewise_linear_scheme_breakpoints(self):
        # the kink at u = 0.5 must show up as a breakpoint
        scheme = TauScheme((PiecewiseLinearMap(((0.0, 0.0), (0.5, 1.0), (1.0, 4.0))),))
        lbf = lb_function(max_fn(1), (2.0,), scheme)
        assert 0.5 in lbf.breakpoints
