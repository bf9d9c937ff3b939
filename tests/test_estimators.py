from __future__ import annotations

import math

import numpy as np
import pytest

from coordest.estimators import (
    bottomk_estimate,
    dyadic_index,
    dyadic_indices,
    estimate_query,
    exact_query,
    ht_estimate,
    j_estimate,
    j_estimate_fn,
    j_piece_values,
    mc_query_estimates,
    sum_estimate,
    v_optimal_estimates,
)
from coordest.functions import (
    LowerBoundFn,
    evaluate,
    lb_function,
    lower_bound_from_vector,
    max_fn,
    min_fn,
    one_sided_rg_fn,
    rg_fn,
)
from coordest.hull import integrate_square
from coordest.model import InstanceSet, TauScheme
from coordest.samplers import PPS_RANK, bottomk_sample, sample_instances

from conftest import builtin_functions, random_scheme, random_vector
from scalar_reference import ht_estimate_fn, j_cumulative, sample_item


ONE_SIDED = one_sided_rg_fn(2, 0, 1, 2)


class TestDyadicEstimate:
    """The worked one-sided example: v = (1, 0), shared threshold 1, where
    the lower bound is (1-x)^2 whenever only the first entry is revealed."""

    def test_seed_in_second_block(self, scheme1):
        out = sample_item((1.0, 0.0), 0.3, scheme1)
        assert j_estimate(out, ONE_SIDED) == pytest.approx(1.0)

    def test_seed_in_top_block_uses_bound_at_one(self, scheme1):
        for u in (0.51, 0.7, 1.0):
            out = sample_item((1.0, 0.0), u, scheme1)
            assert j_estimate(out, ONE_SIDED) == 0.0

    def test_seed_in_third_block(self, scheme1):
        out = sample_item((1.0, 0.0), 0.2, scheme1)
        assert j_estimate(out, ONE_SIDED) == pytest.approx(2.5)

    def test_dyadic_index_boundaries(self):
        assert dyadic_index(1.0) == 0
        assert dyadic_index(0.5) == 1
        assert dyadic_index(0.25) == 2
        assert dyadic_index(0.26) == 1

    def test_dyadic_index_exact_next_to_powers_of_two(self):
        # floor(-log2(rho)) is one too large one ulp above 2^-i for i >= 5
        us, want = [], []
        for i in range(61):
            for u, idx in (
                (math.ldexp(1.0, -i), i),
                (math.ldexp(1.0 - 2.0**-52, -i), i),
                (math.ldexp(1.0 + 2.0**-52, -i), i - 1),
            ):
                if u > 1.0:
                    continue
                assert dyadic_index(u) == idx, (i, u)
                us.append(u)
                want.append(idx)
        assert dyadic_indices(np.array(us)).tolist() == want

    def test_seed_one_ulp_above_a_power_of_two(self, scheme1):
        # such seeds occur: (h + 1) / 2^64 can be exactly this value
        u = math.ldexp(1.0 + 2.0**-52, -8)
        assert u == (2**56 + 2**4) / 2.0**64
        v = (0.004, 0.0)
        out = sample_item(v, u, scheme1)
        table = j_piece_values(v, ONE_SIDED, scheme1, depth=20)
        assert j_estimate(out, ONE_SIDED) == pytest.approx(table[7], rel=1e-12)
        samples = {"a": out}
        assert estimate_query(samples, 2, "lpp", "j", p=2).value >= 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            for f in builtin_functions():
                for u in rng.uniform(1e-4, 1.0, size=10):
                    assert j_estimate(sample_item(v, float(u), scheme), f) >= 0.0

    def test_matches_piece_table(self):
        # the estimate is constant per dyadic block, so the outcome-driven
        # value must equal the vector-driven table entry
        rng = np.random.default_rng(22)
        for _ in range(40):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            u = float(rng.uniform(2.0**-18, 1.0))
            out = sample_item(v, u, scheme)
            for f in builtin_functions():
                table = j_piece_values(v, f, scheme, depth=20)
                assert j_estimate(out, f) == pytest.approx(table[dyadic_index(u)], rel=1e-12, abs=1e-12)

    def test_outcome_determinism(self, scheme1):
        # two different vectors with the same outcome get the same estimate
        out_a = sample_item((1.0, 0.0), 0.3, scheme1)
        out_b = sample_item((1.0, 0.25), 0.3, scheme1)
        assert out_a.slots == out_b.slots
        assert j_estimate(out_a, ONE_SIDED) == j_estimate(out_b, ONE_SIDED)

    def test_unbiased_under_direct_monte_carlo(self):
        # average of per-outcome estimates over uniform seeds approaches f(v);
        # exercises the outcome path end to end, with no table shortcut
        rng = np.random.default_rng(55)
        cases = [
            ((1.0, 0.0), ONE_SIDED, TauScheme.pps(1.0, r=2)),
            ((1.0, 3.0), rg_fn(2, 2), TauScheme.pps(4.0, r=2)),
            ((2.0, 0.5), max_fn(2), TauScheme.pps([2.0, 3.0])),
        ]
        for v, f, scheme in cases:
            us = rng.uniform(0.0, 1.0, size=20_000)
            us[us == 0.0] = 1.0
            ests = np.array([j_estimate(sample_item(v, float(u), scheme), f) for u in us])
            se = ests.std(ddof=1) / math.sqrt(len(ests))
            truth = evaluate(f, v)
            assert abs(ests.mean() - truth) <= 4.0 * se + 1e-9


class TestDyadicCumulative:
    def test_top_block_integrates_to_bound_at_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            for f in builtin_functions():
                want = lower_bound_from_vector(f, v, scheme, 1.0)
                assert j_cumulative(v, 0.5, f, scheme) == pytest.approx(want, abs=1e-12)

    def test_invariant_at_dyadic_seeds(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            for f in builtin_functions():
                for j in (1, 2, 5, 11):
                    got = j_cumulative(v, 2.0**-j, f, scheme)
                    want = lower_bound_from_vector(f, v, scheme, 2.0 ** (-j + 1))
                    assert got == pytest.approx(want, abs=1e-12)

    def test_worked_example_unbiased(self, scheme1):
        got = j_cumulative((1.0, 0.0), 2.0**-30, ONE_SIDED, scheme1)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_depth_guard(self, scheme1):
        with pytest.raises(ValueError):
            j_cumulative((1.0, 0.0), 2.0**-30, ONE_SIDED, scheme1, depth=10)

    def test_estimate_fn_matches_cumulative(self, scheme1):
        est = j_estimate_fn((1.0, 0.0), ONE_SIDED, scheme1, depth=30)
        for rho in (0.3, 0.11, 0.02):
            want = j_cumulative((1.0, 0.0), rho, ONE_SIDED, scheme1)
            assert est.integral(lo=rho) == pytest.approx(want, abs=1e-12)

    def test_sandwich(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            for f in builtin_functions():
                for rho in rng.uniform(1e-4, 1.0, size=8):
                    rho = float(rho)
                    cum = j_cumulative(v, rho, f, scheme)
                    upper = lower_bound_from_vector(f, v, scheme, rho)
                    lower = (
                        lower_bound_from_vector(f, v, scheme, 4.0 * rho)
                        if 4.0 * rho <= 1.0
                        else 0.0
                    )
                    assert lower - 1e-9 <= cum <= upper + 1e-9


class TestInverseProbability:
    def test_max_certified(self, scheme4):
        out = sample_item((1.0, 3.0), 0.5, scheme4)
        assert ht_estimate(out, max_fn(2)) == pytest.approx(4.0)

    def test_max_empty_sample(self, scheme4):
        out = sample_item((1.0, 3.0), 0.8, scheme4)
        assert ht_estimate(out, max_fn(2)) == 0.0

    def test_min_needs_all_entries(self, scheme4):
        out = sample_item((1.0, 3.0), 0.2, scheme4)
        assert ht_estimate(out, min_fn(2)) == pytest.approx(4.0)
        out = sample_item((1.0, 3.0), 0.5, scheme4)
        assert ht_estimate(out, min_fn(2)) == 0.0

    def test_unsupported_function(self, scheme4):
        out = sample_item((1.0, 3.0), 0.5, scheme4)
        with pytest.raises(ValueError):
            ht_estimate(out, rg_fn(2, 2))

    def test_needs_common_threshold(self):
        scheme = TauScheme.pps([4.0, 2.0])
        out = sample_item((1.0, 3.0), 0.5, scheme)
        with pytest.raises(ValueError):
            ht_estimate(out, max_fn(2))

    def test_exactly_unbiased_by_integral(self, scheme4):
        rng = np.random.default_rng(26)
        for _ in range(40):
            v = random_vector(rng, scale=5.0)
            for f in (max_fn(2), min_fn(2)):
                est = ht_estimate_fn(v, f, scheme4)
                assert est.integral() == pytest.approx(evaluate(f, v), abs=1e-12)

    def test_fn_matches_pointwise(self, scheme4):
        rng = np.random.default_rng(27)
        for _ in range(30):
            v = random_vector(rng, scale=5.0)
            est = ht_estimate_fn(v, max_fn(2), scheme4)
            for u in rng.uniform(0.01, 1.0, size=6):
                out = sample_item(v, float(u), scheme4)
                assert ht_estimate(out, max_fn(2)) == pytest.approx(est.value_at(float(u)))


class TestHullDerivativeEstimates:
    def test_convex_curve_matches_derivative(self):
        lb = LowerBoundFn((1.0,), 0.0, lambda xs: (1.0 - xs) ** 2)
        est = v_optimal_estimates(lb, grid_n=256)
        for lo, hi in zip(est.los.tolist(), est.his.tolist()):
            for u in (lo + 1e-12, 0.5 * (lo + hi), hi):
                assert est.value_at(u) == pytest.approx(2.0 * (1.0 - u), abs=4.0 / 256)
        assert est.integral() == pytest.approx(1.0, abs=1e-6)
        assert integrate_square(est) == pytest.approx(4.0 / 3.0, abs=1e-4)

    def test_step_curve_gives_chord(self):
        lb = LowerBoundFn((0.5, 1.0), 0.0, lambda xs: np.where(xs <= 0.5, 1.0, 0.0))
        est = v_optimal_estimates(lb, grid_n=64)
        assert est.value_at(0.25) == pytest.approx(2.0, abs=1e-9)
        assert est.value_at(0.75) == 0.0

    def test_constant_curve_keeps_certain_mass(self):
        # a flat curve means the value is revealed at every seed; the best
        # unbiased estimator is the constant itself (zero variance)
        lb = LowerBoundFn((1.0,), 0.0, lambda xs: np.full_like(xs, 3.0))
        est = v_optimal_estimates(lb, grid_n=64)
        assert est.integral() == pytest.approx(3.0, abs=1e-9)
        assert est.value_at(0.4) == pytest.approx(3.0, abs=1e-9)

    def test_grid_guard(self):
        lb = LowerBoundFn((1.0,), 0.0, lambda xs: 1.0 - xs)
        with pytest.raises(ValueError):
            v_optimal_estimates(lb, grid_n=1)

    def test_monotone_nonincreasing_values(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            for f in builtin_functions():
                est = v_optimal_estimates(lb_function(f, v, scheme), grid_n=128)
                vals = est.values.tolist()
                assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_feasibility_against_lower_bound(self):
        # the cumulative optimal estimate never exceeds the bound: exact at
        # the hull's own nodes, within the chord sag (O(1/grid_n^2)) between
        rng = np.random.default_rng(29)
        grid_n = 128
        for _ in range(20):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            sag = 8.0 * max(m.tau_star for m in scheme.maps) ** 2 / grid_n**2
            for f in builtin_functions():
                lbf = lb_function(f, v, scheme)
                est = v_optimal_estimates(lbf, grid_n=grid_n)
                for hi in est.his[:: max(1, len(est.his) // 16)].tolist():
                    assert est.integral(lo=hi) <= lbf.value(hi) + 1e-9
                for rho in rng.uniform(1e-3, 1.0, size=8):
                    rho = float(rho)
                    assert est.integral(lo=rho) <= lbf.value(rho) + sag


class TestQueries:
    def test_exact_golden_values(self, demo_data):
        assert exact_query(demo_data, "lpp", ["1", "2", "3", "4"], p=2).value == 18.0
        assert exact_query(demo_data, "l1", ["1", "3"]).value == 5.0
        assert exact_query(demo_data, "maxsum", ["6", "7", "8"]).value == 7.0

    def test_lp_is_root_of_lpp(self, demo_data):
        lpp = exact_query(demo_data, "lpp", p=2).value
        lp = exact_query(demo_data, "lp", p=2).value
        assert lp == pytest.approx(math.sqrt(lpp))

    def test_jaccard_bounds(self, demo_data, scheme4):
        exact = exact_query(demo_data, "jaccard")
        assert 0.0 <= exact.value <= 1.0
        samples = sample_instances(demo_data, scheme4, salt=5)
        est = estimate_query(samples, 2, "jaccard", "j")
        assert 0.0 <= est.value <= 1.0

    def test_sum_estimate_records_contributions(self, demo_data, scheme4):
        samples = sample_instances(demo_data, scheme4, salt=1)
        res = sum_estimate(samples, rg_fn(2, 2), "j", ["1", "2", "3", "4"])
        assert len(res.per_item) == 4
        assert res.value == pytest.approx(sum(c for _, c in res.per_item))

    def test_empty_data_yields_zero(self, scheme4):
        empty = InstanceSet((), np.empty((0, 2)))
        assert exact_query(empty, "maxsum").value == 0.0
        assert exact_query(empty, "jaccard").value == 0.0
        samples = sample_instances(empty, scheme4, salt=0)
        assert estimate_query(samples, 2, "l1", "j").value == 0.0

    def test_voptimal_oracle_needs_data(self, demo_data, scheme4):
        samples = sample_instances(demo_data, scheme4, salt=1)
        with pytest.raises(ValueError):
            sum_estimate(samples, rg_fn(2, 2), "voptimal-oracle", ["1"])
        res = sum_estimate(samples, rg_fn(2, 2), "voptimal-oracle", ["1"], data=demo_data)
        assert res.value >= 0.0

    def test_mc_fast_path_matches_per_salt_loop(self, demo_data, scheme4):
        ids = ["1", "2", "3", "4"]
        salts = np.arange(40, dtype=np.uint64)
        fast = mc_query_estimates(demo_data, scheme4, "lpp", ids, salts, p=2, estimator="j")
        for s in (0, 7, 23, 39):
            samples = sample_instances(demo_data, scheme4, salt=s)
            slow = estimate_query(samples, 2, "lpp", "j", ids, p=2)
            assert fast[s] == slow.value

    def test_mc_ht_path_matches_per_salt_loop(self, demo_data, scheme4):
        ids = list(demo_data.item_ids)
        salts = np.arange(25, dtype=np.uint64)
        fast = mc_query_estimates(demo_data, scheme4, "maxsum", ids, salts, estimator="ht")
        for s in (0, 11, 24):
            samples = sample_instances(demo_data, scheme4, salt=s)
            slow = estimate_query(samples, 2, "maxsum", "ht", ids)
            assert fast[s] == slow.value

    def test_mc_unbiased_for_sums(self, demo_data, scheme4):
        salts = np.arange(20_000, dtype=np.uint64)
        ests = mc_query_estimates(demo_data, scheme4, "minsum", list(demo_data.item_ids), salts)
        exact = exact_query(demo_data, "minsum").value
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - exact) <= 3.0 * se


class TestBottomKEstimation:
    def test_subset_sum_unbiased(self):
        values = {str(i): float(v) for i, v in enumerate((1, 4, 1, 2, 3, 1, 5, 2), start=1)}
        total = sum(values.values())
        rng_salts = range(4000)
        estimates = []
        for salt in rng_salts:
            sample = bottomk_sample(values, 3, PPS_RANK, salt)
            estimates.append(bottomk_estimate(sample, "sum", "ht").value)
        estimates = np.array(estimates)
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - total) <= 4.0 * se

    def test_distinct_counts_members_only(self):
        values = {"a": 2.0, "b": 1.0, "c": 3.0, "d": 0.5}
        sample = bottomk_sample(values, 2, PPS_RANK, salt=9)
        res = bottomk_estimate(sample, "distinct", "ht")
        assert len(res.per_item) == 2
        assert res.value >= 2.0  # each member contributes 1/p >= 1

    def test_dyadic_variant_requires_pps_ranks(self):
        from coordest.samplers import EXP_RANK

        values = {"a": 2.0, "b": 1.0, "c": 3.0, "d": 0.5}
        sample = bottomk_sample(values, 2, EXP_RANK, salt=9)
        with pytest.raises(ValueError):
            bottomk_estimate(sample, "sum", "j")

    def test_dyadic_variant_runs_on_pps_ranks(self):
        values = {"a": 2.0, "b": 1.0, "c": 3.0, "d": 0.5}
        sample = bottomk_sample(values, 2, PPS_RANK, salt=9)
        res = bottomk_estimate(sample, "sum", "j")
        assert res.value >= 0.0
