from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from coordest.functions import lb_function, rg_fn
from coordest.model import (
    Domain,
    InstanceSet,
    Known,
    Outcome,
    PiecewiseLinearMap,
    PpsMap,
    TauScheme,
    Unknown,
    _unit_interval,
    _unit_interval_np,
    hash_seed,
    key_hashes,
    key_seeds,
    mixed_salts,
    seed_cut,
    seeds_for_items,
    seeds_for_salts,
)

from conftest import random_scheme, random_vector
from scalar_reference import is_consistent, sample_item, tau_at


class TestHashSeed:
    def test_deterministic(self):
        assert hash_seed("item-a", 42) == hash_seed("item-a", 42)
        assert hash_seed(17, 3) == hash_seed(17, 3)

    def test_range(self):
        us = seeds_for_items([str(i) for i in range(10_000)], salt=5)
        assert (us > 0.0).all() and (us <= 1.0).all()

    def test_salt_and_id_both_matter(self):
        assert hash_seed("a", 1) != hash_seed("a", 2)
        assert hash_seed("a", 1) != hash_seed("b", 1)

    @pytest.mark.parametrize("family", ["id{}", "key:{}"])
    def test_uniform_over_ids(self, family):
        # marginal uniformity at alpha = 0.01 over 1e5 distinct ids
        us = seeds_for_items([family.format(i) for i in range(100_000)], salt=99)
        assert stats.kstest(us, "uniform").pvalue > 0.01

    def test_uniform_over_salts(self):
        us = seeds_for_salts("some-item", np.arange(100_000, dtype=np.uint64))
        assert stats.kstest(us, "uniform").pvalue > 0.01

    def test_vectorised_paths_match_scalar(self):
        ids = [f"i{k}" for k in range(200)]
        salts = np.arange(200, dtype=np.uint64)
        by_items = seeds_for_items(ids, salt=7)
        for i, item in enumerate(ids):
            assert by_items[i] == hash_seed(item, 7)
        by_salts = seeds_for_salts("i0", salts)
        for s in range(200):
            assert by_salts[s] == hash_seed("i0", s)


    def test_unit_interval_matches_scalar_at_rounding_edges(self):
        hs = {0, 1, 2046, 2047, 2048, 2**53 - 1, 2**53, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1}
        for k in range(53, 65):
            # h + 1 one below, at and one above the midpoint above 2^(k-1)
            mid = 2 ** (k - 1) + 2 ** (k - 1 - 53)
            hs.update(h for h in (mid - 2, mid - 1, mid) if h < 2**64)
        hs = sorted(hs)
        got = _unit_interval_np(np.array(hs, dtype=np.uint64))
        assert got.tolist() == [_unit_interval(h) for h in hs]

    def test_hashes_and_seeds_against_mixed_salts(self):
        salts = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
        mixed = mixed_salts(salts)
        assert salts.tolist() == [0, 5, 2**64 - 1]  # mixing copies
        h = key_hashes(12345, mixed)
        assert key_seeds(12345, mixed).tolist() == [_unit_interval(x) for x in h.tolist()]

    def test_seed_cut_splits_hashes_at_p(self):
        rng = np.random.default_rng(3)
        edge = [_unit_interval(h) for h in (0, 2**53, 2**63, 2**64 - 1025, 2**64 - 1)]
        ps = [1.0, 0.5, 2.0**-64, 2.0**-65, 0.0, *edge, *rng.random(20).tolist()]
        for p in ps:
            cut = seed_cut(p)
            assert -1 <= cut <= 2**64 - 1
            assert cut == -1 or _unit_interval(cut) <= p
            assert cut == 2**64 - 1 or _unit_interval(cut + 1) > p
        assert seed_cut(1.0) == 2**64 - 1
        assert seed_cut(2.0**-64) == 0 and seed_cut(2.0**-65) == -1


class TestTauMaps:
    def test_pps_values(self):
        scheme = TauScheme.pps(4.0, r=1)
        assert tau_at(scheme, 0, 0.5) == 2.0
        assert tau_at(scheme, 0, 1.0) == 4.0

    def test_piecewise_linear_interpolation(self):
        m = PiecewiseLinearMap(((0.0, 0.0), (0.5, 1.0), (1.0, 4.0)))
        scheme = TauScheme((m,))
        assert tau_at(scheme, 0, 0.75) == 2.5

    def test_index_out_of_range(self):
        scheme = TauScheme.pps(4.0, r=2)
        with pytest.raises(IndexError):
            tau_at(scheme, 2, 0.5)

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap(((0.0, 1.0), (1.0, 0.5)))  # decreasing
        with pytest.raises(ValueError):
            PiecewiseLinearMap(((0.1, 0.0), (1.0, 1.0)))  # does not start at 0

    def test_scheme_rejects_unreachable_low_values(self):
        # a map whose smallest threshold exceeds the domain floor could never
        # sample the smallest data values
        m = PiecewiseLinearMap(((0.0, 0.5), (1.0, 2.0)))
        with pytest.raises(ValueError):
            TauScheme((m,))
        TauScheme((m,), domain=Domain(lows=(0.5,)))  # fine once declared

    def test_domain_lows_given_as_a_list(self):
        # lows are stored as a tuple of floats, so a scheme declared with a
        # list is hashable and its curves match the tuple-declared scheme's
        m = PiecewiseLinearMap(((0.0, 0.5), (0.5, 1.0), (1.0, 2.0)))
        listed = TauScheme((m, PpsMap(2.0)), domain=Domain(lows=[0.5, 0]))
        tupled = TauScheme((m, PpsMap(2.0)), domain=Domain(lows=(0.5, 0.0)))
        assert listed.domain.lows == (0.5, 0.0) and hash(listed) == hash(tupled)
        for v in ([0.7, 3.0], [0.5, 0.0], [2.5, 1.0]):
            want, got = lb_function(rg_fn(2.0, 2), v, tupled), lb_function(rg_fn(2.0, 2), v, listed)
            assert got.breakpoints == want.breakpoints and got.head_piece == want.head_piece

    def test_crossings(self):
        assert PpsMap(4.0).crossings(1.0) == (0.25,)
        assert PpsMap(4.0).crossings(5.0) == ()
        m = PiecewiseLinearMap(((0.0, 0.0), (0.5, 1.0), (1.0, 4.0)))
        assert m.crossings(2.5) == (0.75,)


class TestOutcome:
    def test_known_below_threshold_rejected(self, scheme4):
        with pytest.raises(ValueError):
            Outcome(0.5, (Known(1.0), Known(3.0)), scheme4)

    def test_unknown_bound_must_match(self, scheme4):
        with pytest.raises(ValueError):
            Outcome(0.5, (Unknown(1.9), Known(3.0)), scheme4)

    def test_seed_domain(self, scheme4):
        with pytest.raises(ValueError):
            Outcome(0.0, (Unknown(0.0), Unknown(0.0)), scheme4)


class TestConsistency:
    @pytest.fixture()
    def outcome(self, scheme4):
        # seed 0.5: thresholds (2, 2); entry 2 revealed at 3, entry 1 bounded by 2
        return sample_item((1.0, 3.0), 0.5, scheme4)

    def test_matching_candidate(self, outcome):
        assert is_consistent(outcome, (1.9, 3.0))

    def test_strict_bound(self, outcome):
        assert not is_consistent(outcome, (2.0, 3.0))

    def test_known_mismatch(self, outcome):
        assert not is_consistent(outcome, (1.0, 2.9))

    def test_length_mismatch(self, outcome):
        with pytest.raises(ValueError):
            is_consistent(outcome, (1.0, 3.0, 0.0))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            u = float(rng.uniform(1e-6, 1.0))
            assert is_consistent(sample_item(v, u, scheme), v)

    def test_nesting(self):
        # smaller seeds reveal more and constrain the consistent set harder
        rng = np.random.default_rng(1)
        for _ in range(200):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            u, rho = sorted(rng.uniform(1e-6, 1.0, size=2))
            fine = sample_item(v, u, scheme)
            coarse = sample_item(v, rho, scheme)
            known = [{i for i, s in enumerate(o.slots) if isinstance(s, Known)} for o in (coarse, fine)]
            assert known[0] <= known[1]
            z = random_vector(rng)
            if is_consistent(fine, z):
                assert is_consistent(coarse, z)

    def test_suffix_openness(self):
        # consistency extends to all larger seeds, and slightly to the left
        # when the unrevealed coordinates sit strictly below their bounds
        rng = np.random.default_rng(2)
        for _ in range(100):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            rho = float(rng.uniform(0.05, 0.95))
            outcome = sample_item(v, rho, scheme)
            for x in np.linspace(rho, 1.0, 7):
                assert is_consistent(sample_item(v, float(x), scheme), v)
            margin = min(
                (s.bound - z for s, z in zip(outcome.slots, v) if isinstance(s, Unknown)),
                default=None,
            )
            if margin is not None and margin > 1e-3:
                eps = 1e-6
                assert is_consistent(sample_item(v, rho - eps, scheme), v)


class TestInstanceSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            InstanceSet(("a", "a"), np.zeros((2, 2)))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            InstanceSet(("a", "b"), np.array([[1.0, -0.5], [0.0, 0.0]]))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            InstanceSet(("a", "b"), [[1.0, 2.0], [3.0]])

    def test_vector_lookup(self, demo_data):
        assert demo_data.vector("3") == (4.0, 1.0)
        assert demo_data.r == 2
        assert demo_data.n_items == 8

    def test_unknown_id_named(self, demo_data):
        with pytest.raises(ValueError, match="unknown item id '42'"):
            demo_data.vector("42")
        with pytest.raises(ValueError, match="unknown item id '9'"):
            demo_data.indices(["1", "9"])
        assert demo_data.indices(["8", "1"]).tolist() == [7, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match=r"item 'b', instance 2: non-finite"):
            InstanceSet(("a", "b"), np.array([[1.0, 2.0], [0.5, bad]]))
