from __future__ import annotations

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordest.model import (
    InstanceSet,
    Known,
    PiecewiseLinearMap,
    TauScheme,
    Unknown,
    hash_seed,
    seeds_for_salts,
)
from coordest.samplers import (
    EXP_RANK,
    PPS_RANK,
    BottomKSample,
    bottomk_sample,
    inclusion_probability,
    rank_values,
    read_samples,
    sample_instances,
    write_samples,
)

from conftest import DEMO_PROBS_1, DEMO_PROBS_2
from scalar_reference import conditional_threshold, rank_value, sample_item, samples_of, tau_at


class TestSampleItem:
    def test_rule_application(self, scheme4):
        out = sample_item((1.0, 3.0), 0.5, scheme4)
        assert out.slots == (Unknown(2.0), Known(3.0))

    def test_tie_is_sampled(self, scheme4):
        out = sample_item((4.0, 1.0), 1.0, scheme4)
        assert out.slots == (Known(4.0), Unknown(4.0))

    def test_coordination_of_nested_values(self, scheme4):
        # v = (1, 3): whenever instance 1 reveals the item, so does instance 2
        for u in np.linspace(0.001, 1.0, 777):
            out = sample_item((1.0, 3.0), float(u), scheme4)
            if isinstance(out.slots[0], Known):
                assert isinstance(out.slots[1], Known)

    def test_zero_never_sampled(self, scheme4):
        for u in np.linspace(0.001, 1.0, 99):
            out = sample_item((0.0, 2.0), float(u), scheme4)
            assert isinstance(out.slots[0], Unknown)

    def test_coordination_monotone_in_values(self):
        # coordinate-wise larger data reveals a superset of entries
        rng = np.random.default_rng(11)
        scheme = TauScheme.pps([2.0, 3.0])
        for _ in range(300):
            v = rng.uniform(0, 3, size=2)
            w = v + rng.uniform(0, 1, size=2)
            u = float(rng.uniform(0.01, 1.0))
            sv = {i for i, s in enumerate(sample_item(tuple(v), u, scheme).slots) if isinstance(s, Known)}
            sw = {i for i, s in enumerate(sample_item(tuple(w), u, scheme).slots) if isinstance(s, Known)}
            assert sv <= sw


class TestSampleInstances:
    def test_inclusion_probabilities_monte_carlo(self, demo_data, scheme4):
        salts = np.arange(100_000, dtype=np.uint64)
        for idx, (item, v) in enumerate(zip(demo_data.item_ids, demo_data.matrix.tolist())):
            us = seeds_for_salts(item, salts)
            for inst, expected in ((0, DEMO_PROBS_1[idx]), (1, DEMO_PROBS_2[idx])):
                freq = float((v[inst] >= 4.0 * us).mean())
                assert freq == pytest.approx(expected, abs=0.01)

    def test_outcomes_keyed_by_item(self, demo_data, scheme4):
        outcomes = sample_instances(demo_data, scheme4, salt=3)
        assert set(outcomes) == set(demo_data.item_ids)
        for item, v in zip(demo_data.item_ids, demo_data.matrix.tolist()):
            assert outcomes[item].seed == hash_seed(item, 3)


class TestRankValue:
    def test_pps(self):
        assert rank_value(PPS_RANK, 0.25, 2.0) == 8.0

    def test_exp(self):
        assert rank_value(EXP_RANK, math.exp(-1.0), 3.0) == pytest.approx(3.0)

    def test_zero_value(self):
        for u in (0.2, 1.0):
            assert rank_value(PPS_RANK, u, 0.0) == 0.0
            assert rank_value(EXP_RANK, u, 0.0) == 0.0

    def test_exp_boundary(self):
        assert rank_value(EXP_RANK, 1.0, 2.0) == math.inf

    def test_monotone_in_value(self):
        us = np.linspace(0.05, 1.0, 20)
        for rf in (PPS_RANK, EXP_RANK):
            for u in us:
                r = [rank_value(rf, float(u), v) for v in np.linspace(0, 5, 21)]
                assert all(b >= a for a, b in zip(r, r[1:]))

    def test_monotone_in_seed(self):
        # pps ranks fall with the seed; exp ranks rise (the k highest ranks
        # are kept either way)
        vs = np.linspace(0.5, 5, 10)
        us = np.linspace(0.05, 0.999, 30)
        for v in vs:
            pps = rank_values(PPS_RANK, us, float(v))
            exp = rank_values(EXP_RANK, us, float(v))
            assert (np.diff(pps) <= 0).all()
            assert (np.diff(exp) >= 0).all()

    def test_vectorised_matches_scalar(self):
        us = np.linspace(0.01, 1.0, 50)
        for rf in (PPS_RANK, EXP_RANK):
            vec = rank_values(rf, us, 2.5)
            for u, r in zip(us, vec):
                assert r == rank_value(rf, float(u), 2.5)


class TestBottomK:
    def test_threshold_by_hand(self):
        ranks = {"a": 5.0, "b": 3.0, "c": 2.0, "d": 1.0}
        # second largest among the others of a: {3, 2, 1} -> 2
        assert conditional_threshold(ranks, "a", 2) == 2.0
        assert conditional_threshold(ranks, "b", 2) == 2.0
        assert conditional_threshold(ranks, "c", 2) == 3.0

    def test_members_are_top_k(self):
        values = {str(i): float(i) for i in range(1, 9)}
        sample = bottomk_sample(values, 3, PPS_RANK, salt=12)
        ranks = {i: rank_value(PPS_RANK, hash_seed(i, 12), v) for i, v in values.items()}
        expected = sorted(values, key=lambda i: (-ranks[i], i))[:3]
        assert list(sample.item_ids) == expected

    def test_membership_iff_rank_at_threshold(self):
        values = {str(i): float(v) for i, v in enumerate((1, 4, 1, 2, 3, 1, 5, 2), start=1)}
        for salt in range(20):
            sample = bottomk_sample(values, 3, PPS_RANK, salt=salt)
            ranks = {i: rank_value(PPS_RANK, hash_seed(i, salt), v) for i, v in values.items()}
            # (k+1)-st largest overall
            assert sample.threshold == sorted(ranks.values(), reverse=True)[3]
            for item, rank in zip(sample.item_ids, sample.ranks):
                assert rank >= sample.threshold
                assert sample.threshold == conditional_threshold(ranks, item, 3)

    @pytest.mark.parametrize("rf", [PPS_RANK, EXP_RANK])
    def test_thresholds_match_reference_bit_for_bit(self, rf):
        # every member's threshold read off the one sort equals the
        # k-th largest rank among the other items, ties and zeros included
        rng = np.random.default_rng(41)
        raw = rng.choice([0.0, 0.5, 1.0, 2.5, *rng.uniform(0, 5, 40)], size=400)
        values = {f"id{j}": float(x) for j, x in enumerate(raw)}
        for salt in (0, 3, 2**63 + 5):
            ranks = {i: rank_value(rf, hash_seed(i, salt), v) for i, v in values.items()}
            for k in (1, 7, 150):
                sample = bottomk_sample(values, k, rf, salt)
                for item, value, u, rank in zip(sample.item_ids, sample.values, sample.seeds, sample.ranks):
                    assert value == values[item]
                    assert u == hash_seed(item, salt)
                    assert rank == ranks[item]
                    assert sample.threshold == conditional_threshold(ranks, item, k)

    def test_sample_invariants(self):
        # k members, none ranked below the threshold; the threshold is one
        # field, so the members share it by construction
        cols = (("a", "b"), (1.0, 2.0), (0.5, 0.25), (2.0, 8.0))
        assert BottomKSample(2, PPS_RANK, 2.0, *cols).threshold == 2.0
        with pytest.raises(ValueError, match="member count must equal k"):
            BottomKSample(3, PPS_RANK, 2.0, *cols)
        with pytest.raises(ValueError, match="member count must equal k"):
            BottomKSample(2, PPS_RANK, 2.0, ("a",), *cols[1:])
        with pytest.raises(ValueError, match="no member can rank below the threshold"):
            BottomKSample(2, PPS_RANK, 2.5, *cols)

    def test_k_too_large(self):
        values = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(ValueError):
            bottomk_sample(values, 3, PPS_RANK, salt=0)

    def test_k_exceeds_positive_count(self):
        values = {"a": 1.0, "b": 2.0, "c": 0.0, "d": 0.0}
        with pytest.raises(ValueError):
            bottomk_sample(values, 2, PPS_RANK, salt=0)

    @pytest.mark.parametrize("rf", [PPS_RANK, EXP_RANK])
    def test_conditional_inclusion_law(self, rf):
        # fix all other seeds, redraw one item's seed: the inclusion
        # frequency must match the probability of clearing the threshold
        values = {str(i): float(v) for i, v in enumerate((1, 4, 1, 2, 3, 1, 5, 2), start=1)}
        base_salt = 5
        k = 3
        ranks = {i: rank_value(rf, hash_seed(i, base_salt), v) for i, v in values.items()}
        item = "4"
        threshold = conditional_threshold(ranks, item, k)
        redraws = seeds_for_salts("redraw", np.arange(30_000, dtype=np.uint64))
        freq = float((rank_values(rf, redraws, values[item]) >= threshold).mean())
        assert freq == pytest.approx(inclusion_probability(rf, values[item], threshold), abs=0.02)


class TestSerialization:
    def test_round_trip_bit_exact(self, scheme4):
        rng = np.random.default_rng(13)
        outcomes = {}
        for i in range(50):
            v = tuple(rng.uniform(0, 5, size=2))
            outcomes[f"item{i}"] = sample_item(v, float(rng.uniform(0.01, 1.0)), scheme4)
        buf = io.StringIO()
        write_samples(samples_of(outcomes), buf)
        buf.seek(0)
        loaded = read_samples(buf, scheme4)
        assert loaded == outcomes

    @given(
        v1=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        v2=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        salt=st.integers(min_value=0, max_value=2**63),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_any_floats(self, v1, v2, salt):
        scheme = TauScheme.pps(4.0, r=2)
        out = sample_item((v1, v2), hash_seed("x", salt), scheme)
        buf = io.StringIO()
        write_samples(samples_of({"x": out}), buf)
        buf.seek(0)
        assert read_samples(buf, scheme) == {"x": out}

    def test_columns_write_the_per_outcome_records(self, demo_data, scheme4):
        samples = sample_instances(demo_data, scheme4, salt=8)
        buf = io.StringIO()
        write_samples(samples, buf)
        want = ""
        for item in demo_data.item_ids:
            o = sample_item(demo_data.vector(item), hash_seed(item, 8), scheme4)
            slots = [{"known": s.value} if isinstance(s, Known) else {"unknown_ub": s.bound} for s in o.slots]
            want += json.dumps({"item": item, "seed": o.seed, "slots": slots}) + "\n"
        assert buf.getvalue() == want

    def test_samples_read_as_a_mapping(self, demo_data, scheme4):
        samples = sample_instances(demo_data, scheme4, salt=2)
        assert len(samples) == 8 and list(samples) == list(demo_data.item_ids)
        assert samples == {i: samples[i] for i in demo_data.item_ids}
        assert "9" not in samples
        with pytest.raises(KeyError):
            samples["9"]

    def test_values_and_items_give_the_looked_up_outcomes(self, demo_data, scheme4):
        drawn = sample_instances(demo_data, scheme4, salt=5)
        buf = io.StringIO()
        write_samples(drawn, buf)
        buf.seek(0)
        for samples in (drawn, read_samples(buf, scheme4)):
            by_id = [samples[i] for i in demo_data.item_ids]
            assert list(samples.values()) == by_id
            assert list(samples.items()) == list(zip(demo_data.item_ids, by_id))

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"item": "b", "seed": 0.0, "slots": [{"known": 3.0}, {"unknown_ub": 0.0}]}',
             r"line 3: seed must lie in \(0, 1\]"),
            ('{"item": "b", "seed": 0.5, "slots": [{"known": 1.5}, {"unknown_ub": 2.0}]}',
             r"line 3: slot 0: known value 1.5 below threshold 2.0"),
            ('{"item": "b", "seed": 0.5, "slots": [{"known": 3.0}, {"unknown_ub": 1.9}]}',
             r"line 3: slot 1: unknown bound 1.9 != tau\(0.5\) = 2.0"),
            ('{"item": "b", "seed": 0.5, "slots": [{"known": 3.0}]}', r"line 3: 1 slots for 2 instances"),
            ('{"item": "a", "seed": 0.5, "slots": [{"known": 3.0}, {"unknown_ub": 2.0}]}',
             r"line 3: duplicate item 'a'"),
            ('{"item": "b", "seed": 0.5}', r"line 3: missing key 'slots'"),
            ('{"item": "b", "slots": [{"known": 3.0}, {"unknown_ub": 2.0}]}', r"line 3: missing key 'seed'"),
            ('{"item": "b", "seed": 0.5, "slots": [{}, {"unknown_ub": 2.0}]}', r"line 3: missing key 'unknown_ub'"),
            ('[1, 2]', r"line 3: record is not a JSON object"),
            ('{"item": 5, "seed": 0.5, "slots": [{"known": 3.0}, {"unknown_ub": 2.0}]}',
             r"line 3: item id 5 is not a string"),
            ('{"item": "b", "seed": 0.5, "slots": 2}', r"line 3: object of type 'int' has no len\(\)"),
            ('{"item": "b", "seed": "half", "slots": [{"known": 3.0}, {"unknown_ub": 2.0}]}',
             r"line 3: could not convert string to float: 'half'"),
            ('{"item": "b"', r"line 3: Expecting ',' delimiter"),
            # records write_samples could not write back: a bool is no
            # number, and json reads 1e400 and Infinity as inf
            ('{"item": "b", "seed": true, "slots": [{"known": 3.0}, {"unknown_ub": 4.0}]}',
             r"line 3: seed true is not a number$"),
            ('{"item": "b", "seed": 0.5, "slots": [{"known": false}, {"unknown_ub": 2.0}]}',
             r"line 3: slot 0: known value false is not a number$"),
            ('{"item": "b", "seed": 0.5, "slots": [{"known": 1e400}, {"unknown_ub": 2.0}]}',
             r"line 3: slot 0: known value is not a finite number$"),
            ('{"item": "b", "seed": 0.5, "slots": [{"known": Infinity}, {"unknown_ub": 2.0}]}',
             r"line 3: slot 0: known value is not a finite number$"),
            ('{"item": "b", "seed": 0.5, "slots": [{"known": 3.0}, {"unknown_ub": NaN}]}',
             r"line 3: slot 1: unknown bound is not a finite number$"),
            pytest.param('{"item": "b", "seed": 1' + "0" * 400 + ', "slots": [{"known": 3.0}, {"unknown_ub": 2.0}]}',
                         r"line 3: int too large to convert to float$", id="integer-seed-past-the-largest-float"),
            ('{"item": "b", "seed": "inf", "slots": [{"known": 3.0}, {"unknown_ub": 2.0}]}',
             r"line 3: seed is not a finite number$"),
        ],
    )
    def test_read_names_the_failing_line(self, scheme4, record, message):
        # a plain ValueError: no KeyError, TypeError or JSONDecodeError
        good = '{"item": "a", "seed": 0.5, "slots": [{"known": 3.0}, {"unknown_ub": 2.0}]}'
        with pytest.raises(ValueError, match=f"^{message}") as exc:
            read_samples(io.StringIO(f"{good}\n\n{record}\n"), scheme4)
        assert type(exc.value) is ValueError

    def test_record_shape(self, scheme4):
        out = sample_item((1.0, 3.0), 0.5, scheme4)
        buf = io.StringIO()
        write_samples(samples_of({"1": out}), buf)
        text = buf.getvalue()
        assert '"item": "1"' in text and '"unknown_ub": 2.0' in text and '"known": 3.0' in text


@st.composite
def pps_pwl_schemes(draw, r: int) -> TauScheme:
    maps = []
    for _ in range(r):
        tau = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        if draw(st.booleans()):
            maps.append(PiecewiseLinearMap.pps(tau))
        else:
            u = draw(st.sampled_from([0.25, 0.5, 0.75]))
            maps.append(PiecewiseLinearMap(((0.0, 0.0), (u, draw(st.sampled_from([0.0, u * tau, tau]))), (1.0, tau))))
    return TauScheme(tuple(maps))


@given(
    schemes=st.integers(1, 3).flatmap(lambda r: st.tuples(pps_pwl_schemes(r), pps_pwl_schemes(r))),
    values=st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5, 5.0, 20.0]), min_size=3, max_size=3),
    n=st.integers(1, 6),
    salt=st.integers(0, 2**63),
)
@settings(max_examples=300, deadline=None)
def test_samples_read_under_another_scheme(schemes, values, n, salt):
    # written under one scheme, read under another: either a line is named
    # as bad, or every record is an outcome the second scheme can give
    written, read = schemes
    r = written.r
    matrix = np.array([[values[(i + j) % 3] for i in range(r)] for j in range(n)])
    buf = io.StringIO()
    write_samples(sample_instances(InstanceSet(tuple(f"i{j}" for j in range(n)), matrix), written, salt), buf)
    buf.seek(0)
    try:
        samples = read_samples(buf, read)
    except ValueError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)
        return
    assert len(samples) == n
    for item in samples:
        out = samples[item]
        assert 0.0 < out.seed <= 1.0
        for i, slot in enumerate(out.slots):
            tau = tau_at(read, i, out.seed)
            assert slot.value >= tau if isinstance(slot, Known) else slot.bound == tau
