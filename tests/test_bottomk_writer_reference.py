"""Bottom-k sampling, bottom-k estimation and the sample writer against
reference copies of their item-by-item forms: equal samples, equal J/HT
sums and equal output bytes, on both rank kinds, rank ties at the k
boundary, item subsets and ids that need JSON escaping."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordest.estimators import bottomk_estimate, j_estimate
from coordest.functions import max_fn, or_fn
from coordest.model import TauScheme, hash_seed, seeds_for_items
from coordest.samplers import (
    EXP_RANK,
    PPS_RANK,
    BottomKSample,
    Samples,
    bottomk_sample,
    inclusion_probability,
    write_samples,
)

from scalar_reference import rank_value, sample_item


def _ref_bottomk_sample(instance_values, k, rf, salt):
    values = dict(instance_values)
    if k < 1:
        raise ValueError("k must be positive")
    if k >= len(values):
        raise ValueError(f"k={k} must be smaller than the item count {len(values)}")
    n_positive = sum(1 for v in values.values() if v > 0)
    if k >= n_positive:
        raise ValueError(f"k={k} must be smaller than the positive-item count {n_positive}")
    items = list(values)
    seeds = seeds_for_items(items, salt).tolist()
    ranks = [rank_value(rf, u, values[item]) for item, u in zip(items, seeds)]
    order = sorted(range(len(items)), key=lambda j: (-ranks[j], str(items[j])))
    top = order[:k]
    return BottomKSample(
        k=k,
        rank_fn=rf,
        threshold=ranks[order[k]],
        item_ids=tuple(str(items[j]) for j in top),
        values=tuple(float(values[items[j]]) for j in top),
        seeds=tuple(seeds[j] for j in top),
        ranks=tuple(ranks[j] for j in top),
    )


def _ref_bottomk_estimate(sample, query, estimator, item_ids):
    """``(value, per_item)``: one inclusion probability, or one single-entry
    outcome and one scalar J estimate under PPS ranks, per member."""
    wanted = None if item_ids is None else {str(i) for i in item_ids}
    contributions = []
    for item, value, seed in zip(sample.item_ids, sample.values, sample.seeds):
        if wanted is not None and item not in wanted:
            continue
        weight = 1.0 if query == "distinct" else value
        if estimator == "ht":
            p = inclusion_probability(sample.rank_fn, value, sample.threshold)
            contributions.append((item, weight / p if p > 0 else 0.0))
        else:
            outcome = sample_item((value,), seed, TauScheme.pps(sample.threshold, r=1))
            f = or_fn(1) if query == "distinct" else max_fn(1)
            contributions.append((item, j_estimate(outcome, f)))
    total = 0.0
    for _, c in contributions:
        total += c
    return total, tuple(contributions)


def _ref_write_samples(s, fp):
    encode = json.JSONEncoder(allow_nan=False).encode
    for item, seed, revealed, values in zip(s.item_ids, s.seeds.tolist(), s.revealed.tolist(), s.cells.tolist()):
        slots = [{"known": x} if k else {"unknown_ub": x} for k, x in zip(revealed, values)]
        fp.write(encode({"item": item, "seed": seed, "slots": slots}) + "\n")


def _bits(xs) -> bytes:
    return np.array(xs, dtype=float).tobytes()


def _member_bits(sample: BottomKSample):
    columns = zip(sample.values, sample.seeds, sample.ranks)
    return [(item, _bits([*row, sample.threshold])) for item, row in zip(sample.item_ids, columns)]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


# ids that JSON must escape: quotes, backslashes, controls, non-ASCII
escaped_ids = st.one_of(
    st.text(min_size=1, max_size=5),
    st.sampled_from(['"', "\\", 'a"b', "é", "日本", "\n", "\x7f", " ", "😀"]),
)
values_st = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 2.5, 1e-300, 5e-324]),
    st.floats(min_value=0.0, max_value=1e6),
)


def _tied_values(ids, salt, rf, k, tie):
    """Values whose ranks put ``k - 1`` items above ``tie`` and the others
    exactly at it where the float division allows (else at 0), so that the
    k-th and (k+1)-th ranks tie and the id order decides the boundary."""
    values = {}
    for j, item in enumerate(ids):
        u = hash_seed(item, salt)
        if j < k - 1:
            values[item] = 1e9
            continue
        v = tie * u if rf is PPS_RANK else -tie * math.log(u) if u < 1.0 else 0.0
        values[item] = v if v > 0 and rank_value(rf, u, v) == tie else 0.0
    return values


@given(
    st.lists(escaped_ids, min_size=2, max_size=40, unique=True),
    st.data(),
    st.sampled_from([PPS_RANK, EXP_RANK]),
    st.sampled_from([0, 1, 2**63 + 5]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_bottomk_matches_the_reference(ids, data, rf, salt, tie):
    k = data.draw(st.integers(1, len(ids)))
    if tie:
        values = _tied_values(ids, salt, rf, k, 3.0)
    else:
        values = {item: data.draw(values_st) for item in ids}
    want = _outcome(_ref_bottomk_sample, values, k, rf, salt)
    got = _outcome(bottomk_sample, values, k, rf, salt)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]
        return
    sample = got[1]
    assert _member_bits(sample) == _member_bits(want[1])
    assert sample == want[1]

    subset = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(ids), unique=True)))
    for query in ("sum", "distinct", "maxsum"):
        for estimator in ("ht", "j"):
            if estimator == "j" and rf is EXP_RANK:
                with pytest.raises(ValueError, match="needs PPS ranks"):
                    bottomk_estimate(sample, query, estimator, subset)
                continue
            got = _outcome(bottomk_estimate, sample, query, estimator, subset)
            want = _outcome(_ref_bottomk_estimate, sample, query, estimator, subset)
            assert got[0] == want[0]
            if want[0] == "error":
                assert got[1] == want[1]
                continue
            (res, (value, per_item)) = (got[1], want[1])
            assert _bits([res.value]) == _bits([value])
            assert [i for i, _ in res.per_item] == [i for i, _ in per_item]
            assert _bits([c for _, c in res.per_item]) == _bits([c for _, c in per_item])


def test_ties_at_the_boundary_are_broken_by_id():
    ids = [f"id{j:02d}" for j in range(30)]
    for rf in (PPS_RANK, EXP_RANK):
        values = _tied_values(ids, 7, rf, 5, 3.0)
        ranks = {i: rank_value(rf, hash_seed(i, 7), v) for i, v in values.items()}
        assert sum(r == 3.0 for r in ranks.values()) >= 3
        sample = bottomk_sample(values, 5, rf, 7)
        assert sample == _ref_bottomk_sample(values, 5, rf, 7)
        assert sample.ranks[-1] == sample.threshold == 3.0


sample_columns = st.integers(1, 3).flatmap(
    lambda r: st.tuples(
        st.just(r),
        st.lists(escaped_ids, min_size=1, max_size=20, unique=True),
        st.data(),
    )
)


@given(sample_columns)
@settings(max_examples=200, deadline=None)
def test_writer_bytes_match_the_json_encoder(columns):
    r, ids, data = columns
    n = len(ids)
    seeds = data.draw(st.lists(st.floats(min_value=5e-324, max_value=1.0), min_size=n, max_size=n))
    revealed = data.draw(st.lists(st.booleans(), min_size=n * r, max_size=n * r))
    values = data.draw(st.lists(st.one_of(st.floats(0.0, 1e300), st.sampled_from([-0.0, 5e-324, 0.1])),
                                min_size=n * r, max_size=n * r))
    samples = Samples(ids, seeds, revealed, values, TauScheme.pps(4.0, r=r))
    got, want = io.StringIO(), io.StringIO()
    write_samples(samples, got)
    _ref_write_samples(samples, want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_writer_rejects_non_finite_values_as_json_does(bad):
    samples = Samples(["a", "b"], [0.5, 0.25], [True, False], [1.0, bad], TauScheme.pps(4.0, r=1))
    with pytest.raises(ValueError) as want:
        _ref_write_samples(samples, io.StringIO())
    with pytest.raises(ValueError) as got:
        write_samples(samples, io.StringIO())
    assert str(got.value) == str(want.value)
