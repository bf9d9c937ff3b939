"""The columnar estimation path against per-item references.

The reference bodies below are the per-item dyadic and inverse-probability
estimators, and the slot-by-slot interval box under them, as they were before
estimation became columnar.  The batch kernels must reproduce them bit for
bit on random (data, scheme, salt) triples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordest.estimators import dyadic_index, ht_estimates, j_estimates, sum_estimate
from coordest.functions import _lb_from_bounds
from coordest.model import (
    InstanceSet,
    Known,
    PiecewiseLinearMap,
    PpsMap,
    TauScheme,
    Unknown,
    hash_seed,
    outcome_columns,
)
from coordest.samplers import sample_instances, sample_item

from conftest import builtin_functions


def _ref_outcome_bounds(outcome, xs, domain):
    r = outcome.r
    n = xs.shape[0]
    lows = np.empty((r, n))
    highs = np.empty((r, n))
    for i, slot in enumerate(outcome.slots):
        taus = np.asarray(outcome.scheme.maps[i].value(xs), dtype=float)
        lo = domain.lows[i]
        if isinstance(slot, Known):
            known = slot.value >= taus
            lows[i] = np.where(known, slot.value, lo)
            highs[i] = np.where(known, slot.value, taus)
        else:
            lows[i] = lo
            highs[i] = taus
    return lows, highs


def _ref_lower_bound(f, outcome, x):
    xs = np.array([x], dtype=float)
    lows, highs = _ref_outcome_bounds(outcome, xs, outcome.scheme.domain)
    return float(_lb_from_bounds(f, lows, highs)[0])


def _ref_j_estimate(outcome, f):
    i = dyadic_index(outcome.seed)
    hi = 2.0 ** (-i)
    head = _ref_lower_bound(f, outcome, hi)
    prev = 0.0 if i == 0 else _ref_lower_bound(f, outcome, 2.0 ** (-i + 1))
    return max(0.0, 2.0 ** (i + 1) * (head - prev))


def _ref_ht_estimate(outcome, f):
    tau_star = outcome.scheme.common_pps_tau()
    if f.kind in ("max", "or"):
        known = [s.value for s in outcome.slots if isinstance(s, Known)]
        if not known:
            return 0.0
        m = max(known)
        if any(s.bound > m for s in outcome.slots if isinstance(s, Unknown)):
            return 0.0
        p = min(1.0, m / tau_star)
        return (m if f.kind == "max" else 1.0) / p
    if not all(isinstance(s, Known) for s in outcome.slots):
        return 0.0
    values = [s.value for s in outcome.slots]
    p = min(min(1.0, x / tau_star) for x in values)
    return min(values) / p


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.uint64).tolist()


values_st = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))


@st.composite
def schemes(draw, r: int) -> TauScheme:
    kind = draw(st.sampled_from(["pps-common", "pps", "pwl"]))
    taus = st.floats(min_value=0.25, max_value=8.0)
    if kind == "pps-common":
        return TauScheme.pps(draw(taus), r=r)
    if kind == "pps":
        return TauScheme.pps([draw(taus) for _ in range(r)])
    maps = []
    for _ in range(r):
        if draw(st.booleans()):
            maps.append(PpsMap(draw(taus)))
            continue
        # infimum 0 (the default domain's lower bound), one inner joint
        u = draw(st.floats(min_value=0.05, max_value=0.95))
        t1, t2 = sorted((draw(taus), draw(taus)))
        maps.append(PiecewiseLinearMap(((0.0, 0.0), (u, t1), (1.0, t2))))
    return TauScheme(tuple(maps))


@st.composite
def triples(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=25))
    matrix = [[draw(values_st) for _ in range(r)] for _ in range(n)]
    salt = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return InstanceSet(tuple(f"it{j}" for j in range(n)), np.array(matrix)), draw(schemes(r)), salt


@given(triples())
@settings(max_examples=120, deadline=None)
def test_batch_kernels_match_per_item_reference(triple):
    data, scheme, salt = triple
    samples = sample_instances(data, scheme, salt)
    outcomes = [samples[item] for item in data.item_ids]
    for (item, v), outcome in zip(data.rows(), outcomes):
        assert outcome == sample_item(v, hash_seed(item, salt), scheme)
    fns = builtin_functions(data.r)
    for f in fns:
        ref = [_ref_j_estimate(o, f) for o in outcomes]
        batch = j_estimates(f, samples.seeds, samples.revealed, samples.values, scheme)
        assert _bits(batch) == _bits(ref)
        res = sum_estimate(samples, f, "j")
        assert _bits([res.value]) == _bits([float(sum(ref))])
    if scheme.common_pps_tau() is None:
        return
    for f in fns:
        if f.kind not in ("max", "min", "or"):
            continue
        ref = [_ref_ht_estimate(o, f) for o in outcomes]
        batch = ht_estimates(f, samples.revealed, samples.values, scheme)
        assert _bits(batch) == _bits(ref)
        assert _bits([sum_estimate(samples, f, "ht").value]) == _bits([float(sum(ref))])


def test_subset_rows_follow_the_requested_order(demo_data, scheme4):
    samples = sample_instances(demo_data, scheme4, salt=9)
    f = builtin_functions(2)[3]
    ids = ["7", "2", "5"]
    res = sum_estimate(samples, f, "j", ids)
    assert [i for i, _ in res.per_item] == ids
    assert [c for _, c in res.per_item] == [_ref_j_estimate(samples[i], f) for i in ids]


@pytest.mark.parametrize(
    "v, u",
    [
        ((2.0, 1.0), 0.5),  # the unknown bound ties the revealed maximum
        ((2.0, 2.0), 0.5),  # both entries sit exactly on the threshold
        ((0.0, 3.0), 1.0),
        ((4.0, 0.5), 2.0**-10),
        ((1.0, 1.0), math.ldexp(1.0 + 2.0**-52, -6)),
    ],
)
def test_kernels_at_ties_and_block_edges(scheme4, v, u):
    outcome = sample_item(v, u, scheme4)
    seeds, revealed, values = outcome_columns([outcome])
    for f in builtin_functions(2):
        got = j_estimates(f, seeds, revealed, values, scheme4)
        assert _bits(got) == _bits([_ref_j_estimate(outcome, f)])
        if f.kind in ("max", "min", "or"):
            got = ht_estimates(f, revealed, values, scheme4)
            assert _bits(got) == _bits([_ref_ht_estimate(outcome, f)])
