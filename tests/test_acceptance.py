"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion at its stated tolerance.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from coordest.analysis import (
    RATIO_BOUND,
    check_bounded,
    check_estimable,
    check_finite_variance,
    clamped_variance,
    competitiveness_ratio,
)
from coordest.estimators import (
    j_estimate,
    mc_query_estimates,
    v_optimal_estimates,
)
from coordest.functions import (
    LowerBoundFn,
    evaluate,
    lower_bound,
    lower_bound_from_vector,
    max_fn,
    min_fn,
    one_sided_rg_fn,
    rg_fn,
)
from coordest.estimators import exact_query, j_piece_values
from coordest.hull import integrate_square, lower_hull
from coordest.model import InstanceSet, TauScheme, hash_seed, seeds_for_salts
from coordest.samplers import (
    EXP_RANK,
    PPS_RANK,
    inclusion_probability,
    rank_values,
)

from conftest import (
    DEMO_IDS,
    DEMO_MATRIX,
    DEMO_PROBS_1,
    DEMO_PROBS_2,
    builtin_functions,
    random_scheme,
    random_triples,
    random_vector,
)
from limit_oracle import check_bounded_curve, check_estimable_curve, check_finite_variance_curve
from scalar_reference import brute_force_lower_bound, conditional_threshold, j_cumulative, rank_value, sample_item

ONE_SIDED = one_sided_rg_fn(2, 0, 1, 2)


def report(n: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {n}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def demo():
    return InstanceSet(DEMO_IDS, DEMO_MATRIX)


def test_criterion_01_golden_values_and_inclusion_probabilities(demo):
    t0 = time.perf_counter()
    ok = exact_query(demo, "lpp", ["1", "2", "3", "4"], p=2).value == 18.0
    ok &= exact_query(demo, "l1", ["1", "3"]).value == 5.0
    ok &= exact_query(demo, "maxsum", ["6", "7", "8"]).value == 7.0
    for idx, v in enumerate(demo.matrix.tolist()):
        ok &= min(1.0, v[0] / 4.0) == DEMO_PROBS_1[idx]
        ok &= min(1.0, v[1] / 4.0) == DEMO_PROBS_2[idx]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "exact aggregates 18/5/7 and PPS inclusion table", ok, f"{elapsed:.3f}s")


def test_criterion_02_dyadic_unbiasedness_sandwich_certified():
    t0 = time.perf_counter()
    rho = 2.0**-30
    worst = 0.0
    ok = True
    triples = random_triples(101, 40, r=2) + random_triples(202, 10, r=3)
    checked = 0
    for v, f, scheme in triples:
        if not check_estimable(v, f, scheme).ok:
            continue
        checked += 1
        fv = evaluate(f, v)
        got = j_cumulative(v, rho, f, scheme)
        tol = (fv - lower_bound_from_vector(f, v, scheme, 4.0 * rho)) + 1e-9
        err = abs(got - fv)
        worst = max(worst, err - tol)
        ok &= err <= tol
    ok &= checked == 50
    scheme1 = TauScheme.pps(1.0, r=2)
    example_err = abs(j_cumulative((1.0, 0.0), rho, ONE_SIDED, scheme1) - 1.0)
    ok &= example_err <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(
        2,
        "cumulative dyadic estimate reaches f(v) within the certified gap",
        ok,
        f"50 triples, worked example err {example_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_nonnegativity_and_dyadic_sandwich():
    depth = 40
    rng = np.random.default_rng(303)
    seeds = np.unique(
        np.concatenate([np.geomspace(2.0**-20, 1.0, 500), rng.uniform(2.0**-20, 1.0, 500)])
    )
    widths = 2.0 ** -(np.arange(depth + 1, dtype=float) + 1.0)
    idx = np.clip(np.floor(-np.log2(seeds)).astype(int), 0, depth)
    his = 2.0 ** -idx.astype(float)
    ok = True
    spot_checked = 0
    for k in range(50):
        scheme = random_scheme(rng)
        v = random_vector(rng)
        f = builtin_functions()[k % len(builtin_functions())]
        vals = j_piece_values(v, f, scheme, depth)
        ok &= bool((vals >= 0.0).all())
        partial = np.concatenate([[0.0], np.cumsum(vals * widths)])
        cums = partial[idx] + (his - seeds) * vals[idx]
        upper = lower_bound_from_vector(f, v, scheme, seeds)
        lower = np.where(
            4.0 * seeds <= 1.0,
            lower_bound_from_vector(f, v, scheme, np.minimum(4.0 * seeds, 1.0)),
            0.0,
        )
        ok &= bool((cums <= upper + 1e-9).all())
        ok &= bool((cums >= lower - 1e-9).all())
        # tie the table-based cumulative to the reference summation
        for rho in rng.choice(seeds, size=4, replace=False):
            want = j_cumulative(v, float(rho), f, scheme, depth=depth + 10)
            got = float(partial[np.clip(int(np.floor(-np.log2(rho))), 0, depth)])
            got += (2.0 ** -np.floor(-np.log2(rho)) - rho) * vals[
                np.clip(int(np.floor(-np.log2(rho))), 0, depth)
            ]
            ok &= abs(want - got) <= 1e-9
            spot_checked += 1
        # nonnegativity straight from outcomes as well
        u = float(rng.uniform(1e-5, 1.0))
        ok &= j_estimate(sample_item(v, u, scheme), f) >= 0.0
    report(3, "dyadic estimates nonnegative and sandwiched", ok, f"{len(seeds)} seeds x 50 vectors, {spot_checked} cross-checks")


def test_criterion_04_competitiveness_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    functions = [ONE_SIDED, rg_fn(2, 2), max_fn(2), min_fn(2)]
    ratios = []
    ok = True
    for k in range(208):
        f = functions[k % 4]
        v = random_vector(rng)
        scheme = random_scheme(rng)
        rep = competitiveness_ratio(v, f, scheme)
        ratios.append(rep.ratio)
        ok &= rep.ratio <= RATIO_BOUND
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(
        4,
        f"squared-mass ratio within the certified bound {RATIO_BOUND:g}",
        ok,
        f"{len(ratios)} vectors, max {max(ratios):.3f}, median {np.median(ratios):.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_hull_derivative_correctness():
    # the hull of the arc (1 - u)^2 is the arc itself from the anchor at
    # 1e-12: the slope to rounding, the mass and the variance to the 2e-12
    # and 4e-12 the anchor leaves out
    lb = LowerBoundFn((1.0,), 0.0, lambda xs: (1.0 - xs) ** 2, 2.0, ((1.0, -1.0),))
    est = v_optimal_estimates(lb)
    max_err = 0.0
    edges = est.edges[0].tolist()
    for lo, hi in zip(edges, edges[1:]):
        for u in (lo + 1e-13, 0.5 * (lo + hi), hi):
            max_err = max(max_err, abs(float(est.value_at(0, u)) - 2.0 * (1.0 - u)))
    integral = float(est.integral(0))
    var = clamped_variance(float(integrate_square(est)), 1.0)
    ok = max_err <= 1e-15
    ok &= abs(integral - 1.0) <= 3e-12
    ok &= abs(var - 1.0 / 3.0) <= 5e-12
    # hull dominance and slope monotonicity on random instances
    rng = np.random.default_rng(505)
    for _ in range(50):
        pts = [(float(u), float(y)) for u, y in zip(rng.uniform(0, 1, 30), rng.uniform(0, 3, 30))]
        if len({u for u, _ in pts}) < 2:
            continue
        hull = lower_hull(pts)
        for u, y in pts:
            ok &= hull.value(u) <= y + 1e-12 * max(1.0, abs(y))
        slopes = hull.slopes()
        ok &= all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))
    report(
        5,
        "hull-derivative estimates recover the analytic optimum",
        ok,
        f"max slope err {max_err:.2e} <= 1e-15, var err {abs(var - 1/3):.2e}",
    )


def test_criterion_06_characterization_chain_and_counterexamples():
    rng = np.random.default_rng(606)
    violations = 0
    for k in range(200):
        f = builtin_functions()[k % len(builtin_functions())]
        v = random_vector(rng)
        scheme = random_scheme(rng)
        est = check_estimable(v, f, scheme)
        bd = check_bounded(v, f, scheme)
        fv = check_finite_variance(v, f, scheme)
        if (bd.ok and not fv.ok) or (fv.ok and not est.ok):
            violations += 1
    # synthetic counterexamples, classified by their target check
    persistent = check_estimable_curve(LowerBoundFn((1.0,), 0.0, lambda us: 0.5 - 0.4 * us), f_value=1.0)
    sqrt_gap = LowerBoundFn((1.0,), 0.0, lambda us: 1.0 - np.sqrt(us))
    sqrt_gap_estimable = check_estimable_curve(sqrt_gap, f_value=1.0)
    sqrt_gap_bounded = check_bounded_curve(sqrt_gap, f_value=1.0)
    divergent = check_finite_variance_curve(LowerBoundFn((1.0,), 0.0, lambda us: 1.0 - us ** 0.4))
    ok = violations == 0
    ok &= not persistent.ok and abs(persistent.value - 0.5) < 1e-3
    ok &= sqrt_gap_estimable.ok and not sqrt_gap_bounded.ok
    ok &= not divergent.ok
    report(
        6,
        "bounded => finite variance => estimable, counterexamples classified",
        ok,
        f"{violations} violations in 200 instances",
    )


def test_criterion_07_cumulative_invariant_at_dyadic_seeds():
    rng = np.random.default_rng(707)
    worst = 0.0
    ok = True
    for k in range(50):
        f = builtin_functions()[k % len(builtin_functions())]
        v = random_vector(rng)
        scheme = random_scheme(rng)
        for j in range(1, 31):
            got = j_cumulative(v, 2.0**-j, f, scheme, depth=40)
            want = lower_bound_from_vector(f, v, scheme, 2.0 ** (-j + 1))
            worst = max(worst, abs(got - want))
            ok &= abs(got - want) <= 1e-9
    report(7, "cumulative at 2^-j equals the bound at 2^-j+1", ok, f"max dev {worst:.2e}")


def test_criterion_08_oracle_agreement():
    rng = np.random.default_rng(808)
    grid_n = 64
    ok = True
    worst = 0.0
    for f in builtin_functions():
        for _ in range(500):
            scheme = random_scheme(rng)
            v = random_vector(rng)
            rho = float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform(rho, 1.0))
            out = sample_item(v, rho, scheme)
            exact = lower_bound(f, out, x)
            grid = brute_force_lower_bound(f, out, x, grid_n)
            taus = [m.value(x) for m in scheme.maps]
            p = f.p or 1.0
            scale = max([1.0, *taus, *v]) ** max(p - 1.0, 0.0)
            lip = 2.0 * p * scale if f.kind in ("rg", "one_sided_rg") else 1.0
            tol = lip * max(taus) / grid_n * len(v) + 1e-12
            dev = grid - exact
            ok &= -1e-12 <= dev <= tol
            worst = max(worst, dev / tol if tol > 0 else 0.0)
    report(8, "closed-form bound agrees with the grid oracle", ok, f"worst dev {worst:.2f}x tolerance")


def test_criterion_09_bottomk_rank_conditioning(demo):
    values = {item: v[0] for item, v in zip(demo.item_ids, demo.matrix.tolist())}  # first instance, 8 items
    redraws = seeds_for_salts("redraw-stream", np.arange(100_000, dtype=np.uint64))
    ok = True
    worst = 0.0
    for rf in (PPS_RANK, EXP_RANK):
        for k in (2, 3):
            base_salt = 17
            ranks = {i: rank_value(rf, hash_seed(i, base_salt), x) for i, x in values.items()}
            for item, value in values.items():
                threshold = conditional_threshold(ranks, item, k)
                freq = float((rank_values(rf, redraws, value) >= threshold).mean())
                predicted = inclusion_probability(rf, value, threshold) if value > 0 else 0.0
                dev = abs(freq - predicted)
                worst = max(worst, dev)
                ok &= dev <= 0.01
    report(9, "conditional inclusion matches the threshold prediction", ok, f"max dev {worst:.4f} <= 0.01")


def test_criterion_10_monte_carlo_aggregates(demo):
    t0 = time.perf_counter()
    scheme = TauScheme.pps(4.0, r=2)
    salts = np.arange(100_000, dtype=np.uint64)
    cases = [
        ("lpp", ["1", "2", "3", "4"], 2, 18.0),
        ("l1", ["1", "3"], None, 5.0),
        ("maxsum", ["6", "7", "8"], None, 7.0),
    ]
    ok = True
    details = []
    for query, ids, p, truth in cases:
        ests = mc_query_estimates(demo, scheme, query, ids, salts, p=p, estimator="j")
        se = float(ests.std(ddof=1)) / math.sqrt(len(ests))
        dev = abs(float(ests.mean()) - truth)
        ok &= dev <= 3.0 * se
        details.append(f"{query}: {dev / se:.2f} se" if se > 0 else f"{query}: exact")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(10, "Monte Carlo aggregates match ground truth", ok, ", ".join(details) + f", {elapsed:.1f}s")
