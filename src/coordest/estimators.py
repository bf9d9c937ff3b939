"""Per-item estimators and multi-instance query aggregation.

Three unbiased nonnegative per-item estimators are provided:

* the dyadic estimator: constant on each seed interval ``(2^-j-1, 2^-j]``,
  built so that its cumulative integral from ``2^-j`` to 1 always equals the
  lower bound at ``2^-j+1``.  Evaluating it needs only the outcome: with
  ``i = floor(-log2 seed)`` the estimate is
  ``2^(i+1) * (lb(2^-i) - lb(2^-i+1))`` where the subtrahend is 0 when i = 0.
* inverse-probability (Horvitz-Thompson): ``f(v)/p`` whenever the outcome
  certifies the function value and its revelation probability, else 0.
* hull-derivative estimates: the negated slope of the lower convex hull of a
  full lower-bound curve; minimum variance for that curve's data vector, and
  the baseline competitiveness is measured against.

Query answers over many items are sums of per-item estimates of the
functions :func:`query_functions` names; :func:`query_answers` derives the
ratio (Jaccard) and the root (Lp from Lp^p) from those sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .functions import (
    ItemFunction,
    LowerBoundFn,
    evaluate_many,
    lb_functions,
    lower_bounds,
    max_fn,
    min_fn,
    or_fn,
    rg_fn,
)
from .hull import EstimateFn, lower_hull
from .model import (
    InstanceSet,
    Outcome,
    TauScheme,
    item_key,
    key_hashes,
    key_seeds,
    mixed_salts,
    outcome_columns,
    seed_cut,
)
from .samplers import (
    BottomKSample,
    PPS_RANK_KIND,
    Samples,
    inclusion_probability,
)

HULL_LEFT_ANCHOR = 1e-12

# uniform seeds of a hull grid, and dyadic pieces an analysis materialises
GRID_N = 256
DEPTH = 40


def dyadic_index(rho: float) -> int:
    """Index i with ``rho`` in ``(2^-i-1, 2^-i]``.

    Read off the binary exponent, ``rho = m * 2^e`` with m in [0.5, 1):
    exact, where ``floor(-log2 rho)`` is one too large just above a power of
    two.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"seed must lie in (0, 1], got {rho}")
    m, e = math.frexp(rho)
    return -e + (m == 0.5)


def dyadic_indices(us: np.ndarray) -> np.ndarray:
    """:func:`dyadic_index` of every seed in ``us``, as ``intp`` (indexing
    with the int32 exponents of ``frexp`` is about three times slower)."""
    m, e = np.frexp(us)
    return (m == 0.5) - e.astype(np.intp)


def j_estimates(
    f: ItemFunction, seeds: np.ndarray, revealed: np.ndarray, values: np.ndarray, scheme: TauScheme
) -> np.ndarray:
    """Dyadic estimate of every outcome given as columns: seeds ``(n,)``, the
    revealed mask ``(n, r)`` and each revealed value or else its bound
    ``(n, r)``.

    With ``i`` the dyadic index of the seed the estimate is
    ``2^(i+1) * (lb(2^-i) - lb(2^-i+1))``, clamped at 0, where the
    subtrahend is 0 when i = 0.
    """
    i = dyadic_indices(seeds)
    # (r, n) rows in C order keep the reductions over instances contiguous
    values, revealed = np.ascontiguousarray(values.T), np.ascontiguousarray(revealed.T)
    head = lower_bounds(f, values, revealed, np.ldexp(1.0, -i), scheme)
    prev = lower_bounds(f, values, revealed, np.ldexp(1.0, 1 - i), scheme)
    d = np.ldexp(1.0, i + 1) * (head - np.where(i == 0, 0.0, prev))
    return np.where(d > 0.0, d, 0.0)


def j_estimate(outcome: Outcome, f: ItemFunction) -> float:
    """Dyadic estimate computed from the outcome alone.

    Identical for every data vector consistent with the outcome, since the
    lower bound at seeds above the observed one is outcome-determined.
    """
    return float(j_estimates(f, *outcome_columns([outcome]), outcome.scheme)[0])


def j_piece_tables(rows: np.ndarray, f: ItemFunction, scheme: TauScheme, depth: int) -> np.ndarray:
    """Constant dyadic values ``tables[k, j]`` on ``(2^-j-1, 2^-j]`` for
    ``j = 0..depth``, for each data vector ``rows[k]`` of an (n, r) array:
    one :func:`lower_bounds` call over the n * (depth + 1) columns."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    xs = np.tile(2.0 ** -np.arange(depth + 1, dtype=float), n)
    values = np.repeat(rows.T, depth + 1, axis=1)
    lbs = lower_bounds(f, values, True, xs, scheme).reshape(n, depth + 1)
    vals = np.empty_like(lbs)
    vals[:, 0] = 2.0 * lbs[:, 0]
    # ldexp scales by 2^(j+1) exactly, also past 2^1023 for the deep blocks
    # of data below about 1e-300; a value past the largest float is inf
    with np.errstate(over="ignore"):
        vals[:, 1:] = np.ldexp(lbs[:, 1:] - lbs[:, :-1], np.arange(2, depth + 2))
    return np.clip(vals, 0.0, None)


def j_piece_values(v: Sequence[float], f: ItemFunction, scheme: TauScheme, depth: int) -> np.ndarray:
    """Constant dyadic values ``values[j]`` on ``(2^-j-1, 2^-j]`` for
    ``j = 0..depth``: one row of :func:`j_piece_tables`."""
    return j_piece_tables(np.asarray(v, dtype=float).reshape(1, -1), f, scheme, depth)[0]


def j_estimate_fn(v: Sequence[float], f: ItemFunction, scheme: TauScheme, depth: int = DEPTH) -> EstimateFn:
    """Materialised dyadic pieces down to seed ``2^-depth-1``."""
    return dyadic_pieces(j_piece_values(v, f, scheme, depth))


def dyadic_pieces(values: np.ndarray) -> EstimateFn:
    """The dyadic estimator whose value on ``(2^-j-1, 2^-j]`` is
    ``values[j]``, for ``j = 0..len(values) - 1``: a row, or the head of
    a row, of :func:`j_piece_tables`."""
    his = np.ldexp(1.0, np.arange(1 - len(values), 1))
    return EstimateFn(0.5 * his, his, values[::-1])


# ---------------------------------------------------------------------------
# inverse-probability estimates


def _common_pps_tau(scheme: TauScheme) -> float:
    tau = scheme.common_pps_tau()
    if tau is None:
        raise ValueError("inverse-probability estimates need a common PPS threshold")
    return tau


def ht_estimates(f: ItemFunction, revealed: np.ndarray, values: np.ndarray, scheme: TauScheme) -> np.ndarray:
    """Inverse-probability estimate of every outcome given as columns (see
    :func:`j_estimates`) when it certifies the function value; 0 otherwise.

    For max (and the presence indicator) the value is certified once some
    entry is revealed and every unrevealed bound sits at or below the largest
    revealed value ``m``; the revelation probability is then
    ``min(1, m/tau*)``.  For min the certifying event is all entries
    revealed, with probability ``min_i min(1, v_i/tau*)``.
    """
    tau_star = _common_pps_tau(scheme)
    if f.kind in ("max", "or"):
        m = np.where(revealed, values, -np.inf).max(axis=1)
        above = ~revealed & (values > m[:, None])
        certified = revealed.any(axis=1) & ~above.any(axis=1)
        p = np.minimum(1.0, m / tau_star)
        top = m if f.kind == "max" else 1.0
    elif f.kind == "min":
        certified = revealed.all(axis=1)
        p = np.minimum(1.0, values / tau_star).min(axis=1)
        top = values.min(axis=1)
    else:
        raise ValueError(f"inverse-probability estimation not applicable to {f.kind!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(certified, top / p, 0.0)


def ht_estimate(outcome: Outcome, f: ItemFunction) -> float:
    """Inverse-probability estimate of one outcome (see :func:`ht_estimates`)."""
    _, revealed, values = outcome_columns([outcome])
    return float(ht_estimates(f, revealed, values, outcome.scheme)[0])


def ht_blocks(f: ItemFunction, rows: np.ndarray, scheme: TauScheme) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-probability estimates of each data vector in an (n, r) array
    as a function of the seed: ``value`` on the certifying seeds ``(0, p]``
    and 0 above, with ``value = f(v)/p``; ``value`` is 0 where f(v) is.

    The certifying probability is ``min(1, m/tau*)`` with ``m`` the largest
    entry for max and the presence indicator, and the smallest (f(v)
    itself) for min.
    """
    tau_star = _common_pps_tau(scheme)
    if f.kind not in ("max", "min", "or"):
        raise ValueError(f"inverse-probability estimation not applicable to {f.kind!r}")
    rows = np.asarray(rows, dtype=float)
    fv = evaluate_many(f, rows)
    m = evaluate_many(max_fn(f.arity), rows) if f.kind == "or" else fv
    p = np.minimum(1.0, m / tau_star)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(fv == 0.0, 0.0, fv / p), p


# ---------------------------------------------------------------------------
# hull-derivative (minimum-variance) estimates


@lru_cache(maxsize=64)
def base_grid(grid_n: int, lo: float, count: int) -> np.ndarray:
    """The sorted unique seeds of ``linspace(1/grid_n, 1, grid_n)`` and
    ``geomspace(lo, 1, count)``; read-only, as equal calls share it."""
    us = np.unique(np.concatenate([np.linspace(1.0 / grid_n, 1.0, grid_n), np.geomspace(lo, 1.0, count)]))
    us.flags.writeable = False
    return us


def v_optimal_estimates(lb: LowerBoundFn, grid_n: int = GRID_N) -> EstimateFn:
    """Piecewise-constant negated slopes of the lower hull of a full
    lower-bound curve: :func:`hull_estimates` of the curve read at its
    :func:`hull_seeds`."""
    xs, at = hull_seeds(lb, grid_n)
    return hull_estimates(xs, lb.value(at))


def hull_seeds(lb: LowerBoundFn, grid_n: int = GRID_N) -> tuple[np.ndarray, np.ndarray]:
    """The u coordinates ``xs`` of the hull's input points, and the seeds
    ``at`` to read the curve at for all of them but the last, ``(1, 0)``.

    The points are the curve at every breakpoint and just right of it, a
    left anchor just right of 0 carrying the curve's limit value, and
    ``(1, 0)``: the cumulative estimate must vanish at seed 1, and
    anchoring the hull there is what lets data that is revealed with
    certainty keep its full mass.  A curve with concave pieces (constant
    ones, or ``(c + d*u)^p`` with ``p <= 1``: every item function but
    ``rg`` and one-sided ``rg`` with ``p > 1``) can have hull vertices only
    at those corners; any other curve is also sampled on a
    uniform-plus-geometric grid of ``grid_n`` uniform seeds.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    if lb.domain_left > HULL_LEFT_ANCHOR:
        raise ValueError("need a lower-bound curve valid on all of (0, 1]")
    # all the action sits at small seeds, and a curve whose first breakpoint
    # is tiny (values revealed only with tiny probability) keeps its mass
    # below the default anchor; scale the anchor under the curve's head.
    # Below a subnormal head the anchor may underflow to 0 and its
    # reciprocal overflow; 324 decades reach from the smallest float to 1
    anchor = max(min(HULL_LEFT_ANCHOR, 1e-3 * lb.head), math.ulp(0.0))
    us = np.array(lb.breakpoints, dtype=float)
    if lb.exponent is not None and lb.exponent > 1.0:
        decades = min(math.log10(1.0 / anchor), 324.0)
        us = np.unique(np.concatenate([base_grid(grid_n, anchor, int(max(grid_n, 128, 12 * decades))), us]))
    us = us[(us > anchor) & (us <= 1.0)]
    # The curve is left-continuous and may jump down across a breakpoint; the
    # cumulative estimate is continuous and capped at every seed beyond the
    # jump as well, so the binding value AT a breakpoint is the right limit.
    bs = np.array([b for b in lb.breakpoints if b < 1.0], dtype=float)
    xs = np.concatenate(([anchor], us, bs, [1.0]))
    return xs, np.concatenate(([anchor], us, np.nextafter(bs, np.inf)))


def hull_estimates(xs: np.ndarray, ys: np.ndarray) -> EstimateFn:
    """The negated slopes of the lower hull of the points ``(xs, ys)`` and
    ``(xs[-1], 0)``, the :func:`hull_seeds` of a curve and its values
    there."""
    ys = np.append(ys, 0.0)
    hu, hy = np.array(lower_hull(np.column_stack((xs, ys))).vertices).T
    # the bits of the scalar max(0.0, (y1 - y2) / (u2 - u1)): fmax turns a
    # NaN into 0.0, and adding +0.0 turns a -0.0 into 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.fmax((hy[:-1] - hy[1:]) / (hu[1:] - hu[:-1]), 0.0) + 0.0
    return EstimateFn(hu[:-1], hu[1:], slopes)


# ---------------------------------------------------------------------------
# query aggregation


L1 = "l1"
LPP = "lpp"
LP = "lp"
MAX_SUM = "maxsum"
MIN_SUM = "minsum"
JACCARD = "jaccard"
DISTINCT = "distinct"

QUERY_KINDS = (L1, LPP, LP, MAX_SUM, MIN_SUM, JACCARD, DISTINCT)


@dataclass(frozen=True)
class QueryResult:
    query: str
    value: float
    per_item: tuple[tuple[str, float], ...]
    extras: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("query estimates are nonnegative by construction")


def query_functions(query: str, r: int, p: float | None = None) -> tuple[ItemFunction, ...]:
    """The item functions whose sums answer the query (see
    :func:`query_answers`): min and max for Jaccard, one function otherwise."""
    if query == JACCARD:
        return min_fn(r), max_fn(r)
    if query == L1:
        return (rg_fn(1.0, r),)
    if query in (LPP, LP):
        if p is None:
            raise ValueError(f"query {query} needs an exponent: --p or {query}:p=<p>")
        return (rg_fn(float(p), r),)
    if query == MAX_SUM:
        return (max_fn(r),)
    if query == MIN_SUM:
        return (min_fn(r),)
    if query == DISTINCT:
        return (or_fn(r),)
    raise ValueError(f"unknown query {query!r}")


def query_answers(query: str, sums: np.ndarray, p: float | None = None) -> np.ndarray:
    """The answer per column of ``sums``, which holds one row per function of
    :func:`query_functions` and one column per salt.

    Jaccard is the min-sum over the max-sum, clamped to [0, 1], and 0 where
    the max-sum is 0 (or where the ratio is undefined, as inf/inf is); Lp is
    the p-th root of the Lp^p sum, taken with Python's pow (numpy's array pow
    can differ in the last bit); every other query is its one sum.
    """
    sums = np.asarray(sums, dtype=float)
    if query == JACCARD:
        lo, hi = sums
        out = np.zeros_like(lo)
        np.divide(lo, hi, out=out, where=hi > 0)
        return np.fmin(np.fmax(out, 0.0), 1.0)
    if query == LP:
        return np.array([x ** (1.0 / float(p)) for x in sums[0].tolist()])
    return sums[0]


def _answer(query: str, p: float | None, fs, sums: Sequence[QueryResult]) -> QueryResult:
    """``query`` answered from the sum of each of its functions ``fs``, with
    the items of a single sum, or else the sums by name."""
    value = float(query_answers(query, [[s.value] for s in sums], p)[0])
    if len(sums) == 1:
        return QueryResult(query, value, sums[0].per_item)
    return QueryResult(query, value, (), tuple((f"{f.kind}sum", s.value) for f, s in zip(fs, sums)))


def _sequential_sum(xs: Sequence[float]) -> float:
    """Left-to-right float sum (``sum`` compensates from Python 3.12 on):
    the order a Monte Carlo sweep adds items in, so that its per-salt sums
    equal single-salt query sums bit for bit on every Python."""
    total = 0.0
    for x in xs:
        total += x
    return total


def sum_estimate(
    samples: Mapping[str, Outcome],
    f: ItemFunction,
    estimator: str,
    item_ids: Sequence[str] | None = None,
    *,
    data: InstanceSet | None = None,
    grid_n: int = GRID_N,
) -> QueryResult:
    """Sum of per-item estimates of ``f`` over the selected items.

    J and HT take one kernel call over the selected rows of the samples.
    The hull-derivative oracle needs the true data: it takes the items'
    curves from :func:`lb_functions`, ``MC_ITEM_BLOCK`` at a time, and reads
    each item's hull at the item's seed.
    """
    ids = list(samples) if item_ids is None else [str(i) for i in item_ids]
    if estimator == "voptimal-oracle" and data is None:
        raise ValueError("the hull-derivative oracle needs the true data")
    if estimator not in ("j", "ht", "voptimal-oracle"):
        raise ValueError(f"unknown estimator {estimator!r}")
    estimates = []
    if ids:
        s = Samples.from_outcomes(samples)
        rows = s.indices(ids)
        if estimator == "j":
            estimates = j_estimates(f, s.seeds[rows], s.revealed[rows], s.cells[rows], s.scheme).tolist()
        elif estimator == "ht":
            estimates = ht_estimates(f, s.revealed[rows], s.cells[rows], s.scheme).tolist()
        else:
            vectors, seeds = data.matrix[data.indices(ids)], s.seeds[rows].tolist()
            for start in range(0, len(ids), MC_ITEM_BLOCK):
                lbfs = lb_functions(f, vectors[start:start + MC_ITEM_BLOCK], s.scheme)
                estimates += [v_optimal_estimates(lbf, grid_n).value_at(u) for lbf, u in zip(lbfs, seeds[start:])]
    return QueryResult(f"sum[{f.describe()}]", _sequential_sum(estimates), tuple(zip(ids, estimates)))


def exact_query(
    data: InstanceSet,
    query: str,
    item_ids: Sequence[str] | None = None,
    p: float | None = None,
) -> QueryResult:
    """Ground-truth query answer straight from the data."""
    ids = list(data.item_ids) if item_ids is None else [str(i) for i in item_ids]
    fs = query_functions(query, data.r, p)
    rows = data.matrix[data.indices(ids)]
    sums = []
    for f in fs:
        values = evaluate_many(f, rows).tolist()
        sums.append(QueryResult(f"sum[{f.describe()}]", float(sum(values)), tuple(zip(ids, values))))
    return _answer(query, p, fs, sums)


def estimate_query(
    samples: Mapping[str, Outcome],
    r: int,
    query: str,
    estimator: str,
    item_ids: Sequence[str] | None = None,
    p: float | None = None,
    *,
    data: InstanceSet | None = None,
    grid_n: int = GRID_N,
) -> QueryResult:
    """Query answer from coordinated samples: the sum of per-item estimates
    of each of :func:`query_functions`, answered by :func:`query_answers`."""
    fs = query_functions(query, r, p)
    sums = [sum_estimate(samples, f, estimator, item_ids, data=data, grid_n=grid_n) for f in fs]
    return _answer(query, p, fs, sums)


# ---------------------------------------------------------------------------
# bottom-k estimation via rank conditioning


def bottomk_estimate(
    sample: BottomKSample,
    query: str,
    estimator: str = "ht",
    item_ids: Sequence[str] | None = None,
) -> QueryResult:
    """Subset-sum or distinct-count estimate from a bottom-k sample.

    Members behave as independently sampled entries once conditioned on
    their threshold; items outside the sample contribute 0.  Under PPS
    ranks, rank >= T is the same rule as value >= T * seed, so the dyadic
    estimates of the members are one :func:`j_estimates` call under the
    one-instance scheme ``pps:tau=T``.
    """
    if query not in (MAX_SUM, MIN_SUM, L1, DISTINCT, "sum"):
        raise ValueError(f"query {query!r} not supported on bottom-k samples")
    if estimator not in ("ht", "j"):
        raise ValueError(f"unknown bottom-k estimator {estimator!r}")
    if estimator == "j" and sample.rank_fn.kind != PPS_RANK_KIND:
        raise ValueError(
            "dyadic estimation of bottom-k members needs PPS ranks; "
            "exponential-rank thresholds do not invert to a monotone map"
        )
    wanted = None if item_ids is None else {str(i) for i in item_ids}
    members = [m for m in sample.members if wanted is None or m.item_id in wanted]
    if estimator == "ht":
        estimates = []
        for m in members:
            weight = 1.0 if query == DISTINCT else m.value
            p = inclusion_probability(sample.rank_fn, m.value, m.threshold)
            estimates.append(weight / p if p > 0 else 0.0)
    elif members:
        scheme = TauScheme.pps(members[0].threshold, r=1)
        seeds = np.array([m.seed for m in members])
        values = np.array([[m.value] for m in members])
        taus = scheme.thresholds(seeds).T
        revealed = values >= taus
        f = or_fn(1) if query == DISTINCT else max_fn(1)
        estimates = j_estimates(f, seeds, revealed, np.where(revealed, values, taus), scheme).tolist()
    else:
        estimates = []
    return QueryResult(
        f"bottomk-{query}", _sequential_sum(estimates), tuple(zip((m.item_id for m in members), estimates))
    )


# ---------------------------------------------------------------------------
# Monte Carlo sweeps over salts


# A hashed seed (h + 1) / 2^64 is at least 2^-64, so its dyadic index lies
# in 0..64 and a table of 65 pieces covers every seed exactly.
MC_DEPTH = 64
# Items whose tables are built in one kernel call: memory stays flat in n.
MC_ITEM_BLOCK = 32
# Salts hashed and looked up in one array pass.
MC_SALT_CHUNK = 16384


def _dyadic_slots(seeds: np.ndarray) -> np.ndarray:
    """``1022 - dyadic_index(u)`` for hashed seeds, read off the float bits:
    the biased exponent of the float just below ``u``, so that ``2^-i``
    falls with the seeds of ``(2^-i-1, 2^-i]``.  Exact for normal floats,
    which every seed of at least 2^-64 is."""
    bits = seeds.view(np.uint64) - np.uint64(1)
    return (bits >> np.uint64(52)).view(np.int64)


def _slot_table(table: np.ndarray) -> np.ndarray:
    """A dyadic table indexed by :func:`_dyadic_slots` instead of the index."""
    out = np.zeros(1023)
    out[1022 - MC_DEPTH:] = table[::-1]
    return out


def _mc_sums(
    data: InstanceSet,
    scheme: TauScheme,
    fs: Sequence[ItemFunction],
    item_ids: Sequence[str],
    salts: np.ndarray,
    estimator: str,
    grid_n: int,
) -> np.ndarray:
    """Sum over the items of each function's estimate, per salt: an
    ``(len(fs), len(salts))`` array.

    The salts are mixed once; each item costs one seed hash per salt and
    one lookup per salt and function: in its dyadic table, against its
    inverse-probability cut, or in its hull, built once per item and
    function.  An item whose estimates are all zero would add exactly +0.0
    to every sum and is skipped.  Every other item is added in item order,
    so each sum equals the single-salt query sum at its salt, bit for bit.
    """
    rows = data.indices(item_ids)
    mixed = mixed_salts(salts)
    totals = np.zeros((len(fs), mixed.shape[0]))
    for start in range(0, rows.shape[0], MC_ITEM_BLOCK):
        block = rows[start:start + MC_ITEM_BLOCK]
        vectors = data.matrix[block]
        if estimator == "j":
            tables = np.stack([j_piece_tables(vectors, f, scheme, MC_DEPTH) for f in fs], axis=1)
            live = tables.any(axis=2)
        elif estimator == "ht":
            values, probs = np.stack([ht_blocks(f, vectors, scheme) for f in fs], axis=2)
            live = values > 0.0
        else:
            by_function = [[v_optimal_estimates(lbf, grid_n) for lbf in lb_functions(f, vectors, scheme)] for f in fs]
            hulls = list(zip(*by_function))
            live = np.array([[e.values.any() for e in row] for row in hulls])
        for k in np.flatnonzero(live.any(axis=1)).tolist():
            key = item_key(data.item_ids[block[k]])
            fk = np.flatnonzero(live[k]).tolist()
            if estimator == "j":
                slot_tables = [(j, _slot_table(tables[k, j])) for j in fk]
            elif estimator == "ht":
                # a cut of -1 (p below every seed) certifies no salt
                cuts = [
                    (j, np.uint64(cut), values[k, j])
                    for j in fk
                    if (cut := seed_cut(float(probs[k, j]))) >= 0
                ]
            for lo in range(0, mixed.shape[0], MC_SALT_CHUNK):
                hi = lo + MC_SALT_CHUNK
                if estimator == "j":
                    slots = _dyadic_slots(key_seeds(key, mixed[lo:hi]))
                    for j, table in slot_tables:
                        totals[j, lo:hi] += table[slots]
                elif estimator == "ht":
                    hashes = key_hashes(key, mixed[lo:hi])
                    for j, cut, value in cuts:
                        totals[j, lo:hi] += np.where(hashes <= cut, value, 0.0)
                else:
                    seeds = key_seeds(key, mixed[lo:hi])
                    for j in fk:
                        totals[j, lo:hi] += hulls[k][j].value_at(seeds)
    return totals


def mc_query_estimates(
    data: InstanceSet,
    scheme: TauScheme,
    query: str,
    item_ids: Sequence[str],
    salts: np.ndarray,
    p: float | None = None,
    estimator: str = "j",
    grid_n: int = GRID_N,
) -> np.ndarray:
    """Query estimate per salt: the sums of :func:`_mc_sums`, over one set of
    seeds per salt, answered by :func:`query_answers`.  ``grid_n`` is the
    hull grid of the ``voptimal-oracle`` estimator."""
    if estimator not in ("j", "ht", "voptimal-oracle"):
        raise ValueError(f"Monte Carlo sweeps support 'j', 'ht' and 'voptimal-oracle', not {estimator!r}")
    fs = query_functions(query, data.r, p)
    totals = _mc_sums(data, scheme, fs, item_ids, np.asarray(salts, dtype=np.uint64), estimator, grid_n)
    return query_answers(query, totals, p)
