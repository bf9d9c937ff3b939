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
from dataclasses import KW_ONLY, dataclass, replace
from itertools import chain, compress
from typing import Sequence

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
from .hull import NO_HULL, EstimateBlock, arc_hull, lower_hulls
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

# dyadic pieces an analysis materialises
DEPTH = 40

# the estimators of sum_estimate and of the Monte Carlo sweeps
ESTIMATORS = ("j", "ht", "voptimal-oracle")


def dyadic_indices(us: np.ndarray) -> np.ndarray:
    """The index ``i`` with ``u`` in ``(2^-i-1, 2^-i]`` of every seed ``u``
    of ``us``, as ``intp`` (indexing with the int32 exponents of ``frexp``
    is about three times slower).

    Read off the binary exponent, ``u = m * 2^e`` with m in [0.5, 1):
    exact, where ``floor(-log2 u)`` is one too large just above a power of
    two.
    """
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
    # past the largest float: inf, or NaN from two such bounds; no record holds either
    with np.errstate(over="ignore", invalid="ignore"):
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
    # ldexp scales by 2^(j+1) exactly, also past 2^1023 for the deep blocks
    # of data below about 1e-300; a value past the largest float (those, or
    # data above about 9e307) is inf, and two such bounds leave a NaN
    with np.errstate(over="ignore", invalid="ignore"):
        vals[:, 0] = 2.0 * lbs[:, 0]
        vals[:, 1:] = np.ldexp(lbs[:, 1:] - lbs[:, :-1], np.arange(2, depth + 2))
    return np.clip(vals, 0.0, None)


def j_piece_values(v: Sequence[float], f: ItemFunction, scheme: TauScheme, depth: int) -> np.ndarray:
    """Constant dyadic values ``values[j]`` on ``(2^-j-1, 2^-j]`` for
    ``j = 0..depth``: one row of :func:`j_piece_tables`."""
    return j_piece_tables(np.asarray(v, dtype=float).reshape(1, -1), f, scheme, depth)[0]


# ---------------------------------------------------------------------------
# inverse-probability estimates


def _common_pps_tau(scheme: TauScheme) -> float:
    tau = scheme.common_pps_tau()
    if tau is None:
        raise ValueError("inverse-probability estimates need a common PPS threshold")
    return tau


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def ht_estimates(f: ItemFunction, revealed: np.ndarray, values: np.ndarray, scheme: TauScheme) -> np.ndarray:
    """Inverse-probability estimate of every outcome given as columns (see
    :func:`j_estimates`) when it certifies the function value and the
    revelation probability is not 0; 0 otherwise.

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
    return np.where(certified & (p > 0.0), top / p, 0.0)


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
    # m / tau* past the largest float is inf: a probability of 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = np.minimum(1.0, m / tau_star)
        return np.where(fv == 0.0, 0.0, fv / p), p


# ---------------------------------------------------------------------------
# hull-derivative (minimum-variance) estimates


def v_optimal_estimates(lb: LowerBoundFn) -> EstimateBlock:
    """Negated slopes of the lower hull of a full lower-bound curve: the
    one-row :func:`hull_block` of the curve; the error of a hull that
    fails is raised."""
    block, _, (error,) = hull_block([lb], lambda _, us: lb.value(us))
    if error is not None:
        raise error
    return block


def _corners(lb: LowerBoundFn) -> bool:
    """Whether the hull of ``lb`` has its vertices among the curve's corners."""
    return lb.exponent is None or lb.exponent <= 1.0


def _padded(rows: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """Float rows of any lengths as one array, padded with 1.0, and the
    mask of the entries that are not padding."""
    lens = np.array([len(r) for r in rows], dtype=np.intp)
    out = np.ones((len(rows), lens.max(initial=0)))
    real = np.arange(out.shape[1]) < lens[:, None]
    out[real] = list(chain.from_iterable(rows))
    return out, real


def hull_block(lbfs: Sequence[LowerBoundFn], read) -> tuple[EstimateBlock, np.ndarray, list[Exception | None]]:
    """The negated slopes of the lower hull of each full lower-bound curve
    ``lbfs[k]`` as the rows of one :class:`EstimateBlock`, the hulls' left
    anchors, and the error of each row whose hull failed (None where it did
    not); a failed row reads 0.  ``read(rows, us)`` gives the value of the
    curve ``lbfs[rows[i]]`` at seed ``us[i]``, for flat arrays.

    The hull runs from a left anchor just right of 0, carrying the curve's
    limit value, to ``(1, 0)``: the cumulative estimate must vanish at seed
    1, and anchoring the hull there is what lets data that is revealed with
    certainty keep its full mass.  A curve with concave pieces (constant
    ones, or ``(c + d*u)^p`` with ``p <= 1``: every item function but
    ``rg`` and one-sided ``rg`` with ``p > 1``) can have hull vertices only
    at its corners: its points are the curve at every breakpoint and just
    right of it, taken for all rows from the padded breakpoints, read in
    one ``read`` call, and hulled in one :func:`lower_hulls` call.  A curve
    of convex arcs takes its hull from the closed form of its pieces
    (:func:`arc_hull`, one Python stack per row); the curves of such a
    block share one exponent, so it holds no corner curve.
    """
    for lb in lbfs:
        if lb.domain_left > HULL_LEFT_ANCHOR:
            raise ValueError("need a lower-bound curve valid on all of (0, 1]")
        if not _corners(lb) and (lb.pieces is None or math.isinf(lb.exponent)):
            raise ValueError("the hull needs a curve of known form: constant pieces, or (c + d*u)^p on each piece")
    arcs = any(not _corners(lb) for lb in lbfs)
    if arcs and len({lb.exponent for lb in lbfs}) > 1:
        raise ValueError("the curves of a block of arc hulls share one exponent")
    # all the action sits at small seeds, and a curve whose first breakpoint
    # is tiny (values revealed only with tiny probability) keeps its mass
    # below the default anchor; scale the anchor under the curve's head.
    # Below a subnormal head the anchor may underflow to 0
    anchors = np.maximum(np.minimum(HULL_LEFT_ANCHOR, 1e-3 * np.array([lb.head for lb in lbfs])), math.ulp(0.0))
    if arcs:
        rows, errors = [], [None] * len(lbfs)
        for k, (lb, anchor) in enumerate(zip(lbfs, anchors.tolist())):
            try:
                rows.append(arc_hull(lb.breakpoints, lb.pieces, lb.exponent, anchor))
            except (ValueError, ArithmeticError) as exc:
                rows.append([])
                errors[k] = exc
        # each row padded with zero-width pieces at its last edge (seed 1
        # without a hull); a NaN or -0.0 mean reads 0.0, as a corner slope
        width = max(1, *map(len, rows))
        pieces = np.array([r + [(r[-1][1] if r else 1.0,) * 2 + (0.0,) * 3] * (width - len(r)) for r in rows])
        lo, hi, mean, c, d = np.moveaxis(pieces, -1, 0)
        edges = np.concatenate((lo[:, :1], hi), axis=1)
        return EstimateBlock(edges, np.fmax(mean, 0.0) + 0.0, (c, d), lbfs[0].exponent), anchors, errors
    # the points: the anchor, each breakpoint past it, each breakpoint below
    # 1 read just right of it (the curve is left-continuous and may jump
    # down there; the cumulative estimate is continuous and capped at every
    # seed beyond the jump as well, so the binding value AT a breakpoint is
    # the right limit), and (1, 0)
    n, a = len(lbfs), anchors[:, None]
    bps, real = _padded([lb.breakpoints for lb in lbfs])
    seen = np.concatenate((np.ones((n, 1), dtype=bool), real & (bps > a), real & (bps < 1.0)), axis=1)
    at = np.concatenate((a, bps, np.nextafter(bps, np.inf)), axis=1)
    ys = np.zeros((n, at.shape[1] + 1))
    ys[:, :-1][seen] = read(np.nonzero(seen)[0], at[seen])
    xs = np.concatenate((a, bps, bps, np.ones((n, 1))), axis=1)
    edges, ys, counts = lower_hulls(xs, ys, np.pad(seen, ((0, 0), (0, 1)), constant_values=True))
    # a row has two vertices or more, or none
    errors = [None if count else ValueError(NO_HULL) for count in counts]
    # the negated slope of every piece, clamped at 0, and 0 on the padding:
    # the bits of the scalar max(0.0, (y1 - y2) / (u2 - u1)) (fmax turns a
    # NaN into 0.0, and adding +0.0 turns -0.0 into 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = np.fmax((ys[:, :-1] - ys[:, 1:]) / np.diff(edges, axis=1), 0.0) + 0.0
    return EstimateBlock(edges, values), anchors, errors


def block_hulls(f: ItemFunction, rows: np.ndarray, lbfs: Sequence[LowerBoundFn], scheme: TauScheme):
    """:func:`hull_block` of the curves ``lbfs`` of the data vectors
    ``rows``, read by :func:`lower_bounds`: the one hull step of the
    oracle, ``analyze`` and the ``--curves`` rows."""
    return hull_block(lbfs, lambda who, us: lower_bounds(f, rows.T[:, who], True, us, scheme))


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
    """A query answer: its ``value``, the ids and per-item estimates of a
    single sum (read in pairs as ``per_item``), and named ``extras``; all
    but ``query`` and ``value`` are keyword-only."""

    query: str
    value: float
    _: KW_ONLY
    item_ids: tuple[str, ...] = ()
    estimates: tuple[float, ...] = ()
    extras: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("query estimates are nonnegative by construction")
        if len(self.item_ids) != len(self.estimates):
            raise ValueError("need one estimate per item id")
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        object.__setattr__(self, "estimates", tuple(self.estimates))

    @property
    def per_item(self) -> tuple[tuple[str, float], ...]:
        """``(item id, estimate)`` pairs, built when read."""
        return tuple(zip(self.item_ids, self.estimates))


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

    Jaccard is the min-sum over the max-sum, clamped to [0, 1], 0 where the
    max-sum is 0 and NaN, which no record holds, where it is inf; Lp is
    the p-th root of the Lp^p sum, taken with Python's pow (numpy's array pow
    can differ in the last bit); every other query is its one sum.
    """
    sums = np.asarray(sums, dtype=float)
    if query == JACCARD:
        lo, hi = sums
        out = np.zeros_like(lo)
        np.divide(lo, hi, out=out, where=(0.0 < hi) & (hi < math.inf))
        return np.where(hi < math.inf, np.clip(out, 0.0, 1.0), math.nan)
    if query == LP:
        return np.array([_pow(x, 1.0 / float(p)) for x in sums[0].tolist()])
    return sums[0]


def _pow(x: float, e: float) -> float:
    """Python's ``x ** e``, or inf where that passes the largest float."""
    try:
        return x**e
    except OverflowError:
        return math.inf


def _answer(query: str, p: float | None, fs, sums: Sequence[QueryResult]) -> QueryResult:
    """``query`` answered from the sum of each of its functions ``fs``, with
    the items of a single sum, or else the sums by name."""
    value = float(query_answers(query, [[s.value] for s in sums], p)[0])
    if len(sums) == 1:
        return QueryResult(query, value, item_ids=sums[0].item_ids, estimates=sums[0].estimates)
    return QueryResult(query, value, extras=tuple((f"{f.kind}sum", s.value) for f, s in zip(fs, sums)))


def _sequential_sum(xs: Sequence[float]) -> float:
    """Left-to-right float sum (``sum`` compensates from Python 3.12 on):
    the order of every query sum, so that the per-salt sums of a Monte Carlo
    sweep equal single-salt query sums bit for bit on every Python."""
    total = 0.0
    for x in xs:
        total += x
    return total


def sum_estimate(
    samples: Samples,
    f: ItemFunction,
    estimator: str,
    item_ids: Sequence[str] | None = None,
    *,
    data: InstanceSet | None = None,
) -> QueryResult:
    """Sum of per-item estimates of ``f`` over the selected items.

    J and HT take one kernel call over the selected rows of the samples,
    and ``item_ids=None`` selects every row as it stands.  The
    hull-derivative oracle needs the true data: it takes the items' curves
    from :func:`lb_functions`, ``MC_ITEM_BLOCK`` at a time, and reads each
    item's hull at the item's seed from the block of their hulls.
    """
    if estimator == "voptimal-oracle" and data is None:
        raise ValueError("the hull-derivative oracle needs the true data")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    name = f"sum[{f.describe()}]"
    ids = None if item_ids is None else [str(i) for i in item_ids]
    if not (samples if ids is None else ids):
        return QueryResult(name, 0.0)
    rows = slice(None) if ids is None else samples.indices(ids)
    ids = samples.item_ids if ids is None else ids
    if estimator == "j":
        cols = samples.seeds[rows], samples.revealed[rows], samples.cells[rows]
        estimates = j_estimates(f, *cols, samples.scheme).tolist()
    elif estimator == "ht":
        estimates = ht_estimates(f, samples.revealed[rows], samples.cells[rows], samples.scheme).tolist()
    else:
        vectors, seeds, estimates = data.matrix[data.indices(ids)], samples.seeds[rows], []
        for start in range(0, len(ids), MC_ITEM_BLOCK):
            block = vectors[start:start + MC_ITEM_BLOCK]
            hulls, _, errors = block_hulls(f, block, lb_functions(f, block, samples.scheme), samples.scheme)
            for error in filter(None, errors):
                raise error
            estimates += hulls.value_at(np.arange(len(block)), seeds[start:start + len(block)]).tolist()
    return QueryResult(name, _sequential_sum(estimates), item_ids=ids, estimates=estimates)


def exact_query(
    data: InstanceSet,
    query: str,
    item_ids: Sequence[str] | None = None,
    p: float | None = None,
) -> QueryResult:
    """Ground-truth query answer straight from the data; ``item_ids=None``
    reads every row as it stands."""
    fs = query_functions(query, data.r, p)
    if item_ids is None:
        ids, rows = data.item_ids, data.matrix
    else:
        ids = [str(i) for i in item_ids]
        rows = data.matrix[data.indices(ids)]
    sums = []
    for f in fs:
        values = evaluate_many(f, rows).tolist()
        sums.append(QueryResult(f"sum[{f.describe()}]", _sequential_sum(values), item_ids=ids, estimates=values))
    return _answer(query, p, fs, sums)


def estimate_query(
    samples: Samples,
    r: int,
    query: str,
    estimator: str,
    item_ids: Sequence[str] | None = None,
    p: float | None = None,
    *,
    data: InstanceSet | None = None,
) -> QueryResult:
    """Query answer from coordinated samples: the sum of per-item estimates
    of each of :func:`query_functions`, answered by :func:`query_answers`."""
    fs = query_functions(query, r, p)
    sums = [sum_estimate(samples, f, estimator, item_ids, data=data) for f in fs]
    return _answer(query, p, fs, sums)


# ---------------------------------------------------------------------------
# bottom-k estimation via rank conditioning


BOTTOMK_QUERIES = (MAX_SUM, MIN_SUM, L1, DISTINCT, "sum")
BOTTOMK_ESTIMATORS = ("ht", "j")


def bottomk_estimate(
    sample: BottomKSample,
    query: str,
    estimator: str = "ht",
    item_ids: Sequence[str] | None = None,
) -> QueryResult:
    """Subset-sum or distinct-count estimate from a bottom-k sample.

    Conditioned on the sample's threshold T, members are independently
    sampled entries; other items add 0.  Under PPS ranks, rank >= T is
    value >= T * seed: :func:`sum_estimate` answers the members as one
    instance under ``pps:tau=T``, all revealed.  Under exponential ranks an
    estimate is the weight over :func:`inclusion_probability`, 0 where it is 0.
    """
    if query not in BOTTOMK_QUERIES:
        raise ValueError(f"query {query!r} not supported on bottom-k samples")
    if estimator not in BOTTOMK_ESTIMATORS:
        raise ValueError(f"unknown bottom-k estimator {estimator!r}")
    if estimator == "j" and sample.rank_fn.kind != PPS_RANK_KIND:
        raise ValueError("dyadic estimation of bottom-k members needs PPS ranks; "
                         "exponential-rank thresholds do not invert to a monotone map")
    wanted = None if item_ids is None else {str(i) for i in item_ids}
    keep = [wanted is None or item in wanted for item in sample.item_ids]
    ids, values, seeds = (list(compress(c, keep)) for c in (sample.item_ids, sample.values, sample.seeds))
    if sample.rank_fn.kind == PPS_RANK_KIND:
        members = Samples(ids, seeds, [[True]] * len(ids), values, TauScheme.pps(sample.threshold, r=1))
        f = or_fn(1) if query == DISTINCT else max_fn(1)
        return replace(sum_estimate(members, f, estimator), query=f"bottomk-{query}")
    probs = [inclusion_probability(sample.rank_fn, x, sample.threshold) for x in values]
    estimates = [(1.0 if query == DISTINCT else x) / p if p > 0 else 0.0 for x, p in zip(values, probs)]
    return QueryResult(f"bottomk-{query}", _sequential_sum(estimates), item_ids=ids, estimates=estimates)


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
    """``1022 - i`` for hashed seeds ``u`` of dyadic index ``i``
    (:func:`dyadic_indices`), read off the float bits: the biased exponent
    of the float just below ``u``, so that ``2^-i`` falls with the seeds of
    ``(2^-i-1, 2^-i]``.  Exact for normal floats, which every seed of at
    least 2^-64 is."""
    bits = seeds.view(np.uint64) - np.uint64(1)
    return (bits >> np.uint64(52)).view(np.int64)


def _slot_table(table: np.ndarray) -> np.ndarray:
    """A dyadic table indexed by :func:`_dyadic_slots` instead of the index."""
    out = np.zeros(1023)
    out[1022 - MC_DEPTH:] = table[::-1]
    return out


@np.errstate(over="ignore")  # a sum past the largest float is inf, which no record holds
def _mc_sums(
    data: InstanceSet,
    scheme: TauScheme,
    fs: Sequence[ItemFunction],
    item_ids: Sequence[str],
    salts: np.ndarray,
    estimator: str,
) -> np.ndarray:
    """Sum over the items of each function's estimate, per salt: an
    ``(len(fs), len(salts))`` array.

    The salts are mixed once; each item costs one seed hash per salt and
    one lookup per salt and function: in its dyadic table, against its
    inverse-probability cut, or in its row of the block of hulls built once
    per block of items and function.  An item whose estimates are all zero
    would add exactly +0.0 to every sum and is skipped.  Every other item is added in item order,
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
            hulls, _, errors = zip(*(block_hulls(f, vectors, lb_functions(f, vectors, scheme), scheme) for f in fs))
            # the first error of the first item whose hull failed
            for error in filter(None, chain.from_iterable(zip(*errors))):
                raise error
            live = np.stack([h.values.any(axis=1) for h in hulls], axis=1)
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
                        totals[j, lo:hi] += hulls[j].value_at(k, seeds)
    return totals


def mc_query_estimates(
    data: InstanceSet,
    scheme: TauScheme,
    query: str,
    item_ids: Sequence[str],
    salts: np.ndarray,
    p: float | None = None,
    estimator: str = "j",
) -> np.ndarray:
    """Query estimate per salt: the sums of :func:`_mc_sums`, over one set of
    seeds per salt, answered by :func:`query_answers`."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"Monte Carlo sweeps support 'j', 'ht' and 'voptimal-oracle', not {estimator!r}")
    fs = query_functions(query, data.r, p)
    totals = _mc_sums(data, scheme, fs, item_ids, np.asarray(salts, dtype=np.uint64), estimator)
    return query_answers(query, totals, p)
