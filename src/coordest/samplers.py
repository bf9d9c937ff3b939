"""Coordinated sampling of instances, rank functions, and bottom-k samples.

Per-item sampling applies the shared-seed rule directly.  Bottom-k sampling
keeps the k highest-rank items of one instance; conditioning on all other
seeds turns each item's membership into a fixed-threshold rule (rank at least
the k-th largest rank among the *other* items, i.e. the (k+1)-st largest
overall for members), which is what lets per-item estimators run unchanged on
bottom-k samples.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .model import (
    InstanceSet,
    Known,
    Outcome,
    TauScheme,
    Unknown,
    seeds_for_items,
)

PPS_RANK_KIND = "pps"
EXP_RANK_KIND = "exp"


@dataclass(frozen=True)
class RankFunction:
    """Seed/value to rank map. ``pps`` ranks are ``v/u``; ``exp`` ranks are
    ``-v/ln(u)``, matching successive weighted sampling without replacement.

    Both are non-decreasing in the value.  In the seed, ``pps`` ranks fall
    while ``exp`` ranks rise; either way a bottom-k sample keeps the k
    highest ranks.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in (PPS_RANK_KIND, EXP_RANK_KIND):
            raise ValueError(f"unknown rank function kind {self.kind!r}")


PPS_RANK = RankFunction(PPS_RANK_KIND)
EXP_RANK = RankFunction(EXP_RANK_KIND)


def rank_values(rf: RankFunction, us: np.ndarray, v) -> np.ndarray:
    """Ranks of a value under a 1-d array of seeds, for one value or one
    value per seed: ``v/u`` under ``pps``; under ``exp``, ``-v/ln(u)``,
    infinite at ``u = 1``, dividing by ``math.log`` of each seed (``np.log``
    may differ in the last bit).  A zero value ranks 0."""
    us = np.asarray(us, dtype=float)
    v = np.broadcast_to(np.asarray(v, dtype=float), us.shape)
    if rf.kind == PPS_RANK_KIND:
        ranks = v / us
    else:
        logs = np.fromiter(map(math.log, us.tolist()), dtype=float, count=len(us))
        with np.errstate(divide="ignore", invalid="ignore"):
            ranks = np.where(us == 1.0, np.inf, -v / logs)
    return np.where(v == 0.0, 0.0, ranks)


def inclusion_probability(rf: RankFunction, v: float, threshold: float) -> float:
    """Probability over a fresh uniform seed that the value's rank reaches
    ``threshold``."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if v <= 0:
        return 0.0
    if rf.kind == PPS_RANK_KIND:
        return min(1.0, v / threshold)
    return 1.0 - math.exp(-v / threshold)


class Samples(Mapping[str, Outcome]):
    """Coordinated samples of many items under one scheme, held as columns:
    item ids and seeds ``(n,)``, the revealed mask ``(n, r)`` and the cells
    ``(n, r)``, each the revealed value or else the bound ``tau_i(u)``.

    It reads as a mapping from item id to :class:`Outcome`; an outcome is
    built only when it is looked up.  The ids must be unique; the row of
    each id is indexed when an id is first looked up, and a repeated id is
    an error then.
    """

    def __init__(self, item_ids, seeds, revealed, cells, scheme: TauScheme):
        self.item_ids = tuple(item_ids)
        n, r = len(self.item_ids), scheme.r
        self.seeds = np.array(seeds, dtype=float).reshape(n)
        self.revealed = np.array(revealed, dtype=bool).reshape(n, r)
        self.cells = np.array(cells, dtype=float).reshape(n, r)
        for a in (self.seeds, self.revealed, self.cells):
            a.setflags(write=False)
        self.scheme = scheme

    @cached_property
    def _row(self) -> dict[str, int]:
        row = {item: j for j, item in enumerate(self.item_ids)}
        if len(row) != len(self.item_ids):
            raise ValueError("item ids must be unique")
        return row

    def indices(self, item_ids: Iterable[str]) -> np.ndarray:
        """Row of each item; ``KeyError`` names an unknown id."""
        return np.array([self._row[i] for i in item_ids], dtype=np.intp)

    def __getitem__(self, item_id: str) -> Outcome:
        j = self._row[item_id]
        slots = tuple(
            Known(x) if k else Unknown(x)
            for k, x in zip(self.revealed[j].tolist(), self.cells[j].tolist())
        )
        return Outcome(float(self.seeds[j]), slots, self.scheme)

    def __iter__(self):
        return iter(self.item_ids)

    def __len__(self) -> int:
        return len(self.item_ids)


def sample_instances(data: InstanceSet, scheme: TauScheme, salt: int) -> Samples:
    """Coordinated samples for every item: seed each item by hashing
    ``(salt, item_id)``, then reveal entry ``i`` iff ``v_i >= tau_i(u)``."""
    if data.r != scheme.r:
        raise ValueError("data and scheme instance counts differ")
    outside = np.argwhere(data.matrix < np.array(scheme.domain.lows))
    if outside.size:
        j, i = outside[0]
        raise ValueError(f"item {data.item_ids[j]!r}, instance {i + 1}: value below the declared domain")
    seeds = seeds_for_items(data.item_ids, salt)
    taus = scheme.thresholds(seeds).T
    revealed = data.matrix >= taus
    return Samples(data.item_ids, seeds, revealed, np.where(revealed, data.matrix, taus), scheme)


# ---------------------------------------------------------------------------
# bottom-k sampling with rank conditioning


@dataclass(frozen=True)
class BottomKSample:
    """The k items of highest rank in one instance, as columns in rank
    order, and the ``threshold`` every member is conditioned on: the k-th
    largest rank among the other items, the (k+1)-th largest overall."""

    k: int
    rank_fn: RankFunction
    threshold: float
    item_ids: tuple[str, ...]
    values: tuple[float, ...]
    seeds: tuple[float, ...]
    ranks: tuple[float, ...]

    def __post_init__(self):
        if any(len(c) != self.k for c in (self.item_ids, self.values, self.seeds, self.ranks)):
            raise ValueError("member count must equal k")
        if any(rank < self.threshold for rank in self.ranks):
            raise ValueError("no member can rank below the threshold")


def bottomk_sample(
    instance_values: Mapping[str, float] | Iterable[tuple[str, float]],
    k: int,
    rf: RankFunction,
    salt: int,
) -> BottomKSample:
    """Draw a bottom-k sample (k highest ranks, ties broken by item id).

    A member's threshold, the k-th largest rank among the other items, is
    the (k+1)-th largest rank overall, the same for every member.  Only
    the items ranked at or above it are sorted.  A rank past the largest
    float is an ``OverflowError`` that names the item.
    """
    values = dict(instance_values)
    if k < 1:
        raise ValueError("k must be positive")
    if k >= len(values):
        raise ValueError(f"k={k} must be smaller than the item count {len(values)}")
    items = list(values)
    v = np.fromiter(values.values(), dtype=float, count=len(items))
    n_positive = int(np.count_nonzero(v > 0.0))
    if k >= n_positive:
        raise ValueError(f"k={k} must be smaller than the positive-item count {n_positive}")
    if not (v >= 0.0).all():
        raise ValueError("values must be nonnegative")
    seeds = seeds_for_items(items, salt)
    with np.errstate(over="ignore"):
        ranks = rank_values(rf, seeds, v)
    # an exponential rank is infinite at seed 1; any other infinite rank overflowed
    past = np.flatnonzero(np.isinf(ranks) & (seeds < 1.0))
    if past.size:
        j = past[0]
        raise OverflowError(f"item {items[j]!r}: the {rf.kind} rank of {float(v[j])!r} at seed {float(seeds[j])!r} "
                            "passes the largest float")
    threshold = float(np.partition(ranks, len(items) - k - 1)[len(items) - k - 1])
    top = np.flatnonzero(ranks >= threshold)
    candidates = zip(ranks[top].tolist(), [str(items[j]) for j in top.tolist()], v[top].tolist(), seeds[top].tolist())
    rank_col, ids, vals, us = zip(*sorted(candidates, key=lambda c: (-c[0], c[1]))[:k])
    return BottomKSample(k, rf, threshold, ids, vals, us, rank_col)


# ---------------------------------------------------------------------------
# sample serialization: one JSON record per line, floats written with
# round-trip precision so records reload bit-exactly


# Records formatted in one pass: memory stays flat in the item count.
WRITE_BLOCK = 256


def write_samples(outcomes: Samples, fp: IO[str]) -> None:
    """One record per item of the samples ``outcomes``, formatted from
    their columns with the pieces ``json`` writes: ``float.__repr__`` for
    numbers, its ASCII escape for the id and its ``", "`` and ``": "``
    separators."""
    if not (np.isfinite(outcomes.seeds).all() and np.isfinite(outcomes.cells).all()):
        raise ValueError("Out of range float values are not JSON compliant")
    for lo in range(0, len(outcomes), WRITE_BLOCK):
        rows = slice(lo, lo + WRITE_BLOCK)
        columns = [
            [f'{{"known": {x!r}}}' if k else f'{{"unknown_ub": {x!r}}}' for k, x in zip(known, xs)]
            for known, xs in zip(outcomes.revealed[rows].T.tolist(), outcomes.cells[rows].T.tolist())
        ]
        fp.writelines(
            f'{{"item": {encode_basestring_ascii(item)}, "seed": {seed!r}, "slots": [{", ".join(slots)}]}}\n'
            for item, seed, slots in zip(outcomes.item_ids[rows], outcomes.seeds[rows].tolist(), zip(*columns))
        )


def _number(x, what: str) -> float:
    """``x`` as a finite float; ``json`` reads ``true`` as a bool and
    ``1e400`` as inf, which :func:`write_samples` cannot write."""
    if isinstance(x, bool):
        raise TypeError(f"{what} {json.dumps(x)} is not a number")
    if not math.isfinite(x := float(x)):
        raise ValueError(f"{what} is not a finite number")
    return x


def read_samples(fp: IO[str], scheme: TauScheme) -> Samples:
    """Samples from records written by :func:`write_samples`.

    Each record must be an outcome of ``scheme``: its finite seed lies in
    (0, 1], a finite known value is at least ``tau_i(seed)`` and an unknown
    bound equals it.  A malformed record, or one that is not such an
    outcome, raises a ``ValueError`` that names its line.
    """
    line_of, seeds, revealed, values = {}, [], [], []
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError("record is not a JSON object")
            item, slots = rec["item"], rec["slots"]
            if not isinstance(item, str):
                raise TypeError(f"item id {item!r} is not a string")
            if len(slots) != scheme.r:
                raise ValueError(f"{len(slots)} slots for {scheme.r} instances")
            if item in line_of:
                raise ValueError(f"duplicate item {item!r}")
            seeds.append(_number(rec["seed"], "seed"))
            revealed.append(["known" in s for s in slots])
            values.append([_number(s["known"], f"slot {i}: known value") if k else
                           _number(s["unknown_ub"], f"slot {i}: unknown bound")
                           for i, (k, s) in enumerate(zip(revealed[-1], slots))])
        except KeyError as exc:
            raise ValueError(f"line {lineno}: missing key {exc}") from None
        # OverflowError: an integer past the largest float
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        line_of[item] = lineno
    u = np.array(seeds, dtype=float)
    known = np.array(revealed, dtype=bool).reshape(-1, scheme.r)
    x = np.array(values, dtype=float).reshape(-1, scheme.r)
    bad_seed = ~((0.0 < u) & (u <= 1.0))
    taus = scheme.thresholds(np.where(bad_seed, 1.0, u)).T
    bad_slot = np.where(known, ~(x >= taus), x != taus)
    bad = np.flatnonzero(bad_seed | bad_slot.any(axis=1))
    if bad.size:
        j = bad[0]
        lineno = list(line_of.values())[j]
        if bad_seed[j]:
            raise ValueError(f"line {lineno}: seed must lie in (0, 1], got {u[j]}")
        i = int(np.argmax(bad_slot[j]))
        if known[j, i]:
            raise ValueError(f"line {lineno}: slot {i}: known value {x[j, i]} below threshold {taus[j, i]}")
        raise ValueError(f"line {lineno}: slot {i}: unknown bound {x[j, i]} != tau({u[j]}) = {taus[j, i]}")
    return Samples(list(line_of), u, known, x, scheme)
