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
from typing import IO

import numpy as np

from .model import (
    InstanceSet,
    Known,
    Outcome,
    TauScheme,
    Unknown,
    outcome_columns,
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
    built only when it is looked up.
    """

    def __init__(self, item_ids, seeds, revealed, cells, scheme: TauScheme):
        self.item_ids = tuple(item_ids)
        self._row = {item: j for j, item in enumerate(self.item_ids)}
        if len(self._row) != len(self.item_ids):
            raise ValueError("item ids must be unique")
        n, r = len(self.item_ids), scheme.r
        self.seeds = np.array(seeds, dtype=float).reshape(n)
        self.revealed = np.array(revealed, dtype=bool).reshape(n, r)
        self.cells = np.array(cells, dtype=float).reshape(n, r)
        for a in (self.seeds, self.revealed, self.cells):
            a.setflags(write=False)
        self.scheme = scheme

    @staticmethod
    def from_outcomes(outcomes: Mapping[str, Outcome]) -> "Samples":
        """Columns of outcomes that share one scheme."""
        if isinstance(outcomes, Samples):
            return outcomes
        if not outcomes:
            raise ValueError("need at least one outcome to know the scheme")
        schemes = {o.scheme for o in outcomes.values()}
        if len(schemes) != 1:
            raise ValueError("outcomes must share one scheme")
        return Samples(outcomes, *outcome_columns(list(outcomes.values())), schemes.pop())

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
class BottomKMember:
    item_id: str
    value: float
    seed: float
    rank: float
    threshold: float  # k-th largest rank among all other items

    def __post_init__(self):
        if self.threshold > self.rank:
            raise ValueError("member threshold cannot exceed its own rank")


@dataclass(frozen=True)
class BottomKSample:
    """The k items of highest rank in one instance, with each member's
    conditional inclusion threshold."""

    k: int
    rank_fn: RankFunction
    members: tuple[BottomKMember, ...]

    def __post_init__(self):
        if len(self.members) != self.k:
            raise ValueError("member count must equal k")
        if len({m.threshold for m in self.members}) > 1:
            raise ValueError("members must share one threshold")


def bottomk_sample(
    instance_values: Mapping[str, float] | Iterable[tuple[str, float]],
    k: int,
    rf: RankFunction,
    salt: int,
) -> BottomKSample:
    """Draw a bottom-k sample (k highest ranks, ties broken by item id).

    A member's threshold, the k-th largest rank among the other items, is
    the (k+1)-th largest rank overall, the same for every member.  Only
    the items ranked at or above it are sorted.
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
    ranks = rank_values(rf, seeds, v)
    threshold = float(np.partition(ranks, len(items) - k - 1)[len(items) - k - 1])
    top = np.flatnonzero(ranks >= threshold)
    candidates = zip(ranks[top].tolist(), [str(items[j]) for j in top.tolist()], v[top].tolist(), seeds[top].tolist())
    members = tuple(
        BottomKMember(item_id=item, value=x, seed=u, rank=rank, threshold=threshold)
        for rank, item, x, u in sorted(candidates, key=lambda c: (-c[0], c[1]))[:k]
    )
    return BottomKSample(k=k, rank_fn=rf, members=members)


# ---------------------------------------------------------------------------
# sample serialization: one JSON record per line, floats written with
# round-trip precision so records reload bit-exactly


# Records formatted in one pass: memory stays flat in the item count.
WRITE_BLOCK = 256


def write_samples(outcomes: Mapping[str, Outcome], fp: IO[str]) -> None:
    """One record per item, formatted from the columns with the pieces
    ``json`` writes: ``float.__repr__`` for numbers, its ASCII escape for
    the id and its ``", "`` and ``": "`` separators."""
    if not outcomes:
        return
    s = Samples.from_outcomes(outcomes)
    if not (np.isfinite(s.seeds).all() and np.isfinite(s.cells).all()):
        raise ValueError("Out of range float values are not JSON compliant")
    for lo in range(0, len(s), WRITE_BLOCK):
        rows = slice(lo, lo + WRITE_BLOCK)
        columns = [
            [f'{{"known": {x!r}}}' if k else f'{{"unknown_ub": {x!r}}}' for k, x in zip(known, xs)]
            for known, xs in zip(s.revealed[rows].T.tolist(), s.cells[rows].T.tolist())
        ]
        fp.writelines(
            f'{{"item": {encode_basestring_ascii(item)}, "seed": {seed!r}, "slots": [{", ".join(slots)}]}}\n'
            for item, seed, slots in zip(s.item_ids[rows], s.seeds[rows].tolist(), zip(*columns))
        )


def read_samples(fp: IO[str], scheme: TauScheme) -> Samples:
    """Samples from records written by :func:`write_samples`.

    Each record must be an outcome of ``scheme``: its seed lies in (0, 1], a
    known value is at least ``tau_i(seed)`` and an unknown bound equals it.
    The error names the line that fails.
    """
    ids, lines, seeds, revealed, values = [], [], [], [], []
    seen = set()
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        slots = rec["slots"]
        if len(slots) != scheme.r:
            raise ValueError(f"line {lineno}: {len(slots)} slots for {scheme.r} instances")
        if rec["item"] in seen:
            raise ValueError(f"line {lineno}: duplicate item {rec['item']!r}")
        seen.add(rec["item"])
        ids.append(rec["item"])
        lines.append(lineno)
        seeds.append(float(rec["seed"]))
        revealed.append(["known" in s for s in slots])
        values.append([float(s["known"]) if "known" in s else float(s["unknown_ub"]) for s in slots])
    u = np.array(seeds, dtype=float)
    known = np.array(revealed, dtype=bool).reshape(-1, scheme.r)
    x = np.array(values, dtype=float).reshape(-1, scheme.r)
    bad_seed = ~((0.0 < u) & (u <= 1.0))
    taus = scheme.thresholds(np.where(bad_seed, 1.0, u)).T
    bad_slot = np.where(known, ~(x >= taus), x != taus)
    bad = np.flatnonzero(bad_seed | bad_slot.any(axis=1))
    if bad.size:
        j = bad[0]
        if bad_seed[j]:
            raise ValueError(f"line {lines[j]}: seed must lie in (0, 1], got {u[j]}")
        i = int(np.argmax(bad_slot[j]))
        if known[j, i]:
            raise ValueError(f"line {lines[j]}: slot {i}: known value {x[j, i]} below threshold {taus[j, i]}")
        raise ValueError(f"line {lines[j]}: slot {i}: unknown bound {x[j, i]} != tau({u[j]}) = {taus[j, i]}")
    return Samples(ids, u, known, x, scheme)
