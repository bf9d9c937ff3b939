"""Core domain types for coordinated shared-seed sampling.

An *instance* assigns a nonnegative value to every item; an item's values
across ``r`` instances form its data vector.  Sampling is driven by a single
uniform seed ``u`` in (0, 1] per item (shared across instances) and a scheme
of monotone threshold maps ``tau_i``: the entry for instance ``i`` is revealed
exactly when ``v_i >= tau_i(u)``.  Everything an estimator may later see is an
:class:`Outcome`: the seed plus, per instance, either the revealed value or
the upper bound ``tau_i(u)``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """SplitMix64 step: bijective, well-distributed 64-bit mixer."""
    x = (x + _GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`_mix64` over a uint64 array (uint64 arithmetic wraps mod
    2^64), into ``out`` if given, which may be ``x`` itself."""
    x = np.add(x, np.uint64(_GAMMA), out=out)
    t = np.empty_like(x)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        x ^= np.right_shift(x, np.uint64(shift), out=t)
        x *= np.uint64(mul)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


@lru_cache(maxsize=None)
def item_key(item_id) -> int:
    """Stable 64-bit key for an opaque item identifier."""
    digest = hashlib.blake2b(str(item_id).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _unit_interval(h: int) -> float:
    # (h + 1) / 2^64 maps the full 64-bit range onto (0, 1]; zero is excluded
    # by construction, so seeds are always valid.
    return (h + 1) / 2.0**64


def _unit_interval_np(h: np.ndarray) -> np.ndarray:
    # Correctly-rounded (h + 1) / 2^64 without losing low bits in the
    # uint64 -> float64 conversion; bit-identical to the scalar path.
    # Both addends are exact, so h + 1 incurs exactly one rounding.  Both
    # halves fit in 53 bits, and converting them as int64 is several times
    # faster than as uint64.
    hi = (h >> np.uint64(11)).view(np.int64).astype(np.float64)
    lo = (h & np.uint64(0x7FF)).view(np.int64).astype(np.float64)
    return (hi * 2048.0 + (lo + 1.0)) * 2.0**-64


def hash_seed(item_id, salt: int) -> float:
    """Deterministic seed in (0, 1] for ``(salt, item_id)``.

    The same pair always yields the same seed; this is what coordinates the
    samples of one item across instances.
    """
    h = _mix64(item_key(item_id) ^ _mix64(salt & MASK64))
    return _unit_interval(h)


def mixed_salts(salts: np.ndarray) -> np.ndarray:
    """The salt half of :func:`hash_seed` for every salt: a sweep over salts
    mixes them once and hashes each item against them (:func:`key_seeds`)."""
    return _mix64_np(np.asarray(salts, dtype=np.uint64))


def key_hashes(key: int, mixed: np.ndarray) -> np.ndarray:
    """The 64-bit hashes behind :func:`key_seeds`."""
    h = np.bitwise_xor(mixed, np.uint64(key))
    return _mix64_np(h, out=h)


def key_seeds(key: int, mixed: np.ndarray) -> np.ndarray:
    """Seeds of the item with :func:`item_key` ``key`` at the salts whose
    :func:`mixed_salts` are ``mixed``."""
    return _unit_interval_np(key_hashes(key, mixed))


def seed_cut(p: float) -> int:
    """The largest hash whose seed is at most ``p``, or -1 if there is none.

    The seed ``(h + 1) / 2^64`` rounds monotonically in ``h``, so a seed is
    at most ``p`` exactly when its hash is at most the cut: one integer
    comparison per hash, with no float conversion.
    """
    lo, hi = -1, 2**64  # seed(lo) <= p < seed(hi), at the virtual ends too
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _unit_interval(mid) <= p:
            lo = mid
        else:
            hi = mid
    return lo


def seeds_for_salts(item_id, salts: np.ndarray) -> np.ndarray:
    """Vectorised :func:`hash_seed` over an array of salts."""
    return key_seeds(item_key(item_id), mixed_salts(salts))


def seeds_for_items(item_ids: Iterable, salt: int) -> np.ndarray:
    """Vectorised :func:`hash_seed` over items for a fixed salt."""
    keys = np.array([item_key(i) for i in item_ids], dtype=np.uint64)
    h = _mix64_np(keys ^ np.uint64(_mix64(salt & MASK64)))
    return _unit_interval_np(h)


def validate_seed(u: float) -> float:
    if not (0.0 < u <= 1.0):
        raise ValueError(f"seed must lie in (0, 1], got {u!r}")
    return float(u)


@dataclass(frozen=True)
class Domain:
    """Coordinate-wise lower bounds of the data vectors."""

    lows: tuple[float, ...]

    def __post_init__(self):
        lows = tuple(float(lo) for lo in self.lows)
        object.__setattr__(self, "lows", lows)
        if any(lo < 0.0 for lo in lows):
            raise ValueError("domain lower bounds must be nonnegative")

    @staticmethod
    def default(r: int) -> "Domain":
        return Domain(lows=(0.0,) * r)


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Monotone non-decreasing continuous map given by ``(u, tau)`` joints.

    Joints must start at u=0, end at u=1, with strictly increasing u and
    non-decreasing nonnegative tau; values between joints interpolate
    linearly.  PPS is the two-joint map of :meth:`pps`.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(u), float(t)) for u, t in self.points)
        object.__setattr__(self, "points", pts)
        us = [u for u, _ in pts]
        ts = [t for _, t in pts]
        if len(pts) < 2 or us[0] != 0.0 or us[-1] != 1.0:
            raise ValueError("joints must span u=0 to u=1")
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValueError("joint seeds must be strictly increasing")
        if any(t < 0.0 for t in ts):
            raise ValueError("threshold values must be nonnegative")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("map must be non-decreasing")
        object.__setattr__(self, "_us", np.array(us))
        object.__setattr__(self, "_ts", np.array(ts))
        # the PPS map reads u * t, which never passes t
        object.__setattr__(self, "_capped", len(pts) > 2 or ts[0] > 0.0)

    @staticmethod
    def pps(t: float) -> "PiecewiseLinearMap":
        """The PPS map ``tau(u) = u * t``, through (0, 0) and (1, t): an
        entry with value ``v`` is revealed with probability ``min(1, v/t)``
        over a uniform seed.  ``np.interp`` gives it the bits of ``u * t``
        on [0, 1]."""
        if not t > 0.0:
            raise ValueError("PPS threshold must be positive")
        return PiecewiseLinearMap(((0.0, 0.0), (1.0, t)))

    def value(self, u):
        out = np.interp(u, self._us, self._ts)
        if self._capped:
            # np.interp can pass a segment's right joint an ulp left of it
            out = np.minimum(out, self._ts[np.minimum(np.searchsorted(self._us, u), len(self._ts) - 1)])
        return float(out) if np.isscalar(u) or np.ndim(u) == 0 else out

    def infimum(self) -> float:
        return float(self._ts[0])

    def lines(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The intercept and slope of the segment holding each seed (the
        left one at a joint)."""
        seg = np.searchsorted(self._us[1:-1], us)
        u0, t0 = self._us[seg], self._ts[seg]
        slopes = (self._ts[seg + 1] - t0) / (self._us[seg + 1] - u0)
        return t0 - slopes * u0, slopes

    def joints(self) -> tuple[float, ...]:
        return tuple(u for u, _ in self.points if 0.0 < u < 1.0)

    def crossing_seeds(self, levels) -> tuple[np.ndarray, np.ndarray]:
        """The crossings of every level in ``levels``: the index of each
        crossed level and a seed in (0, 1), once per segment that crosses
        it.  On a rising segment that is the interpolated seed, snapped by
        :func:`snap_crossings` within the segment; on a flat segment sitting
        exactly at the level, both ends, which are exact joints.  A level
        at the map's value at seed 0 is crossed there and has no crossing
        on the first segment, though rounding keeps the map at the level
        over the first few floats."""
        levels = np.asarray(levels, dtype=float)
        ua, ub, ta, tb = self._us[:-1], self._us[1:], self._ts[:-1], self._ts[1:]
        hit = (ta[:, None] <= levels) & (levels <= tb[:, None])
        rising = (tb > ta)[:, None]
        seg, which = np.nonzero(hit & rising)
        us = ua[seg] + (levels[which] - ta[seg]) * (ub[seg] - ua[seg]) / (tb[seg] - ta[seg])
        live = us > 0.0
        seg, which = seg[live], which[live]
        us = snap_crossings(self.value, us[live], levels[which], ua[seg], ub[seg])
        flat, at = np.nonzero(hit & ~rising)
        which = np.concatenate((which, at, at))
        us = np.concatenate((us, ua[flat], ub[flat]))
        keep = (0.0 < us) & (us < 1.0)
        return which[keep], us[keep]


# the most floats stepped from an interpolated crossing before the rest is
# bisected; the rounding of the interpolation leaves the answer a few away
SNAP_ULPS = 8


def snap_crossings(value, us, levels, lo, hi) -> np.ndarray:
    """For each interpolated crossing ``us[k]`` of ``levels[k]``, the last
    seed in ``[lo, hi]`` at which the map ``value`` is at most the level
    (``value(lo) <= level``); ``lo`` and ``hi`` broadcast against ``us``.
    An entry whose value is the level is still revealed there and hidden
    one float above, so a lower-bound curve read at ``nextafter(u)`` has
    made its jump.

    Every crossing steps float by float from its ``u``, all together.
    Those still going after ``SNAP_ULPS`` steps (a segment so flat that
    many seeds share one value) bisect the rest together on the bits of the
    floats, which order as nonnegative floats do.
    """
    us, levels, lo, hi = (np.array(a, dtype=float) for a in np.broadcast_arrays(us, levels, lo, hi))
    lo += 0.0  # a -0.0 end would bisect from negative bits
    us = np.minimum(np.maximum(us, lo), hi)
    live = np.arange(us.size)
    for _ in range(SNAP_ULPS):
        if not live.size:
            return us
        u, level = us[live], levels[live]
        over = value(u) > level
        up = np.nextafter(u, np.inf)
        done = ~over & ((up > hi[live]) | (value(up) > level))
        us[live] = np.where(over, np.maximum(np.nextafter(u, -np.inf), lo[live]), np.where(done, u, up))
        live = live[~done]
    if live.size:
        u, level = us[live], levels[live]
        over = value(u) > level
        a = np.where(over, lo[live], u).view(np.int64)
        b = np.where(over, u, hi[live]).view(np.int64)
        while (go := a < b).any():
            mid = a + (b - a + 1) // 2
            ok = value(mid.view(np.float64)) <= level
            a = np.where(go & ok, mid, a)
            b = np.where(go & ~ok, mid - 1, b)
        us[live] = a.view(np.float64)
    return us


@dataclass(frozen=True)
class TauScheme:
    """Per-instance threshold maps plus the declared data domain.

    The infimum of each map's range must not exceed the domain's lower bound
    for that coordinate, otherwise some data values could never be sampled at
    any seed and the scheme is rejected.
    """

    maps: tuple[PiecewiseLinearMap, ...]
    domain: Domain | None = None

    def __post_init__(self):
        maps = tuple(self.maps)
        object.__setattr__(self, "maps", maps)
        if not maps:
            raise ValueError("scheme needs at least one instance map")
        domain = self.domain if self.domain is not None else Domain.default(len(maps))
        object.__setattr__(self, "domain", domain)
        if len(domain.lows) != len(maps):
            raise ValueError("domain arity does not match instance count")
        for i, m in enumerate(maps):
            if m.infimum() > domain.lows[i]:
                raise ValueError(
                    f"map {i}: infimum {m.infimum()} exceeds domain lower bound "
                    f"{domain.lows[i]}; such values could never be sampled"
                )

    @property
    def r(self) -> int:
        return len(self.maps)

    @staticmethod
    def pps(tau_stars, r: int | None = None) -> "TauScheme":
        """One :meth:`PiecewiseLinearMap.pps` map per threshold; a scalar
        ``tau_stars`` is shared by all ``r`` instances."""
        if np.isscalar(tau_stars):
            if r is None:
                raise ValueError("scalar tau_star needs an explicit instance count")
            tau_stars = (tau_stars,) * r
        return TauScheme(tuple(PiecewiseLinearMap.pps(float(t)) for t in tau_stars))

    def thresholds(self, us) -> np.ndarray:
        """``tau_i(u)`` for every instance (rows) and every seed in ``us``
        (columns)."""
        us = np.asarray(us, dtype=float)
        return np.stack([np.asarray(m.value(us), dtype=float) for m in self.maps])

    def common_pps_tau(self) -> float | None:
        """The shared ``t`` if every map is the PPS map of one threshold
        ``t > 0``: the two joints (0, 0) and (1, t)."""
        t = self.maps[0].points[-1][1]
        return t if t > 0.0 and all(m.points == ((0.0, 0.0), (1.0, t)) for m in self.maps) else None


@dataclass(frozen=True)
class Known:
    """Slot whose value was revealed by the sample."""

    value: float


@dataclass(frozen=True)
class Unknown:
    """Slot that was not sampled; the value is strictly below ``bound``."""

    bound: float


Slot = Union[Known, Unknown]


@dataclass(frozen=True)
class Outcome:
    """A seed plus per-instance slots; carries its scheme so estimators are
    self-contained (the seed and the threshold maps are always available to
    the estimator)."""

    seed: float
    slots: tuple[Slot, ...]
    scheme: TauScheme

    def __post_init__(self):
        validate_seed(self.seed)
        object.__setattr__(self, "slots", tuple(self.slots))
        if len(self.slots) != self.scheme.r:
            raise ValueError("slot count does not match scheme arity")
        for i, slot in enumerate(self.slots):
            t = self.scheme.maps[i].value(self.seed)
            if isinstance(slot, Known):
                if slot.value < t:
                    raise ValueError(
                        f"slot {i}: known value {slot.value} below threshold {t}"
                    )
            elif isinstance(slot, Unknown):
                if slot.bound != t:
                    raise ValueError(
                        f"slot {i}: unknown bound {slot.bound} != tau({self.seed}) = {t}"
                    )
            else:
                raise TypeError(f"slot {i}: expected Known or Unknown, got {slot!r}")

    @property
    def r(self) -> int:
        return len(self.slots)


def outcome_columns(outcomes: Sequence[Outcome]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columnar form of one or more outcomes of one arity: seeds
    ``(n,)``, the revealed mask ``(n, r)`` and each revealed value or else
    the bound ``tau_i(u)`` ``(n, r)``."""
    seeds = np.array([o.seed for o in outcomes], dtype=float)
    revealed = np.array([[isinstance(s, Known) for s in o.slots] for o in outcomes], dtype=bool)
    values = np.array(
        [[s.value if isinstance(s, Known) else s.bound for s in o.slots] for o in outcomes],
        dtype=float,
    )
    return seeds, revealed, values


@dataclass(frozen=True)
class InstanceSet:
    """Items with one value per instance: ids plus an (n_items, r) matrix."""

    item_ids: tuple[str, ...]
    matrix: np.ndarray
    checked: InitVar[bool] = False

    def __post_init__(self, checked: bool):
        if checked:
            # ids that are unique strings, and a fresh (n, r) float matrix of
            # finite nonnegative values, as :func:`ingest` hands them over
            self.matrix.setflags(write=False)
            return
        ids = tuple(str(i) for i in self.item_ids)
        object.__setattr__(self, "item_ids", ids)
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            m = m.reshape(len(ids), -1)
        if m.shape[0] != len(ids):
            raise ValueError("matrix row count does not match item count")
        row = {item: j for j, item in enumerate(ids)}
        if len(row) != len(ids):
            raise ValueError("item ids must be unique")
        bad = np.argwhere(~np.isfinite(m))
        if bad.size:
            j, i = bad[0]
            raise ValueError(f"item {ids[j]!r}, instance {i + 1}: non-finite value {m[j, i]}")
        if m.size and (m < 0).any():
            raise ValueError("item values must be nonnegative")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_row", row)

    @cached_property
    def _row(self) -> dict[str, int]:
        return {item: j for j, item in enumerate(self.item_ids)}

    @property
    def r(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def _index(self, item_id) -> int:
        try:
            return self._row[str(item_id)]
        except KeyError:
            raise ValueError(f"unknown item id {item_id!r}") from None

    def indices(self, item_ids: Iterable) -> np.ndarray:
        """Matrix row of each item; an unknown id raises ``ValueError``."""
        return np.array([self._index(i) for i in item_ids], dtype=np.intp)

    def vector(self, item_id) -> tuple[float, ...]:
        return tuple(self.matrix[self._index(item_id)].tolist())


# Rows parsed in one pass: the cell strings held at once stay flat in the
# row count.
INGEST_BLOCK = 256


def ingest(path: str | Path) -> InstanceSet:
    """Read an instance CSV with header ``item,v1,...,vr``.

    Rejects duplicate item ids, malformed rows, and non-finite or negative
    values, naming the offending cell.  An empty data section is a valid empty set.

    Rows are read in blocks; each value column of a block is parsed in one
    pass with Python's ``float`` and checked as an array.  When a check
    fails, :func:`_ingest_error` walks the block's rows to name the first
    bad cell.
    """
    path = Path(path)
    with path.open(newline="") as fp:
        reader = csv.reader(fp)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing header") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "item" or len(header) < 2:
            raise ValueError(f"{path}: header must be item,v1,...,vr")
        r = len(header) - 1
        ids: list[str] = []
        seen: set[str] = set()
        blocks = [np.empty((0, r))]
        lineno = 2
        for body in iter(lambda: list(islice(reader, INGEST_BLOCK)), []):
            # a row whose cells are all blank is skipped; the id test decides most rows
            rows = [row for row in body if row and (row[0].strip() or any(map(str.strip, row)))]
            block_ids = [row[0].strip() for row in rows]
            block = np.empty((len(rows), r))
            try:
                if not {r + 1}.issuperset(map(len, rows)):
                    raise ValueError
                seen.update(block_ids)
                if len(seen) != len(ids) + len(block_ids):
                    raise ValueError
                columns = zip(*rows)
                next(columns, None)  # the ids
                for col, cells in enumerate(columns):
                    block[:, col] = np.fromiter(map(float, cells), dtype=float, count=len(rows))
                if not np.isfinite(block).all() or (block < 0).any():
                    raise ValueError
            except ValueError:
                raise _ingest_error(path, header, body, lineno, set(ids)) from None
            ids += block_ids
            blocks.append(block)
            lineno += len(body)
    return InstanceSet(tuple(ids), np.concatenate(blocks), checked=True)


def _ingest_error(path: Path, header: list[str], body: list[list[str]], lineno: int, seen: set[str]) -> ValueError:
    """The error naming the first bad row or cell of a block of CSV rows
    that :func:`ingest` rejected; the block starts at row ``lineno``, and
    ``seen`` holds the ids of the rows before it."""
    r = len(header) - 1
    for lineno, row in enumerate(body, start=lineno):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != r + 1:
            return ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {r + 1}")
        item = row[0].strip()
        if item in seen:
            return ValueError(f"{path}: row {lineno}: duplicate item id {item!r}")
        for col, cell in enumerate(row[1:], start=1):
            try:
                x = float(cell)
            except ValueError:
                return ValueError(f"{path}: row {lineno}, column {header[col]}: bad number {cell!r}")
            if not math.isfinite(x):
                return ValueError(f"{path}: row {lineno}, column {header[col]}: non-finite value {cell!r}")
            if x < 0:
                return ValueError(f"{path}: row {lineno}, column {header[col]}: negative value {cell}")
        seen.add(item)
    raise AssertionError(f"{path}: rejected, but no row is bad")
