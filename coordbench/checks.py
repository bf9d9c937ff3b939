"""Output checks: every CLI output is compared with an independent numpy
computation from the generated matrix, or with a property the method
guarantees.  Nothing here compares with stored output.

Each ``check_*`` function raises :class:`CheckError` on the first
disagreement.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import TAU, Op, output_paths

REL_TOL = 1e-10  # float summation order; a 1e-6 relative error must fail
MC_SIGMAS = 5.0
RATIO_BOUND = 84.0
RATIO_SLACK = 1e-9


class CheckError(AssertionError):
    pass


def _reject_constant(token: str):
    raise CheckError(f"non-JSON number {token}")


def strict_loads(line: str):
    """``json.loads`` that rejects NaN and Infinity."""
    try:
        return json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"bad JSON: {exc}") from None


def load_records(path: Path) -> list[dict]:
    return [strict_loads(line) for line in path.read_text().splitlines() if line.strip()]


def _close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    if not abs(got - want) <= rel * max(abs(want), 1e-300):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# independent per-item formulas


def parse_query(spec: str) -> tuple[str, float]:
    """``(function kind, exponent)`` whose per-item sum answers the query."""
    kind = spec.split(":")[0]
    return {
        "l1": ("rg", 1.0),
        "lpp": ("rg", float(spec.rpartition("=")[2]) if ":" in spec else 1.0),
        "maxsum": ("max", 1.0),
        "minsum": ("min", 1.0),
        "distinct": ("or", 1.0),
        "sum": ("max", 1.0),
    }[kind]


def f_values(spec: str, X: np.ndarray) -> np.ndarray:
    """Function values per row for a CLI function spec such as ``rg:p=2``."""
    name, _, argstr = spec.partition(":")
    args = dict(part.split("=") for part in argstr.split(",")) if argstr else {}
    p = float(args.get("p", 1))
    if name == "max":
        return X.max(axis=1)
    if name == "min":
        return X.min(axis=1)
    if name == "or":
        return (X > 0).any(axis=1).astype(float)
    if name == "rg":
        return np.abs(X.max(axis=1) - X.min(axis=1)) ** p
    if name == "one_sided_rg":
        hi, lo = int(args["hi"]) - 1, int(args["lo"]) - 1
        return np.clip(X[:, hi] - X[:, lo], 0.0, None) ** p
    raise ValueError(f"unknown function spec {spec!r}")


def box_lower_bound(kind: str, p: float, X: np.ndarray, x: np.ndarray, tau: float) -> np.ndarray:
    """Infimum of the item function over the box known at seeds ``x`` under
    the PPS threshold ``tau``: entry ``j`` is pinned to its value when
    ``X[:, j] >= x * tau``, and free in ``[0, x * tau)`` otherwise."""
    thr = x[:, None] * tau
    known = X >= thr
    lows = np.where(known, X, 0.0)
    highs = np.where(known, X, thr)
    if kind == "max":
        return lows.max(axis=1)
    if kind == "min":
        return lows.min(axis=1)
    if kind == "or":
        return (lows > 0).any(axis=1).astype(float)
    return np.clip(lows.max(axis=1) - highs.min(axis=1), 0.0, None) ** p


def dyadic_index(u: np.ndarray) -> np.ndarray:
    """``i`` with ``u`` in ``(2^-i-1, 2^-i]``, exactly, from the binary exponent."""
    m, e = np.frexp(u)
    return np.where(m == 0.5, 1 - e, -e)


def j_estimates(kind: str, p: float, X: np.ndarray, u: np.ndarray, tau: float) -> np.ndarray:
    """Dyadic estimate ``2^(i+1) (lb(2^-i) - lb(2^-i+1))`` per row."""
    i = dyadic_index(u)
    x = np.ldexp(1.0, -i)
    head = box_lower_bound(kind, p, X, x, tau)
    prev = np.where(i > 0, box_lower_bound(kind, p, X, np.minimum(2.0 * x, 1.0), tau), 0.0)
    return np.maximum(0.0, np.ldexp(head - prev, i + 1))


def ht_estimates(kind: str, X: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-probability estimate per row under the shared PPS threshold."""
    known = X >= (u * TAU)[:, None]
    if kind == "min":
        lo = X.min(axis=1)
        with np.errstate(invalid="ignore"):
            return np.where(known.all(axis=1), lo / np.minimum(1.0, lo / TAU), 0.0)
    top = X.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = (top if kind == "max" else 1.0) / np.minimum(1.0, top / TAU)
    return np.where(known.any(axis=1), est, 0.0)


# ---------------------------------------------------------------------------
# checks per operation kind


class Context:
    """What the checks know: the generated matrix, ids and run parameters."""

    def __init__(self, ids: list[str], X: np.ndarray, read_samples=None, scheme=None):
        self.ids = ids
        self.X = X
        self.row = {item: j for j, item in enumerate(ids)}
        self.read_samples = read_samples  # coordest.samplers.read_samples
        self.scheme = scheme  # inline scheme object for the round trip
        self.seeds: np.ndarray | None = None

    def rows(self, items) -> np.ndarray:
        return self.X if items is None else self.X[[self.row[i] for i in items]]


def check_sample(path: Path, ctx: Context) -> None:
    """known <=> v >= tau(u); known value = data; unknown bound = tau(u);
    bit-exact read-back; sets ``ctx.seeds`` for the estimate checks."""
    recs = load_records(path)
    if [r["item"] for r in recs] != ctx.ids:
        raise CheckError("sample: records do not list every item in input order")
    u = np.array([r["seed"] for r in recs], dtype=float)
    if not ((u > 0) & (u <= 1)).all():
        raise CheckError("sample: seed outside (0, 1]")
    thr = u * TAU
    for j, rec in enumerate(recs):
        for i, slot in enumerate(rec["slots"]):
            v = ctx.X[j, i]
            if (v >= thr[j]) != ("known" in slot):
                raise CheckError(f"sample: item {rec['item']} slot {i}: known-ness disagrees with v >= tau(u)")
            if "known" in slot and slot["known"] != v:
                raise CheckError(f"sample: item {rec['item']} slot {i}: known value {slot['known']} != {v}")
            if "unknown_ub" in slot and slot["unknown_ub"] != thr[j]:
                raise CheckError(f"sample: item {rec['item']} slot {i}: bound {slot['unknown_ub']} != tau(u)")
    if ctx.read_samples is not None:
        with path.open() as fp:
            back = ctx.read_samples(fp, ctx.scheme)
        for rec in recs:
            o = back[rec["item"]]
            slots = [{"known": s.value} if hasattr(s, "value") else {"unknown_ub": s.bound} for s in o.slots]
            if o.seed != rec["seed"] or slots != rec["slots"]:
                raise CheckError(f"sample: item {rec['item']} does not read back bit-exactly")
    ctx.seeds = u


def _single_record(path: Path) -> dict:
    recs = load_records(path)
    if len(recs) != 1:
        raise CheckError(f"{path.name}: expected one record, got {len(recs)}")
    return recs[0]


def check_exact(op: Op, path: Path, ctx: Context) -> None:
    kind, p = parse_query(op.query)
    want = math.fsum(f_values(f"{kind}:p={p}", ctx.rows(op.items)))
    _close(_single_record(path)["value"], want, f"{op.name} value")


def check_single(op: Op, path: Path, ctx: Context) -> None:
    rec = _single_record(path)
    X, u = ctx.X, ctx.seeds

    def total(kind: str, p: float) -> float:
        if op.estimator == "j":
            return math.fsum(j_estimates(kind, p, X, u, TAU))
        return math.fsum(ht_estimates(kind, X, u))

    if op.query == "jaccard":
        lo, hi = total("min", 1.0), total("max", 1.0)
        _close(rec["minsum"], lo, f"{op.name} minsum")
        _close(rec["maxsum"], hi, f"{op.name} maxsum")
        want = 0.0 if hi == 0 else min(1.0, max(0.0, lo / hi))
    else:
        want = total(*parse_query(op.query))
    _close(rec["value"], want, f"{op.name} value")


def check_bottomk(op: Op, path: Path, ctx: Context) -> None:
    """Members are the k highest ranks of instance 1 (ties by id), each with
    the (k+1)-th largest rank as threshold; the estimate is recomputed."""
    rec = _single_record(path)
    v, u = ctx.X[:, 0], ctx.seeds
    with np.errstate(divide="ignore"):
        if op.rank == "pps":
            rank = np.where(v == 0, 0.0, v / u)
        else:
            rank = np.where(v == 0, 0.0, np.where(u == 1.0, np.inf, -v / np.log(u)))
    order = sorted(range(len(v)), key=lambda j: (-rank[j], ctx.ids[j]))
    top, thr = order[: op.k], rank[order[op.k]]
    members = rec["members"]
    if [m["item"] for m in members] != [ctx.ids[j] for j in top]:
        raise CheckError(f"{op.name}: members differ from the k highest ranks")
    for m, j in zip(members, top):
        if m["value"] != v[j]:
            raise CheckError(f"{op.name}: member {m['item']} value {m['value']} != {v[j]}")
        _close(m["rank"], rank[j], f"{op.name} rank of {m['item']}", rel=1e-12)
        _close(m["threshold"], thr, f"{op.name} threshold of {m['item']}", rel=1e-12)
    vt, ut = v[top], u[top]
    weight = np.ones_like(vt) if op.query == "distinct" else vt
    if op.estimator == "ht":
        prob = np.minimum(1.0, vt / thr) if op.rank == "pps" else 1.0 - np.exp(-vt / thr)
        want = math.fsum(weight / prob)
    else:
        kind = "or" if op.query == "distinct" else "max"
        want = math.fsum(j_estimates(kind, 1.0, vt[:, None], ut, thr))
    _close(rec["value"], want, f"{op.name} value")


def check_mc(op: Op, path: Path, ctx: Context) -> None:
    """The Monte Carlo mean of an unbiased sum lies within 5 standard errors
    of the exact answer; Jaccard (a ratio of sums) only lies in [0, 1]."""
    rec = _single_record(path)
    value, se = rec["value"], rec["stderr"]
    if op.query == "jaccard":
        if not 0.0 <= value <= 1.0:
            raise CheckError(f"{op.name}: Jaccard estimate {value} outside [0, 1]")
        return
    kind, p = parse_query(op.query)
    exact = math.fsum(f_values(f"{kind}:p={p}", ctx.rows(op.items)))
    if not (se >= 0 and abs(value - exact) <= MC_SIGMAS * se + REL_TOL * exact):
        raise CheckError(f"{op.name}: mean {value} with standard error {se} is more than "
                         f"{MC_SIGMAS:g} standard errors from the exact {exact}")


def _vector_records(op: Op, path: Path, ctx: Context) -> tuple[list[dict], np.ndarray]:
    recs = load_records(path)
    items = list(op.items) if op.items is not None else ctx.ids
    if [r["item"] for r in recs] != items:
        raise CheckError(f"{op.name}: records do not list the requested items in order")
    X = ctx.rows(op.items)
    for rec, row in zip(recs, X):
        if rec["vector"] != row.tolist():
            raise CheckError(f"{op.name}: item {rec['item']} vector differs from the data")
    return recs, X


def check_analyze(op: Op, path: Path, ctx: Context) -> None:
    """Ratios within [1, 84]; optimal square mass at least f(v)^2 (Jensen);
    the reported f(v) equals a numpy f(v)."""
    recs, X = _vector_records(op, path, ctx)
    fv = f_values(op.function, X)
    for rec, want in zip(recs, fv):
        ratio = rec["ratio"]
        if not 1.0 - RATIO_SLACK <= ratio <= RATIO_BOUND:
            raise CheckError(f"{op.name}: item {rec['item']} ratio {ratio} outside [1, {RATIO_BOUND:g}]")
        if rec["square_integral_opt"] < want * want * (1.0 - RATIO_SLACK):
            raise CheckError(f"{op.name}: item {rec['item']} optimal square mass below f(v)^2")
        _close(rec["diagnostics"]["f_value"], want, f"{op.name} f_value of {rec['item']}", rel=1e-12)


def check_characterize(op: Op, paths: dict[str, Path], ctx: Context) -> None:
    """Every map has infimum 0, so every vector is estimable and the chain
    bounded => finite variance => estimable holds.  In the curves, seeds lie
    in (0, 1], every value is finite and nonnegative, and both the lower
    bound and the hull column (the integral of the nonnegative optimal
    estimates from u to 1) are non-increasing in u."""
    recs, _ = _vector_records(op, paths["out"], ctx)
    for rec in recs:
        if not (rec["estimable"] and rec["chain_ok"]):
            raise CheckError(f"{op.name}: item {rec['item']} not estimable or chain broken")
    with paths["curves"].open(newline="") as fp:
        rows = list(csv.reader(fp))
    if rows[0] != ["item", "u", "lower_bound", "hull", "j_estimate", "v_optimal"]:
        raise CheckError(f"{op.name}: bad curves header {rows[0]}")
    items = np.array([r[0] for r in rows[1:]])
    if set(items) != {rec["item"] for rec in recs}:
        raise CheckError(f"{op.name}: curves do not cover the requested items")
    vals = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    if not (np.isfinite(vals).all() and (vals >= 0).all() and (vals[:, 0] > 0).all() and (vals[:, 0] <= 1).all()):
        raise CheckError(f"{op.name}: curves hold a seed outside (0, 1] or a negative or non-finite value")
    for item in set(items):
        u, lb, hull = vals[items == item, :3].T
        if (np.diff(u) <= 0).any():
            raise CheckError(f"{op.name}: item {item} curve seeds do not increase")
        for name, col in (("lower bound", lb), ("hull", hull)):
            if (np.diff(col) > 1e-12 * max(col.max(), 1e-300)).any():
                raise CheckError(f"{op.name}: item {item} {name} increases with the seed")


def check_voptimal(op: Op, path: Path, ctx: Context) -> None:
    value = _single_record(path)["value"]
    if not (math.isfinite(value) and value >= 0):
        raise CheckError(f"{op.name}: estimate {value} is not a finite nonnegative number")


def check_op(op: Op, outdir: Path, ctx: Context) -> None:
    paths = output_paths(op, outdir)
    if op.kind == "sample":
        check_sample(paths["out"], ctx)
    elif op.kind == "characterize":
        check_characterize(op, paths, ctx)
    else:
        check = {
            "exact": check_exact,
            "single": check_single,
            "bottomk": check_bottomk,
            "mc": check_mc,
            "analyze": check_analyze,
            "voptimal": check_voptimal,
        }[op.kind]
        check(op, paths["out"], ctx)


def check_round(ops: list[Op], outdir: Path, ctx: Context, failed: set[str]) -> list[str]:
    """Check the output of every op in one round directory that did not
    fail (failures are counted apart); returns the errors."""
    errors = []
    for op in ops:
        if op.tag in failed:
            continue
        try:
            check_op(op, outdir, ctx)
        except (CheckError, IndexError, KeyError, OSError, TypeError, ValueError) as exc:
            errors.append(f"{outdir.name}/{op.tag}: {exc}")
    return errors
