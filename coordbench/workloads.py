"""Workload definitions: input sizes and the operations of one round.

Every workload runs whole rounds of the same operations.  A workload
features the operations that load the layers it is meant to stress; it also
runs one small operation of every other kind (a "guest"), so that every
end-to-end rate has a value on every workload.  Guests are sized to a small
share of the round.

This module uses only the standard library: the workload process imports it
before ``coordest.cli`` is timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("single-salt", "mc-sweep", "analysis")

# (items, instances) per workload
SIZES = {"single-salt": (4000, 2), "mc-sweep": (2000, 4), "analysis": (120, 3)}

TAU = 4.0
INLINE_SCHEME = f"pps:tau={TAU:g}"
MC_REPS = 10_000
BOTTOMK_K = {"single-salt": 100, "mc-sweep": 100, "analysis": 5}

SINGLE_J = ("l1", "lpp:p=2", "maxsum", "minsum", "distinct", "jaccard")
SINGLE_HT = ("maxsum", "minsum", "distinct")
FUNCTIONS = {"rg2": "rg:p=2", "rg1": "rg:p=1", "max": "max", "min": "min",
             "osrg": "one_sided_rg:p=1,hi=3,lo=1"}

# end-to-end rate metric fed by each operation kind (voptimal feeds only ops_per_s)
RATE_OF_KIND = {
    "sample": "sample_items_per_s",
    "exact": "exact_items_per_s",
    "single": "estimate_items_per_s",
    "bottomk": "bottomk_items_per_s",
    "mc": "mc_item_salts_per_s",
    "analyze": "analyze_vectors_per_s",
    "characterize": "characterize_vectors_per_s",
}


@dataclass(frozen=True)
class Op:
    """One CLI operation of a round.

    ``items`` is an explicit id subset (``None`` means all items);
    ``scheme`` is ``"inline"`` or ``"file"``.
    """

    name: str
    kind: str
    query: str | None = None
    estimator: str | None = None
    function: str | None = None
    scheme: str = "inline"
    reps: int = 1
    k: int | None = None
    rank: str = "pps"
    items: tuple[str, ...] | None = None
    units: int = field(default=0, compare=False)
    copy: int = 1

    @property
    def tag(self) -> str:
        """Unique within a round: the name, plus the copy number of a repeat."""
        return self.name if self.copy == 1 else f"{self.name}-{self.copy}"

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["items"] = list(self.items) if self.items is not None else None
        return d

    @staticmethod
    def from_dict(d: dict) -> "Op":
        d = dict(d)
        if d["items"] is not None:
            d["items"] = tuple(d["items"])
        return Op(**d)


def _units(op: Op, n: int) -> int:
    """Work units the op's rate counts: items, item-salts or vectors."""
    m = len(op.items) if op.items is not None else n
    twice = 2 if op.query == "jaccard" else 1
    if op.kind == "single":
        return m * twice
    if op.kind == "mc":
        return m * op.reps * twice
    return m


def round_ops(workload: str, ids: list[str]) -> list[Op]:
    """The operations of one round, in the order they run.

    ``sample`` always runs first: the checks of the single-salt and bottom-k
    answers take their seeds from its output.
    """
    n, r = SIZES[workload]
    k = BOTTOMK_K[workload]
    ops: list[Op] = [Op("sample", "sample")]
    if workload == "single-salt":
        ops.append(Op("exact-l1", "exact", query="l1", estimator="exact"))
        ops += [Op(f"j-{q.split(':')[0]}", "single", query=q, estimator="j") for q in SINGLE_J]
        ops += [Op(f"ht-{q}", "single", query=q, estimator="ht") for q in SINGLE_HT]
        ops += _bottomk_ops(k)
        # guests
        ops.append(Op("mc-l1", "mc", query="l1", estimator="j", reps=2000, items=tuple(ids[:200])))
        ops.append(Op("analyze-max", "analyze", function="max", items=tuple(ids[:16])))
        ops.append(Op("characterize-rg1", "characterize", function="rg:p=1", items=tuple(ids[:8])))
    elif workload == "mc-sweep":
        ops += [Op(f"mc-j-{q.split(':')[0]}", "mc", query=q, estimator="j", reps=MC_REPS) for q in SINGLE_J]
        ops += [Op(f"mc-ht-{q}", "mc", query=q, estimator="ht", reps=MC_REPS) for q in SINGLE_HT]
        # guests
        ops.append(Op("exact-l1", "exact", query="l1", estimator="exact"))
        ops.append(Op("j-l1", "single", query="l1", estimator="j"))
        ops.append(Op("ht-maxsum", "single", query="maxsum", estimator="ht"))
        ops.append(_bottomk_ops(k)[0])
        ops.append(Op("analyze-max", "analyze", function="max", items=tuple(ids[:16])))
        ops.append(Op("characterize-rg1", "characterize", function="rg:p=1", items=tuple(ids[:8])))
    elif workload == "analysis":
        for tag, f in FUNCTIONS.items():
            for scheme in ("inline", "file"):
                # analyze rg:p=2 is left out: on about 2 % of seeds (with 80
                # vectors) a vector is judged unbounded through a one-ulp gap
                # between evaluate() and the closed-form bound, and its record
                # then carries a NaN j_tail_bound, which is not JSON
                if tag != "rg2":
                    ops.append(Op(f"analyze-{tag}-{scheme}", "analyze", function=f, scheme=scheme))
                ops.append(Op(f"characterize-{tag}-{scheme}", "characterize", function=f, scheme=scheme))
        ops.append(Op("voptimal-l1", "voptimal", query="l1", estimator="voptimal-oracle"))
        # guests; the inputs are tiny, so these are a small share of the round
        ops.append(Op("exact-l1", "exact", query="l1", estimator="exact"))
        ops.append(Op("j-l1", "single", query="l1", estimator="j"))
        ops.append(Op("ht-maxsum", "single", query="maxsum", estimator="ht"))
        ops.append(_bottomk_ops(k)[0])
        ops.append(Op("mc-l1", "mc", query="l1", estimator="j", reps=MC_REPS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops += _repeats(ops)
    return [Op(**{**op.__dict__, "units": _units(op, n)}) for op in ops]


REPEATS = 3  # least executions per round of an op kind that feeds a rate


def _repeats(ops: list[Op]) -> list[Op]:
    """Extra copies of the ops of rate-feeding kinds that run fewer than
    ``REPEATS`` times a round, appended after the round's own ops: each rate
    takes a median over the executions of each op, and a median of one or
    two is no median."""
    counts = {kind: sum(op.kind == kind for op in ops) for kind in RATE_OF_KIND}
    rare = [op for op in ops if counts.get(op.kind, REPEATS) < REPEATS]
    return [Op(**{**op.__dict__, "copy": k}) for k in range(2, REPEATS + 1) for op in rare]


def _bottomk_ops(k: int) -> list[Op]:
    return [
        Op("bottomk-pps-ht", "bottomk", query="sum", estimator="ht", k=k, rank="pps"),
        Op("bottomk-pps-j", "bottomk", query="sum", estimator="j", k=k, rank="pps"),
        Op("bottomk-exp-ht", "bottomk", query="distinct", estimator="ht", k=k, rank="exp"),
    ]


@dataclass(frozen=True)
class Inputs:
    """Paths and parameters shared by every op of a run."""

    csv: Path
    scheme_file: Path
    salt: int


def output_paths(op: Op, outdir: Path) -> dict[str, Path]:
    paths = {"out": outdir / f"{op.tag}.jsonl"}
    if op.kind == "characterize":
        paths["curves"] = outdir / f"{op.tag}.curves.csv"
    return paths


def argv_for(op: Op, inp: Inputs, outdir: Path) -> list[str]:
    """Command line of ``coordest`` for the op, writing into ``outdir``."""
    paths = output_paths(op, outdir)
    sub = {"sample": "sample", "analyze": "analyze", "characterize": "characterize"}.get(op.kind, "estimate")
    argv = [sub, "--input", str(inp.csv), "--salt", str(inp.salt), "--out", str(paths["out"])]
    argv += ["--scheme-file", str(inp.scheme_file)] if op.scheme == "file" else ["--scheme", INLINE_SCHEME]
    if op.query is not None:
        argv += ["--query", op.query, "--estimator", op.estimator]
    if op.function is not None:
        argv += ["--function", op.function]
    if op.reps > 1:
        argv += ["--reps", str(op.reps)]
    if op.k is not None:
        argv += ["--k", str(op.k), "--rank", op.rank, "--instance", "1"]
    if op.items is not None:
        argv += ["--items", ",".join(op.items)]
    if "curves" in paths:
        argv += ["--curves", str(paths["curves"])]
    return argv


def reference_kernel() -> float:
    """CPU seconds of a fixed piece of work mixing what the operations do:
    interpreted loops building dicts of strings, and numpy arithmetic on
    arrays of 50k floats.  About 10 ms on a 2-core Xeon VM."""
    import numpy as np  # here, not at the top: this module is imported before coordest.cli is timed

    t = time.process_time()
    table = {}
    for i in range(20_000):
        table[str(i)] = i * i
    a = np.arange(50_000.0)
    for _ in range(30):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.process_time() - t
