"""The coordest benchmark: one run of one workload.

    python3 coordbench/run.py --workload single-salt --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn, printing one result line
each, and exits 1 when any run was not correct.

Run from the root of a coordest checkout; the package is imported from
``src/`` as it stands, nothing is installed.  A run:

1. generates the workload's inputs from ``--seed`` under ``.bench_run/``;
2. untraced only: times set-up (import ``coordest.cli``, ingest the CSV,
   parse the scheme) in fresh interpreters and takes the median;
3. runs whole rounds of the workload's operations in one fresh process with
   one thread, back to back, for ``--seconds``;
4. checks every output of every round against independent computations;
5. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``, whose spans go to ``.bench_run/traces/``).

A run is correct when every operation exited 0 and every output check
passed.  It exits 1 when the run is not correct, and 2 when it cannot run
at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import gen
from tracer import TRACED
from workloads import INLINE_SCHEME, RATE_OF_KIND, WORKLOADS, Inputs, round_ops

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # timed fresh interpreters; one more runs first, untimed, to warm caches
CHILD_TIMEOUT_S = 150
# nominal CPU seconds of workloads.reference_kernel; scaled times are the
# times the operations would take when the kernel takes this long
REFERENCE_S = 0.01
REF_WINDOW = 8  # kernel times around an op: 4 before it, 4 after it


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(csv_path: Path, scheme_file: Path | None, env: dict) -> list[dict]:
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(csv_path)]
    if scheme_file is not None:
        argv.append(str(scheme_file))
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(proc.stdout))
    return times[1:]


def run_workload(plan: dict, plan_path: Path, env: dict) -> dict:
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), str(plan_path)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(summary: dict, setup: list[dict], scaled: bool = True) -> dict:
    """End-to-end metrics.  Unless ``scaled`` is false, each operation's CPU
    time is multiplied by ``REFERENCE_S`` over the median reference-kernel
    time of the ``REF_WINDOW`` kernels around it, which takes out the CPU's
    changing speed on a shared host; set-up times are scaled by the kernel
    time measured in the same fresh interpreter.  Each rate is the kind's
    work over the sum, across its ops, of each op's median time over its
    executions (repeats and rounds).  Failed executions are left out of
    every rate and of ``ops_per_s``."""
    refs = summary["refs"]
    execs = []
    for i, (kind, op, seconds, n, ok) in enumerate(summary["execs"]):
        around = refs[max(0, i - REF_WINDOW // 2 + 1): i + REF_WINDOW // 2 + 1]
        if ok:  # a failed execution did not do the op's work
            execs.append((kind, op, seconds * (REFERENCE_S / statistics.median(around) if scaled else 1.0), n))
    metrics = {
        "setup_s": (statistics.median(
            p["setup_s"] * (REFERENCE_S / p["reference_s"] if scaled else 1.0) for p in setup), "s"),
        "ops_per_s": (len(execs) / sum(e[2] for e in execs), "ops/s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }
    for kind, name in RATE_OF_KIND.items():
        times: dict[str, list[float]] = {}
        units: dict[str, int] = {}
        for k, op, seconds, n in execs:
            if k == kind:
                times.setdefault(op, []).append(seconds)
                units[op] = n
        if not times:  # every execution of the kind failed: no rate
            continue
        rate = sum(units.values()) / sum(statistics.median(t) for t in times.values())
        unit = {"mc": "item-salts/s", "analyze": "vectors/s", "characterize": "vectors/s"}.get(kind, "items/s")
        metrics[name] = (rate, unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(summary: dict) -> dict:
    """Self seconds and work count per round for every layer function;
    ``cli.import`` happens once per process and is reported as measured."""
    rounds = summary["rounds"]
    out = {}
    for name in ("cli.import", *TRACED):
        seconds, count = summary["layers"].get(name, (0.0, 0))
        per = 1 if name == "cli.import" else rounds
        out[f"{name}_s"] = {"value": seconds / per, "unit": "s"}
        out[f"{name}_n"] = {"value": count / per, "unit": "count"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one coordest benchmark workload, or all in turn.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "coordest" / "cli.py").is_file():
        print("coordbench: src/coordest not found; run from the root of a coordest checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(root, workload, args) for workload in workloads)


def run_one(root: Path, workload: str, args: argparse.Namespace) -> int:
    """One run of one workload; prints its result line, returns 1 when an
    output check failed or an operation raised or exited nonzero."""
    bench_dir = root / ".bench_run"
    run_dir = bench_dir / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    trace_path = bench_dir / "traces" / f"{workload}-seed{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    try:
        X = gen.workload_matrix(workload, args.seed)
        csv_path, scheme_file = gen.write_inputs(X, run_dir / "inputs")
        ids = gen.item_ids(len(X))
        ops = round_ops(workload, ids)
        inp = Inputs(csv_path, scheme_file, salt=args.seed % (1 << 32))
        setup = [] if args.trace else measure_setup(
            csv_path, scheme_file if any(op.scheme == "file" for op in ops) else None, env)
        plan = {
            "workload": workload, "csv": str(inp.csv), "scheme_file": str(inp.scheme_file),
            "salt": inp.salt, "instances": X.shape[1], "ops": [op.to_dict() for op in ops],
            "seconds": args.seconds,
            "trace": args.trace, "outdir": str(run_dir / "out"), "trace_path": str(trace_path),
        }
        summary = run_workload(plan, run_dir / "plan.json", env)
        errors = verify(summary, ops, ids, X, run_dir / "out")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for err in errors[:20]:
        print(f"coordbench: check failed: {err}", file=sys.stderr)
    for rnd, name, rc in summary["failed"][:20]:
        print(f"coordbench: round {rnd} op {name} failed with exit code {rc}", file=sys.stderr)
    record = bench_dir / "runs" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"setup": setup, **summary}))
    if not args.trace:
        raw = end_to_end(summary, setup, scaled=False)
        print("coordbench: unscaled CPU-time metrics: "
              + json.dumps({k: v["value"] for k, v in raw.items()}), file=sys.stderr)
    correct = not errors and not summary["failed"]
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": len(summary["failed"]),
        "metrics": per_layer(summary) if args.trace else end_to_end(summary, setup),
    }
    print(json.dumps(result))
    return 0 if correct else 1


def verify(summary: dict, ops, ids, X: np.ndarray, outroot: Path) -> list[str]:
    """Check every round's outputs; the sample round trip goes through the
    package's own ``read_samples``."""
    from coordest.cli import parse_scheme
    from coordest.samplers import read_samples

    errors = []
    for rnd in range(summary["rounds"]):
        failed = {name for r, name, _ in summary["failed"] if r == rnd}
        ctx = checks.Context(ids, X, read_samples, parse_scheme(INLINE_SCHEME, X.shape[1]))
        errors += checks.check_round(ops, outroot / f"round{rnd}", ctx, failed)
    return errors


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    raise SystemExit(main())
