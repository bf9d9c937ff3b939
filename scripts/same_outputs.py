"""Check that HEAD writes the same bytes as another revision on the benchmark's operations.

The ``src`` trees of ``--parent`` and of ``HEAD`` are taken with ``git archive``.  For each
workload of ``coordbench/workloads.py`` the inputs of ``coordbench/gen.py``
are written once from ``--seed``; each revision then runs one round of the
workload's operations and the workload's ``EXTRA_OPS``, as
``coordest.cli.main(argv)`` in one interpreter per revision and workload,
into a directory of its own, and records each operation's exit code and
error.  Every file that differs between the two directories, or that only
one holds, is listed, and the exit status is 1 if any is; the outputs of
both revisions are then kept, and their directory is printed.

Usage: python scripts/same_outputs.py --parent REV [--seed S]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "coordbench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from workloads import WORKLOADS, Inputs, Op, round_ops  # noqa: E402

# the arc paths (p > 1) that the round leaves out, run after it on the same
# input.  At p = 2 the powers ** p and ** (p - 1) take numpy's square and
# copy loops; p = 2.5 and 3 take its general pow loop.  Then the corner-hull
# oracle of the Monte Carlo sweep, which the round runs at one salt only:
# l1 with --reps, and jaccard, which reads two hull blocks per item block
EXTRA_OPS = {"analysis": [
    Op("analyze-rg2-inline", "analyze", function="rg:p=2", scheme="inline"),
    Op("analyze-rg2-file", "analyze", function="rg:p=2", scheme="file"),
    *(Op(f"{kind}-{tag}-{scheme}", kind, function=f, scheme=scheme) for kind in ("characterize", "analyze")
      for tag, f in (("rg25", "rg:p=2.5"), ("osrg3", "one_sided_rg:p=3,hi=3,lo=1")) for scheme in ("inline", "file")),
    Op("voptimal-lpp", "voptimal", query="lpp:p=2", estimator="voptimal-oracle"),
    Op("voptimal-lpp-reps", "voptimal", query="lpp:p=2", estimator="voptimal-oracle", reps=1000),
    Op("voptimal-lpp25", "voptimal", query="lpp:p=2.5", estimator="voptimal-oracle"),
    Op("voptimal-lpp25-reps", "voptimal", query="lpp:p=2.5", estimator="voptimal-oracle", reps=1000),
    Op("voptimal-l1-reps", "voptimal", query="l1", estimator="voptimal-oracle", reps=1000),
    Op("voptimal-jaccard", "voptimal", query="jaccard", estimator="voptimal-oracle"),
    Op("voptimal-jaccard-reps", "voptimal", query="jaccard", estimator="voptimal-oracle", reps=1000),
]}

# one round of a workload's operations; argv: the plan file
RUNNER = """
import json, sys
from pathlib import Path
from coordest import cli
from workloads import Inputs, Op, argv_for

plan = json.loads(Path(sys.argv[1]).read_text())
inp = Inputs(Path(plan["csv"]), Path(plan["scheme_file"]), plan["salt"])
outdir = Path(plan["outdir"])
codes = {}
for op in map(Op.from_dict, plan["ops"]):
    try:
        codes[op.tag] = [cli.main(argv_for(op, inp, outdir)), ""]
    except SystemExit as exc:
        codes[op.tag] = [exc.code, ""]
    except Exception as exc:
        codes[op.tag] = [1, f"{type(exc).__name__}: {exc}"]
(outdir / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\\n")
"""


def files(d: Path) -> set[str]:
    """The paths of the files under ``d``, relative to it."""
    return {p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()}


def differing(a: Path, b: Path) -> list[str]:
    """The paths, relative and sorted, of the files under ``a`` and ``b``
    whose bytes differ or that only one of them holds."""
    fa, fb = files(a), files(b)
    return sorted(n for n in fa | fb if n not in fa & fb or (a / n).read_bytes() != (b / n).read_bytes())


def extract(rev: str, dest: Path) -> None:
    """The ``src`` tree of ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def plan_ops(workload: str, ids: list[str]) -> list[Op]:
    """The operations each revision runs on ``workload``: one round, then
    the workload's ``EXTRA_OPS``."""
    return round_ops(workload, ids) + EXTRA_OPS.get(workload, [])


def run_round(tree: Path, workload: str, inp: Inputs, ids: list[str], outdir: Path) -> None:
    outdir.mkdir(parents=True)
    plan = outdir.parent / f"{outdir.name}.plan.json"
    plan.write_text(json.dumps({"csv": str(inp.csv), "scheme_file": str(inp.scheme_file), "salt": inp.salt,
                                "outdir": str(outdir), "ops": [op.to_dict() for op in plan_ops(workload, ids)]}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(BENCH)])}
    subprocess.run([sys.executable, "-c", RUNNER, str(plan)], env=env, check=True)


def compare(parent: str, seed: int, work: Path) -> int:
    for name, rev in (("parent", parent), ("child", "HEAD")):
        extract(rev, work / name)
    diffs = total = 0
    for workload in WORKLOADS:
        X = gen.workload_matrix(workload, seed)
        csv_path, scheme_file = gen.write_inputs(X, work / "inputs" / workload)
        # the salt coordbench/run.py derives from its seed
        inp = Inputs(csv_path, scheme_file, salt=seed % (1 << 32))
        ids = gen.item_ids(len(X))
        outs = [work / name / "out" / workload for name in ("parent", "child")]
        for name, out in zip(("parent", "child"), outs):
            run_round(work / name, workload, inp, ids, out)
        bad = differing(*outs)
        n = len(files(outs[0]) | files(outs[1]))
        total, diffs = total + n, diffs + len(bad)
        for path in bad:
            print(f"DIFFERS {workload}/{path}")
        print(f"{workload}: {n} output files, {len(bad)} differ")
    print(f"seed {seed}: {total} output files, {diffs} differ ({parent} vs HEAD)")
    return 1 if diffs else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--seed", type=int, default=401, help="input seed, as coordbench/run.py takes it")
    args = ap.parse_args()
    work = Path(tempfile.mkdtemp(prefix="same_outputs-"))
    status = compare(args.parent, args.seed, work)
    if status:
        print(f"outputs kept in {work} (parent/out and child/out)")
    else:
        shutil.rmtree(work)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
