"""The workload process: one fresh interpreter, one thread, one caller.

Runs whole rounds of a workload's operations back to back (a closed loop)
until the run length (wall time) has passed, then prints one JSON summary
line.  Each operation is ``coordest.cli.main(argv)``.  Traced, the public
functions of the package's layers are wrapped first (:mod:`tracer`), each
operation runs under a root span ``op.<kind>``, each ``sample`` output is
read back through ``samplers.read_samples`` as the round-trip check does,
and the spans go to the trace file.

Operations are timed in process CPU time.  They are single-threaded and
CPU-bound, so on an idle machine that equals their wall time; on a shared
virtual machine it leaves out the time the host runs other guests on this
CPU.  Before each operation (and after the last) the fixed
``workloads.reference_kernel`` is timed as well, outside the operation's time, so
that ``run.py`` can scale each operation's time by the speed the CPU had
around it.  Garbage left by the previous operation is collected, untimed,
before each operation, as a fresh ``coordest`` process would not carry it.

    PYTHONPATH=src python3 coordbench/workload.py PLAN.json
"""

import time

_t0 = time.process_time()
from coordest import cli  # noqa: E402  (timed as cli.import in traced runs)

_t1 = time.process_time()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import INLINE_SCHEME, Inputs, Op, argv_for, output_paths, reference_kernel  # noqa: E402


def run_op(op: Op, inp: Inputs, outdir: Path) -> int:
    """Exit code of one op; an exception or argparse exit is a failure."""
    try:
        return cli.main(argv_for(op, inp, outdir))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) and exc.code else 2
    except Exception:  # one op's fault must not end the run; it is counted
        traceback.print_exc(file=sys.stderr)
        return 1


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    ops = [Op.from_dict(d) for d in plan["ops"]]
    inp = Inputs(Path(plan["csv"]), Path(plan["scheme_file"]), plan["salt"])
    root = Path(plan["outdir"])
    tracer = None
    if plan["trace"]:
        import tracer as tracing
        from coordest import samplers

        tracer = tracing.Tracer()
        tracer.record("cli.import", _t0, _t1, count=1)
        tracing.install(tracer)
        scheme = cli.parse_scheme(INLINE_SCHEME, plan["instances"])

    execs: list[list] = []  # [kind, name, cpu seconds, units, ok] per op execution
    refs: list[float] = []  # reference kernel before each execution, and after the last
    failed: list[list] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        outdir = root / f"round{rounds}"
        outdir.mkdir(parents=True)
        for op in ops:
            gc.collect()
            refs.append(reference_kernel())
            t = time.process_time()
            if tracer is None:
                rc = run_op(op, inp, outdir)
            else:
                tracer.trace_id = f"round{rounds}.{op.tag}"
                rc = tracer.call(f"op.{op.kind}", run_op, (op, inp, outdir), {})
            execs.append([op.kind, op.name, time.process_time() - t, op.units, rc == 0])
            if rc != 0:
                failed.append([rounds, op.tag, rc])
            elif tracer is not None and op.kind == "sample":
                with output_paths(op, outdir)["out"].open() as fp:
                    samplers.read_samples(fp, scheme)  # the round-trip check's read, traced
        rounds += 1
        if time.perf_counter() - start >= plan["seconds"]:
            break
    loop_s = time.perf_counter() - start
    refs.append(reference_kernel())

    summary = {
        "rounds": rounds,
        "attempted": rounds * len(ops),
        "failed": failed,
        "loop_s": loop_s,
        "execs": execs,
        "refs": refs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        summary["layers"] = tracer.totals()
        Path(plan["trace_path"]).write_text(json.dumps({
            "workload": plan["workload"],
            "rounds": rounds,
            "loop_s": loop_s,
            "self_s_and_count": summary["layers"],
            "span_fields": tracer.FIELDS,
            "spans": tracer.spans,
        }))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
