"""Whole-CLI fuzzing: argv lists built from ``cli.PARSER``'s own
subcommands and flags, run as ``python -m coordest``.

Each case mixes valid flag values with edge values (0, negative, huge,
empty, ``nan``, repeated ids) on the demo CSV and on small generated CSV
and scheme files, some of them malformed.  A case runs in a subprocess
under ``RLIMIT_AS`` and ``RLIMIT_CPU``, so a huge request fails fast and
only that process is limited.  It must end in one of two ways: exit 0
(or 1, when an ``analyze``/``characterize`` record fails its bound) with
strict JSON lines and nothing on stderr, or exit 2 with one
``coordest: error:`` line on stderr.  argparse's own usage errors are
argparse's business and pass as they are.

The tier-1 run takes ``FUZZ_EXAMPLES`` cases (about 0.3 s each); set the
environment variable ``COORDEST_FUZZ_EXAMPLES`` for a longer run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coordest
from coordest.cli import MAX_REPS, PARSER

DEMO_CSV = Path(__file__).resolve().parent.parent / "data" / "demo_two_instances.csv"
FUZZ_EXAMPLES = int(os.environ.get("COORDEST_FUZZ_EXAMPLES", "25"))
MEMORY_LIMIT = 1 << 30  # bytes of address space
CPU_LIMIT = 20  # seconds

# the values of a flag with no entry in VALUES
EDGE = ["", "0", "-1", "nan", "inf", "1e400", "x"]
# the cells and item ids of the generated CSVs
CELLS = ["0", "1", "2.5", "0.5", "1e-310", "5e-324", "1e308", "3", "-1", "nan", "x", ""]
IDS = ["1", "3", "a", "b", "c"]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def _flags(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]


def _id_lists() -> st.SearchStrategy[str]:
    ids = st.lists(st.sampled_from(IDS), min_size=1, max_size=4)
    return st.one_of(
        st.sampled_from(["all", "both-positive", "positive-in:1", "positive-in:2", "positive-in:0",
                         "positive-in:9", "positive-in:x", "", ",", " , ,"]),
        ids.map(",".join),
    )


# values of each flag by its dest; a flag with no entry takes EDGE, and one
# with choices takes them too
VALUES = {
    "scheme": st.sampled_from(["pps:tau=4", "pps:tau=1", "pps:tau=4,2", "pps:tau=0", "pps:tau=-1", "pps:tau=nan",
                               "pps:tau=1e300", "pps:tau=1e-300", "pps:tau=4,2,1", "exp:tau=1", "pps:", ""]),
    "salt": st.sampled_from(["0", "7", "-5", "-1", str(2**64 - 1), str(2**64), str(-(2**70))]),
    "query": st.sampled_from(["l1", "lpp:p=2", "lp:3", "lpp", "lp", "lp:p=0.5", "maxsum", "minsum", "jaccard",
                              "distinct", "sum", "median", "lpp:p=nan", "lpp:p=0", "lp:p=600", "l1:p=2"]),
    "p": st.sampled_from(["2", "0.5", "1e-300", "300", "0", "-1", "nan", "inf"]),
    "reps": st.sampled_from(["1", "2", "30", "0", "-1", str(MAX_REPS + 1), str(10**12)]),
    "k": st.sampled_from(["1", "2", "3", "0", "-1", str(10**9)]),
    "instance": st.sampled_from(["1", "2", "3", "0", "-1", str(10**9)]),
    "function": st.sampled_from(["max", "min", "or", "rg:p=2", "rg:p=0.5", "rg", "osrg:p=2,hi=2,lo=1",
                                 "one_sided_rg:p=1", "rg:p=600", "rg:p=nan", "rg:p=1e-300", "nosuch", "",
                                 "max:p=2", "rg:p=2,p=3"]),
    "items": _id_lists(),
}


@st.composite
def _csv(draw) -> str:
    """A small instance CSV: up to five rows of one to three columns, some
    cells edge values; now and then a row of the wrong length."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(0, 5))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=n, max_size=n))
    lines = ["item," + ",".join(f"v{i + 1}" for i in range(r))]
    for item in ids:
        width = draw(st.sampled_from([r] * 8 + [r - 1, r + 1]))
        lines.append(",".join([item, *draw(st.lists(st.sampled_from(CELLS), min_size=width, max_size=width))]))
    return "\n".join(lines) + "\n"


@st.composite
def _scheme_file(draw) -> str:
    lines = []
    for i in range(1, draw(st.integers(1, 4)) + 1):
        value = draw(st.sampled_from(["pps:4", "pps:1", "pwl:0:0,0.5:1,1:4", "pwl:0:0,1:4", "pps:0", "pwl:0:0,1",
                                      "pwl:1:1,0:0", "exp:2", "pps:nan"]))
        lines.append(f"tau.{draw(st.sampled_from([i] * 6 + [i + 1, 0]))} = {value}")
    return "\n".join(lines) + "\n"


@st.composite
def cases(draw):
    """An argv list of one subcommand, with placeholders ``{dir}`` for the
    case's directory, and the files it reads."""
    commands = _subcommands()
    command = draw(st.sampled_from(sorted(commands)))
    files = {"data.csv": draw(_csv()), "scheme.txt": draw(_scheme_file()), "old.jsonl": "old\n"}
    argv = [command]
    for action in _flags(commands[command]):
        if not action.required and not draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.dest == "input":
            value = draw(st.sampled_from([str(DEMO_CSV), "{dir}/data.csv", "{dir}/data.csv", "{dir}/missing.csv"]))
        elif action.dest == "scheme_file":
            value = draw(st.sampled_from(["{dir}/scheme.txt", "{dir}/missing.txt"]))
        elif action.dest == "out":
            value = draw(st.sampled_from(["{dir}/out.jsonl", "{dir}/old.jsonl", "{dir}/nodir/x"]))
        elif action.dest == "curves":
            value = draw(st.sampled_from(["{dir}/curves.csv", "{dir}/nodir/x"]))
        elif action.choices is not None:
            value = draw(st.sampled_from([*action.choices, "nosuch"]))
        else:
            value = draw(VALUES.get(action.dest, st.sampled_from(EDGE)))
        argv += [flag, value]
    return argv, files


def _limits() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT, CPU_LIMIT))


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    src = str(Path(coordest.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "coordest", *argv], capture_output=True, text=True, env=env,
                          preexec_fn=_limits, timeout=4 * CPU_LIMIT)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _assert_json_lines(text: str) -> None:
    for line in text.splitlines():
        rec = json.loads(line, parse_constant=_reject_constant)
        assert json.loads(json.dumps(rec, allow_nan=False)) == rec


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="resource limits of a child process")
@settings(max_examples=FUZZ_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_every_argv_ends_in_records_or_one_error_line(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [a.replace("{dir}", tmp) for a in argv]
        proc = _run(argv)
        if proc.stderr.startswith("usage: "):
            # argparse's own usage error
            assert proc.returncode == 2 and proc.stdout == "", proc.stderr
            return
        if proc.returncode == 2:
            assert proc.stderr.startswith("coordest: error: ") and proc.stderr.count("\n") == 1, proc.stderr
        else:
            records = proc.returncode == 0 or (proc.returncode == 1 and argv[0] in ("analyze", "characterize"))
            assert records and proc.stderr == "", (proc.returncode, proc.stderr)
        # the records written before an error are strict JSON too
        _assert_json_lines(proc.stdout)
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if out is not None and out.is_file() and out.read_text() != "old\n":
            _assert_json_lines(out.read_text())
