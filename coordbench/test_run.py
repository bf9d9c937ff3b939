"""Tests of the benchmark's result arithmetic and of its span tracer.

    python3 -m pytest coordbench/test_run.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

SETUP = [{"setup_s": 0.8, "reference_s": run.REFERENCE_S}] * 3


def _summary(execs):
    """Workload summary of one round; every reference kernel at the
    reference time, so scaled and unscaled times agree."""
    return {"execs": execs, "refs": [run.REFERENCE_S] * (len(execs) + 1), "peak_rss_kb": 1024,
            "attempted": len(execs), "failed": [[0, e[1], 1] for e in execs if not e[4]]}


def _execs(single_ok=True):
    kinds = ["sample", "exact", "bottomk", "mc", "analyze", "characterize"]
    execs = [[k, k, 1.0, 100, True] for k in kinds]
    return execs + [["single", "j-l1", 2.0, 100, True], ["single", "ht-maxsum", 0.001, 100, single_ok]]


def test_failed_execution_adds_no_rate():
    """A fast failure does not raise the rate of its kind or ops_per_s."""
    ok = run.end_to_end(_summary(_execs()), SETUP)
    failed = run.end_to_end(_summary(_execs(single_ok=False)), SETUP)
    assert failed["estimate_items_per_s"]["value"] == pytest.approx(100 / 2.0)
    assert failed["estimate_items_per_s"]["value"] < ok["estimate_items_per_s"]["value"]
    assert failed["ops_per_s"]["value"] == pytest.approx(7 / 8.0)


def test_kind_with_only_failures_reports_no_rate():
    execs = [e for e in _execs(single_ok=False) if e[1] != "j-l1"]
    metrics = run.end_to_end(_summary(execs), SETUP)
    assert "estimate_items_per_s" not in metrics
    assert metrics["setup_s"]["value"] == pytest.approx(0.8)


def test_spans_nest_and_self_time_excludes_children():
    t = tracer.Tracer()

    def leaf(n):
        return sum(range(n))

    def outer():
        return t.call("leaf", leaf, (200_000,), {}) + t.call("leaf", leaf, (200_000,), {})

    t.call("outer", outer, (), {})
    outer_span, *leaves = t.spans
    assert [s[1] for s in t.spans] == ["outer", "leaf", "leaf"]
    assert [s[2] for s in leaves] == [0, 0]
    own = t.self_times()
    assert own[0] == pytest.approx((outer_span[4] - outer_span[3]) - sum(s[4] - s[3] for s in leaves))
    totals = t.totals()
    assert totals["leaf"][1] == 2 and totals["outer"][1] == 1


def test_recursion_counts_the_inner_calls_only():
    t = tracer.Tracer()

    def query(kind):
        if kind == "jaccard":
            return t.call("q", query, ("min",), {}, count) + t.call("q", query, ("max",), {}, count)
        return 1

    def count(args, kwargs, result):
        return 10

    t.call("q", query, ("jaccard",), {}, count)
    assert [s[5] for s in t.spans] == [0, 10, 10]


def test_installed_tracer_follows_the_cli_call_tree(tmp_path):
    """In a fresh interpreter, so that the wrappers stay out of the other
    tests: the wrapped CLI answers as before, and its spans nest as the
    program calls its functions."""
    code = f"""
import json, sys
from pathlib import Path
sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / "src")!r}]
import gen, tracer
from coordest import cli
csv_path, _ = gen.write_inputs(gen.make_matrix(50, 2, seed=3), Path({str(tmp_path)!r}))
argv = ["estimate", "--input", str(csv_path), "--query", "l1", "--estimator", "j", "--out"]
cli.main(argv + [{str(tmp_path / "plain.jsonl")!r}])
t = tracer.Tracer()
tracer.install(t)
t.call("op.single", cli.main, (argv + [{str(tmp_path / "traced.jsonl")!r}],), {{}})
parents = [t.spans[s[2]][1] if s[2] is not None else None for s in t.spans]
print(json.dumps({{"pairs": [[s[1], p] for s, p in zip(t.spans, parents)], "totals": t.totals()}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert (tmp_path / "plain.jsonl").read_text() == (tmp_path / "traced.jsonl").read_text()
    pairs = {tuple(p) for p in out["pairs"]}
    assert pairs >= {("cli.ingest", "op.single"), ("estimators.estimate_query", "op.single"),
                     ("estimators.j_estimate", "estimators.estimate_query"),
                     ("functions.lower_bound", "estimators.j_estimate")}
    counts = {name: c for name, (_, c) in out["totals"].items()}
    assert counts["cli.ingest"] == counts["estimators.estimate_query"] == 50
    assert counts["estimators.j_estimate"] == 50
