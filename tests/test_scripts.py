"""Smoke tests of the example scripts: each runs in its own interpreter with
the package on its path, exits 0 and prints what its usage line promises."""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_competitiveness_sweep():
    lines = _run("competitiveness_sweep.py", "--n", "3")
    assert lines[0] == "15 triples; certified bound 84"
    assert lines[1].startswith("ratio: max ")


def _same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    return same_outputs


def test_same_outputs_lists_every_file_that_differs(tmp_path, monkeypatch, capsys):
    same_outputs = _same_outputs()
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "round").mkdir(parents=True)
        (d / "same.jsonl").write_text('{"value": 1.0}\n')
        (d / "round" / "same.csv").write_bytes(b"item,u\r\n")
    (a / "round" / "bits.csv").write_bytes(b"a,0.1\r\n")
    (b / "round" / "bits.csv").write_bytes(b"a,0.10000000000000002\r\n")
    (a / "only_a.jsonl").write_text("")
    (b / "round" / "only_b.jsonl").write_text("")
    assert same_outputs.differing(a, a) == []
    assert same_outputs.differing(a, b) == ["only_a.jsonl", "round/bits.csv", "round/only_b.jsonl"]
    assert same_outputs.files(b) == {"same.jsonl", "round/same.csv", "round/bits.csv", "round/only_b.jsonl"}

    # a run in which a file differs keeps both output trees and prints where
    works = []

    def compare(parent, seed, work):
        works.append(work)
        for name, d in (("parent", a), ("child", b)):
            shutil.copytree(d, work / name / "out" / "analysis")
        return int(parent == "HEAD~1")

    monkeypatch.setattr(same_outputs, "compare", compare)
    monkeypatch.setattr(sys, "argv", ["same_outputs.py", "--parent", "HEAD~1"])
    assert same_outputs.main() == 1
    kept = Path(capsys.readouterr().out.split("outputs kept in ")[1].split(" (")[0])
    try:
        assert same_outputs.differing(kept / "parent" / "out" / "analysis", a) == []
        assert same_outputs.differing(kept / "child" / "out" / "analysis", b) == []
    finally:
        shutil.rmtree(kept)
    # a clean run leaves nothing behind
    monkeypatch.setattr(sys, "argv", ["same_outputs.py", "--parent", "HEAD"])
    assert same_outputs.main() == 0
    assert "kept" not in capsys.readouterr().out and not works[-1].exists()


def test_same_outputs_runs_the_arc_paths_the_round_leaves_out():
    same_outputs = _same_outputs()
    ids = [f"item{k}" for k in range(120)]
    ops = same_outputs.plan_ops("analysis", ids)
    tags = [op.tag for op in ops]
    assert len(set(tags)) == len(tags)
    extra = same_outputs.EXTRA_OPS["analysis"]
    assert ops == same_outputs.round_ops("analysis", ids) + extra
    by_tag = {op.tag: op for op in ops}
    for scheme in ("inline", "file"):
        op = by_tag[f"analyze-rg2-{scheme}"]
        assert (op.kind, op.function, op.scheme) == ("analyze", "rg:p=2", scheme)
    # numpy's general pow loop: characterize --curves, analyze and the oracle at p other than 2
    for f in ("rg:p=2.5", "one_sided_rg:p=3,hi=3,lo=1"):
        for kind in ("characterize", "analyze"):
            runs = [op for op in extra if op.kind == kind and op.function == f]
            assert sorted(op.scheme for op in runs) == ["file", "inline"], (kind, f)
    # the oracle at one salt and in the Monte Carlo sweep: arc hulls, and
    # corner hulls, one block (l1) or two (jaccard) per item block
    for query in ("lpp:p=2", "lpp:p=2.5", "l1", "jaccard"):
        oracle = [op for op in ops if op.estimator == "voptimal-oracle" and op.query == query]
        assert sorted(op.reps for op in oracle) == [1, 1000], query
    # the other workloads run their round alone
    assert same_outputs.plan_ops("single-salt", ids) == same_outputs.round_ops("single-salt", ids)
