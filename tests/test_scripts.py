"""Smoke tests of the example scripts: each runs in its own interpreter with
the package on its path, exits 0 and prints what its usage line promises."""

from __future__ import annotations

import importlib.util
import os
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


def test_same_outputs_lists_every_file_that_differs(tmp_path):
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
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
