"""Smoke tests of the example scripts: each runs in its own interpreter with
the package on its path, exits 0 and prints what its usage line promises."""

from __future__ import annotations

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


def test_export_curves():
    lines = _run("export_curves.py")
    assert lines[0] == "u,lower_bound,hull,j_estimate,v_optimal"
    assert len(lines) > 512 and all(len(line.split(",")) == 5 for line in lines)


def test_competitiveness_sweep():
    lines = _run("competitiveness_sweep.py", "--n", "3")
    assert lines[0] == "15 triples; certified bound 84"
    assert lines[1].startswith("ratio: max ")


def test_demo_queries():
    lines = _run("demo_queries.py")
    assert lines[0].split() == ["query", "items", "exact", "mean(j)", "se", "z"]
    assert [line.split()[0] for line in lines[1:]] == ["lpp", "l1", "maxsum", "minsum", "distinct"]
