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


def test_competitiveness_sweep():
    lines = _run("competitiveness_sweep.py", "--n", "3")
    assert lines[0] == "15 triples; certified bound 84"
    assert lines[1].startswith("ratio: max ")
