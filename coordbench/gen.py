"""Seeded input generator: the instance CSV and the pwl+pps scheme file.

Values are correlated lognormal across instances (a shared per-item factor
plus independent noise), and about a quarter of the entries are exactly
zero so that never-sampled paths run.  The same seed and workload always
give byte-identical files.

    python3 coordbench/gen.py --workload single-salt --seed 1 --dir /tmp/in
"""

from __future__ import annotations

import argparse
import math
import zlib
from pathlib import Path

import numpy as np

from workloads import SIZES, WORKLOADS

RHO = 0.8  # weight of the shared factor; log-values correlate by RHO**2
SIGMA = 1.0  # spread of the log-values
ZERO_SHARE = 0.25

# Every map starts at 0, so every value is sampled at small enough seeds;
# two pwl maps and one pps map exercise the pwl-pwl and pwl-pps crossings.
SCHEME_FILE_TEXT = """\
# threshold maps for the analysis workload (instances 1..3)
tau.1 = pps:4
tau.2 = pwl:0:0,0.25:1,0.6:2.5,1:5
tau.3 = pwl:0:0,0.5:3,1:4
"""


def item_ids(n: int) -> list[str]:
    return [f"item{j}" for j in range(n)]


def make_matrix(n: int, r: int, seed: int, stream: int = 0) -> np.ndarray:
    """``(n, r)`` matrix of the make-up described above."""
    rng = np.random.default_rng([seed, stream])
    shared = rng.standard_normal((n, 1))
    z = RHO * shared + math.sqrt(1.0 - RHO * RHO) * rng.standard_normal((n, r))
    v = np.exp(SIGMA * z)
    v[rng.random((n, r)) < ZERO_SHARE] = 0.0
    return v


def workload_matrix(workload: str, seed: int) -> np.ndarray:
    """The workload's matrix; each workload draws from its own stream."""
    return make_matrix(*SIZES[workload], seed, stream=zlib.crc32(workload.encode()))


def write_inputs(v: np.ndarray, outdir: Path) -> tuple[Path, Path]:
    """Write the matrix as ``data.csv`` (ids ``item0``, ``item1``, ...), and
    ``scheme.txt``, into ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    ids = item_ids(v.shape[0])
    lines = ["item," + ",".join(f"v{i + 1}" for i in range(v.shape[1]))]
    lines += [f"{item}," + ",".join(repr(float(x)) for x in row) for item, row in zip(ids, v)]
    csv_path = outdir / "data.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    scheme_path = outdir / "scheme.txt"
    scheme_path.write_text(SCHEME_FILE_TEXT)
    return csv_path, scheme_path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args()
    for path in write_inputs(workload_matrix(args.workload, args.seed), args.dir):
        print(path)


if __name__ == "__main__":
    main()
