"""Sweep the squared-mass ratio of the dyadic estimator over random data.

For each (vector, function, scheme) triple the ratio compares the dyadic
estimator's squared-estimate integral against the hull optimum for that
vector; the certified bound is 84.  Writes one CSV row per triple and prints
summary statistics.

Usage: python scripts/competitiveness_sweep.py [--n 200] [--out sweep.csv]
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from coordest.analysis import RATIO_BOUND, competitiveness_ratio
from coordest.functions import max_fn, min_fn, one_sided_rg_fn, rg_fn
from coordest.model import TauScheme


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=200, help="vectors per function")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    functions = [
        one_sided_rg_fn(2, 0, 1, 2),
        rg_fn(2, 2),
        rg_fn(1, 2),
        max_fn(2),
        min_fn(2),
    ]
    rows = []
    for f in functions:
        for _ in range(args.n):
            v = tuple(np.where(rng.random(2) < 0.25, 0.0, rng.uniform(0, 2.5, 2)))
            taus = [float(t) for t in rng.uniform(0.5, 4.0, 2)]
            scheme = TauScheme.pps(taus)
            rep = competitiveness_ratio(v, f, scheme)
            rows.append(
                {
                    "function": f.describe(),
                    "v1": v[0],
                    "v2": v[1],
                    "tau1": taus[0],
                    "tau2": taus[1],
                    "ratio": rep["ratio"],
                    "sq_j": rep["square_integral_j"],
                    "sq_opt": rep["square_integral_opt"],
                }
            )

    if args.out:
        with open(args.out, "w", newline="") as fp:
            writer = csv.DictWriter(fp, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    ratios = np.array([r["ratio"] for r in rows])
    print(f"{len(rows)} triples; certified bound {RATIO_BOUND:g}")
    print(f"ratio: max {ratios.max():.3f}  p99 {np.percentile(ratios, 99):.3f}  "
          f"median {np.median(ratios):.3f}  min {ratios.min():.3f}")
    if (ratios > RATIO_BOUND).any():
        print("BOUND VIOLATED", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
