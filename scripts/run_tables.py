#!/usr/bin/env python3
"""Reproduce the four convergence-order experiments at desk scale.

Runs both adaptive drivers (discrepancy- and balancing-stopped) on both test
problems over the delta grid 2^-4 .. 2^-13, writes one CSV per sweep and
prints the fitted log-log slopes next to the a-priori targets
mu/(mu+1) and -1/(mu+1).
"""

import argparse
import math
import sys
from pathlib import Path

from semicross.cli import ExperimentGrid, emit_csv, rate_fit, run_grid
from semicross.driver import RunParams

TAU = 1.01 + math.sqrt(13.0 / 8.0)
DELTAS = tuple(2.0 ** -e for e in range(4, 14))
MU = {"p1": 1.2, "p2": 0.2}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", help="CSV output directory")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'sweep':16s} {'err slope':>10s} {'target':>8s} "
          f"{'K slope':>10s} {'target':>8s}")
    for algorithm in (1, 2):
        for pid in ("p1", "p2"):
            grid = ExperimentGrid(
                problem_id=pid, algorithm=algorithm, nu=1.5, deltas=DELTAS,
                params=RunParams(delta=DELTAS[0], rho=1.0, gamma=0.5,
                                 tau=TAU, r=2.0, k_sec=20, seed=args.seed),
                mu=MU[pid],
            )
            rows = run_grid(grid, jobs=args.jobs)
            path = outdir / f"alg{algorithm}_{pid}.csv"
            emit_csv(rows, path)
            bad = [r for r in rows if r["error"] is not None]
            if bad:
                print(f"alg{algorithm}/{pid}: {len(bad)} failed rows "
                      f"({bad[0]['error']})", file=sys.stderr)
                continue
            pairs_err = [(r["delta"], r["rel_error"]) for r in rows]
            pairs_k = [(r["delta"], float(r["K"])) for r in rows]
            mu = MU[pid]
            print(f"alg{algorithm}/{pid} -> {path.name:14s} "
                  f"{rate_fit(pairs_err):+10.3f} {mu / (mu + 1):+8.3f} "
                  f"{rate_fit(pairs_k):+10.3f} {-1 / (mu + 1):+8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
