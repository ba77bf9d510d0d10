#!/usr/bin/env python3
"""Reproduce the four convergence-order experiments at desk scale.

Runs both adaptive drivers (discrepancy- and balancing-stopped) on both test
problems over the delta grid 2^-4 .. 2^-13, writes one CSV per sweep (each
row as it ends) and prints the fitted log-log slopes next to the a-priori
targets mu/(mu+1) and -1/(mu+1). Exits as ``semicross run`` does: 0 when
every row ran, 2 if a row hit a safety cap, 4 if another row failed, 1 on a
configuration error and 3 on an i/o error.
"""

import argparse
import math
import sys
from pathlib import Path

from semicross.cli import (EXIT_CAP, EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_ROW,
                           ExperimentGrid, emit_csv, iter_rows, rate_fit)
from semicross.driver import ConfigError, RunParams

TAU = 1.01 + math.sqrt(13.0 / 8.0)
DELTAS = tuple(2.0 ** -e for e in range(4, 14))
MU = {"p1": 1.2, "p2": 0.2}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", help="CSV output directory")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        params = RunParams(delta=DELTAS[0], rho=1.0, gamma=0.5, tau=TAU,
                           r=2.0, k_sec=20, seed=args.seed)
        grids = [ExperimentGrid(problem_id=pid, algorithm=algorithm, nu=1.5,
                                deltas=DELTAS, params=params, mu=MU[pid])
                 for algorithm in (1, 2) for pid in ("p1", "p2")]
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir, failed = Path(args.outdir), []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        print(f"{'sweep':16s} {'err slope':>10s} {'target':>8s} "
              f"{'K slope':>10s} {'target':>8s}")
        for grid in grids:
            algorithm, pid = grid.algorithm, grid.problem_id
            path = outdir / f"alg{algorithm}_{pid}.csv"
            with open(path, "w", newline="") as fh:
                rows = emit_csv(iter_rows(grid), fh)
            bad = [r for r in rows if r["error"] is not None]
            if bad:
                print(f"alg{algorithm}/{pid}: {len(bad)} failed rows "
                      f"({bad[0]['error']})", file=sys.stderr)
                failed += bad
                continue
            pairs_err = [(r["delta"], r["rel_error"]) for r in rows]
            pairs_k = [(r["delta"], float(r["K"])) for r in rows]
            mu = MU[pid]
            print(f"alg{algorithm}/{pid} -> {path.name:14s} "
                  f"{rate_fit(pairs_err):+10.3f} {mu / (mu + 1):+8.3f} "
                  f"{rate_fit(pairs_k):+10.3f} {-1 / (mu + 1):+8.3f}")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if any(r["error"].startswith("cap:") for r in failed):
        return EXIT_CAP
    return EXIT_ROW if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
