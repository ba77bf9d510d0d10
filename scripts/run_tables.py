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
import sys
from pathlib import Path

from semicross.cli import (EXIT_CONFIG, EXIT_IO, acceptance_grids, emit_csv, exit_code,
                           iter_rows, rate_fit)
from semicross.driver import ConfigError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", help="CSV output directory")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        grids = acceptance_grids(args.seed)
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
            mu = grid.mu
            print(f"alg{algorithm}/{pid} -> {path.name:14s} "
                  f"{rate_fit(pairs_err):+10.3f} {mu / (mu + 1):+8.3f} "
                  f"{rate_fit(pairs_k):+10.3f} {-1 / (mu + 1):+8.3f}")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return exit_code(failed)


if __name__ == "__main__":
    sys.exit(main())
