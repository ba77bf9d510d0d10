#!/usr/bin/env python3
"""Print one digest line per run of the acceptance grid, to check that a
change leaves every result bit-identical.

The grid is ``semicross.cli.acceptance_grids``: both drivers on both
problems over delta = 2^-4 .. 2^-13, where the run at delta = 2^-e uses
noise seed ``seed + e - 4`` (seed 0 gives the runs pinned in
tests/grid_pinned.json).
Each line holds the algorithm, problem, exponent, levels, budgets, stop
index and info_count, and two sha256 digests: ``res=`` over the hex of every
residual norm, and ``sol=`` over the hex of rel_error, abs_error, exact_norm
and rhs_norm and the bytes of the dense solution. A change that moves only
residual bits shows in ``res=`` alone.
``--noise-dim`` sets the dimension the noise and the error live in (default
2^20); a length that is not a power of two, such as 1000003, cuts the last
block of each sum of squares short, away from the level windows.

Compare a change with its parent checkout (about 10 s per side):

    diff <(cd <parent> && PYTHONPATH=src python scripts/grid_digest.py --seed 9001) \\
         <(PYTHONPATH=src python scripts/grid_digest.py --seed 9001)
"""

import argparse
import dataclasses
import hashlib
import math
import sys

from semicross import get_problem, nu_method, run_balancing, run_discrepancy
from semicross.cli import acceptance_grids


def _hexes(floats) -> bytes:
    return ",".join(x.hex() for x in floats).encode()


def digests(report) -> tuple:
    """(residual digest, solution digest) of one run."""
    res = hashlib.sha256(_hexes(report.residual_norms))
    sol = hashlib.sha256(_hexes((report.rel_error, report.abs_error,
                                 report.exact_norm, report.rhs_norm)))
    sol.update(report.solution.dense().tobytes())
    return res.hexdigest(), sol.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noise-dim", type=int, default=2 ** 20)
    args = ap.parse_args()
    for grid in acceptance_grids(args.seed, noise_dim=args.noise_dim):
        runner = run_discrepancy if grid.algorithm == 1 else run_balancing
        problem, spec = get_problem(grid.problem_id), nu_method(grid.nu)
        for i, delta in enumerate(grid.deltas):
            p = dataclasses.replace(grid.params, delta=delta, seed=grid.params.seed + i)
            r = runner(problem, spec, p)
            res, sol = digests(r)
            print(f"a{grid.algorithm} {grid.problem_id} e{round(-math.log2(delta))} "
                  f"levels={list(r.levels)} budgets={list(r.budgets)} "
                  f"stop={r.stop_index} info={r.info_count} res={res} sol={sol}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
