#!/usr/bin/env python3
"""Print one digest line per run of the acceptance grid, to check that a
change leaves every result bit-identical.

The grid is both drivers on both problems over delta = 2^-4 .. 2^-13 with
the acceptance-test parameters; the run at delta = 2^-e uses noise seed
``seed + e - 4`` (seed 0 gives the runs pinned in tests/grid_pinned.json).
Each line holds the algorithm, problem, exponent, levels, budgets, stop
index and info_count, and two sha256 digests: ``res=`` over the hex of every
residual norm, and ``sol=`` over the hex of rel_error, abs_error, exact_norm
and rhs_norm and the bytes of the dense solution. A change that moves only
residual bits shows in ``res=`` alone.
``--noise-dim`` sets the dimension the noise and the error live in (default
2^20); a length that is not a power of two, such as 1000003, exercises the
error's pairwise split points away from the level windows.

Compare a change with its parent checkout (about 10 s per side):

    diff <(PYTHONPATH=<parent>/src python scripts/grid_digest.py --seed 9001) \\
         <(PYTHONPATH=src python scripts/grid_digest.py --seed 9001)
"""

import argparse
import hashlib
import math
import sys

from semicross import RunParams, get_problem, nu_method, run_balancing, run_discrepancy

TAU = 1.01 + math.sqrt(13.0 / 8.0)
MU = {"p1": 1.2, "p2": 0.2}


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
    spec = nu_method(1.5)
    for algorithm, runner in ((1, run_discrepancy), (2, run_balancing)):
        for pid in ("p1", "p2"):
            problem = get_problem(pid)
            for e in range(4, 14):
                p = RunParams(delta=2.0 ** -e, rho=1.0, gamma=0.5, tau=TAU,
                              r=2.0, k_sec=20, seed=args.seed + e - 4,
                              noise_dim=args.noise_dim)
                r = runner(problem, spec, p, mu=MU[pid])
                res, sol = digests(r)
                print(f"a{algorithm} {pid} e{e} levels={list(r.levels)} "
                      f"budgets={list(r.budgets)} stop={r.stop_index} "
                      f"info={r.info_count} res={res} sol={sol}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
