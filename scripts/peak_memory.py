#!/usr/bin/env python3
"""Print the time and the traced memory of one adaptive run, cold and warm.

Runs one driver on one problem at delta = 2^-e with the acceptance-grid
parameters (nu-method 1.5, tau = 1.01 + sqrt(13/8), seed 0, noise_dim 2^20)
twice in one process: cold, before the process keeps anything, and warm,
after the first run has left its kept values (the noise norm, the closed
forms' norms and the right-hand side's head). For each run it prints the
seconds, the peak of the memory ``tracemalloc`` traces during the run, the
bytes of the report's solution, and the traced memory still allocated once
the report is dropped (what the process keeps, counted from the start of
the cold run). The runs are timed with tracing on.

    PYTHONPATH=src python scripts/peak_memory.py --problem p2 --algorithm 1 --delta-exp 20
"""

import argparse
import math
import sys
import time
import tracemalloc

from semicross import RunParams, get_problem, nu_method, run_balancing, run_discrepancy

TAU = 1.01 + math.sqrt(13.0 / 8.0)
MIB = 2.0 ** 20


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--problem", choices=("p1", "p2"), default="p2")
    ap.add_argument("--algorithm", type=int, choices=(1, 2), default=1)
    ap.add_argument("--delta-exp", type=int, default=16,
                    help="run at delta = 2^-E")
    args = ap.parse_args()
    runner = run_discrepancy if args.algorithm == 1 else run_balancing
    problem, spec = get_problem(args.problem), nu_method(1.5)
    p = RunParams(delta=2.0 ** -args.delta_exp, tau=TAU)
    tracemalloc.start()
    for label in ("cold", "warm"):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        report = runner(problem, spec, p)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] - before
        solution = report.solution.coeffs.nbytes
        levels, stop = report.levels, report.stop_index
        del report
        kept = tracemalloc.get_traced_memory()[0]
        print(f"{label} a{args.algorithm} {args.problem} e{args.delta_exp} "
              f"levels={list(levels)} stop={stop} seconds={seconds:.3f} "
              f"peak_mib={peak / MIB:.1f} solution_mib={solution / MIB:.1f} "
              f"kept_mib={kept / MIB:.2f}")
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
