#!/usr/bin/env python3
"""Print the time and the traced memory of one adaptive run, cold and warm.

Runs one sweep of the acceptance grid (``semicross.cli.acceptance_grids``,
seed 0, noise_dim 2^20) at delta = 2^-e twice in one process: cold, before
the process keeps anything, and warm, after the first run has left its kept
values (the noise norm, the closed forms' sums of squares and the level
windows of its data). For each run it prints the seconds, the peak of the
memory ``tracemalloc`` traces during the run, the bytes of the report's
solution (its support indices and values) and of its residual norms, and
the traced memory still allocated once the report is dropped (what the
process keeps, counted from the start of the cold run), with the part of it
allocated in each module of the package, by the line that made it
(``kept_kib_by_module``). The runs are timed with tracing on.

    PYTHONPATH=src python scripts/peak_memory.py --problem p2 --algorithm 1 --delta-exp 20
"""

import argparse
import dataclasses
import sys
import time
import tracemalloc
from pathlib import Path

import semicross
from semicross import get_problem, nu_method, run_balancing, run_discrepancy
from semicross.cli import acceptance_grids

MIB = 2.0 ** 20


def _kept_by_module() -> str:
    """``module:KiB`` of the traced memory the package's modules allocated
    and the process still holds, by module name."""
    package = Path(semicross.__file__).parent
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, str(package / "*"))])
    kept = sorted((Path(stat.traceback[0].filename).stem, stat.size)
                  for stat in snapshot.statistics("filename"))
    return ",".join(f"{name}:{size / 1024:.1f}" for name, size in kept)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--problem", choices=("p1", "p2"), default="p2")
    ap.add_argument("--algorithm", type=int, choices=(1, 2), default=1)
    ap.add_argument("--delta-exp", type=int, default=16,
                    help="run at delta = 2^-E")
    args = ap.parse_args()
    grid, = (g for g in acceptance_grids()
             if (g.algorithm, g.problem_id) == (args.algorithm, args.problem))
    runner = run_discrepancy if args.algorithm == 1 else run_balancing
    problem, spec = get_problem(args.problem), nu_method(grid.nu)
    p = dataclasses.replace(grid.params, delta=2.0 ** -args.delta_exp)
    tracemalloc.start()
    for label in ("cold", "warm"):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        report = runner(problem, spec, p)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] - before
        solution = report.solution.indices.nbytes + report.solution.values.nbytes
        residuals = report.residual_norms.nbytes
        levels, stop = report.levels, report.stop_index
        del report
        kept = tracemalloc.get_traced_memory()[0]
        print(f"{label} a{args.algorithm} {args.problem} e{args.delta_exp} "
              f"levels={list(levels)} stop={stop} seconds={seconds:.3f} "
              f"peak_mib={peak / MIB:.1f} solution_kib={solution / 1024:.1f} "
              f"residuals_kib={residuals / 1024:.1f} "
              f"kept_mib={kept / MIB:.2f} kept_kib_by_module={_kept_by_module()}")
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
