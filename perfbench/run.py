#!/usr/bin/env python3
"""Benchmark of semicross: the paper's convergence-order sweeps, end to end
and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout and driven in-process
through ``semicross.cli.run_grid`` with ``jobs=1``: a closed loop of one
client in one process, where each row starts when the previous one returned.
The workload seed becomes the per-row noise seeds (a row at delta 2^-e gets
seed + e - 4, as in the acceptance grid).

``--trace 0`` makes as many whole passes over the workload's rows as
``--seconds`` buys at the nominal pass times below (at least one), samples
the set-up time in fresh interpreters between sweeps, and reports row times
as medians over passes.
``--trace 1`` runs one untraced and one traced pass, reports per-layer self
times from the spans (and the difference of the two walls as the tracing
overhead), then times single calls into each module. Every row of every pass
goes through the output check in ``check.py``; the last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
from tracing import LAYERS, PREP_CALLS, Tracer, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MANIFEST = json.loads((BENCH_DIR / "manifest.json").read_text())

TAU = 1.01 + math.sqrt(13.0 / 8.0)
MU = {"p1": 1.2, "p2": 0.2}
#: sweep order: the two drivers alternate, so that each driver's rows are
#: spread over the pass
SWEEPS = ((1, "p1"), (2, "p1"), (1, "p2"), (2, "p2"))
#: workload -> (exponents e of delta = 2^-e, noise realizations per row)
WORKLOADS = {
    "grid": (range(4, 14), 1),
    "coarse-repeats": (range(4, 9), 4),
    "fine": (range(12, 14), 1),
}
#: layers whose summed self time the workload's reason says is the majority
MAJORITY = {"coarse-repeats": ("problems",), "fine": ("methods", "coeffs")}
#: seconds one untraced pass takes on a 2-vCPU x86-64 VM; ``--seconds``
#: buys ``seconds // NOMINAL_PASS_S`` passes (at least one)
NOMINAL_PASS_S = {"grid": 24.0, "coarse-repeats": 14.5, "fine": 15.0}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "row_p50_s": "s", "row_max_s": "s",
    "alg1_s": "s", "alg2_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
}
PER_LAYER = {
    "problems.rhs_s": "s", "problems.exact_s": "s", "problems.perturb_s": "s",
    "problems.calls": "count",
    **{f"hypercross.assemble_s.n{n}": "s" for n in range(4, 10)},
    **{f"hypercross.refine_s.n{n}": "s" for n in range(5, 10)},
    "hypercross.refine_peak_mb.n9": "MB",
    "hypercross.entries": "count", "hypercross.nnz": "count",
    **{f"methods.step_s.n{n}": "s" for n in range(4, 10)},
    "methods.steps": "count",
    **{f"methods.step_bytes.n{n}": "B-computed" for n in range(4, 10)},
    "coeffs.ops": "count",
    "stopping.admissible_s": "s", "stopping.window_iterates": "count",
    **{f"driver.residual_s.n{n}": "s" for n in range(4, 10)},
    "driver.diagnostics_s": "s", "driver.levels": "count",
    "driver.useful_step_frac": "frac",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import semicross
from semicross.cli import ExperimentGrid, run_grid
problems = [semicross.get_problem(pid) for pid in ("p1", "p2")]
spec = semicross.nu_method(1.5)
params = semicross.RunParams(delta=2.0 ** -4, rho=1.0, gamma=0.5,
                             tau=float(sys.argv[2]), r=2.0, k_sec=20, seed=0)
print(repr(time.perf_counter() - start))
"""


def load_package():
    """Import semicross from the checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("semicross")
    importlib.import_module("semicross.cli")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"semicross resolved to {origin}, outside {SRC}")
    return pkg


def workload_grids(pkg, workload: str, seed: int, rows: int | None):
    exponents, repeats = WORKLOADS[workload]
    exponents = list(exponents)[:rows]
    return [
        pkg.cli.ExperimentGrid(
            problem_id=pid, algorithm=algorithm, nu=1.5,
            deltas=tuple(2.0 ** -e for e in exponents),
            params=pkg.RunParams(delta=2.0 ** -exponents[0], rho=1.0,
                                 gamma=0.5, tau=TAU, r=2.0, k_sec=20,
                                 seed=seed + exponents[0] - 4),
            mu=MU[pid], repeats=repeats,
        )
        for algorithm, pid in SWEEPS
    ]


@dataclass
class RowRecord:
    payload: dict
    row: dict
    reports: list
    seconds: float


@dataclass
class Pass:
    wall: float
    rows: list


class Recorder:
    """Times each row ``run_grid`` runs and keeps the report of each of its
    noise realizations, by wrapping ``cli._run_row`` and the two drivers in
    the cli namespace (one extra Python call per row and realization)."""

    def __init__(self):
        self.rows: list = []
        self._reports: list = []

    def installed(self, cli):
        run_row = cli._run_row

        def timed_row(payload):
            self._reports = []
            start = time.perf_counter()
            row = run_row(payload)
            self.rows.append(RowRecord(payload, row, self._reports,
                                       time.perf_counter() - start))
            return row

        def keep(runner):
            def kept(*args, **kwargs):
                report = runner(*args, **kwargs)
                self._reports.append(report)
                return report
            return kept

        return patched([
            (cli, "_run_row", timed_row),
            (cli, "run_discrepancy", keep(cli.run_discrepancy)),
            (cli, "run_balancing", keep(cli.run_balancing)),
        ])


def run_pass(pkg, grids, tracer=None) -> Pass:
    recorder = Recorder()
    with recorder.installed(pkg.cli), (
            tracer.installed(pkg) if tracer else contextlib.nullcontext()):
        start = time.perf_counter()
        for grid in grids:
            pkg.cli.run_grid(grid, jobs=1)
        wall = time.perf_counter() - start
    return Pass(wall, recorder.rows)


def setup_seconds() -> float:
    """Import plus problem and method construction in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), repr(TAU)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def check_passes(passes, seed: int) -> tuple:
    reference = check.load_reference() if seed == MANIFEST["seeds"]["default"] else None
    attempted = failed = 0
    for p in passes:
        for rec in p.rows:
            attempted += 1
            problems = check.check_row(rec, reference)
            if problems:
                failed += 1
                print(f"check failed: {rec.payload['problem_id']} "
                      f"alg{rec.payload['algorithm']} delta={rec.payload['delta']:g} "
                      f"seed={rec.payload['seed']}: " + "; ".join(problems),
                      file=sys.stderr)
    return attempted, failed


def untraced_metrics(pkg, grids, workload: str, seed: int,
                     seconds: float) -> tuple:
    """End-to-end metrics from a whole number of passes over the workload.

    A set-up sample is taken after every sweep, and the samples of one row
    are a whole pass apart, so that repeated samples fall at different times
    of the run: on a shared machine the speed drifts over tens of seconds,
    and samples taken back to back drift together.
    """
    n_passes = max(1, int(seconds // NOMINAL_PASS_S[workload]))
    setup = [setup_seconds()]
    sweeps = []
    for _ in range(n_passes):
        for grid in grids:
            sweeps.append(run_pass(pkg, [grid]))
            setup.append(setup_seconds())
    attempted, failed = check_passes(sweeps, seed)

    samples = {}
    for rec in (rec for sweep in sweeps for rec in sweep.rows):
        key = (rec.payload["algorithm"], rec.payload["problem_id"],
               rec.payload["delta"])
        samples.setdefault(key, []).append(rec.seconds)
    row_s = {key: statistics.median(v) for key, v in samples.items()}
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(row_s.values()),
        "row_p50_s": statistics.median(row_s.values()),
        "row_max_s": max(row_s.values()),
        "alg1_s": sum(v for key, v in row_s.items() if key[0] == 1),
        "alg2_s": sum(v for key, v in row_s.items() if key[0] == 2),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - failed / attempted,
    }
    print(f"passes {n_passes}, rows {len(row_s)}, setup samples {len(setup)}; "
          "row times are medians over passes")
    return metrics, attempted, failed


def traced_metrics(pkg, grids, workload: str, seed: int, quick: bool,
                   why: str) -> tuple:
    import layers  # imports semicross, so only after load_package()

    untraced = run_pass(pkg, grids)
    tracer = Tracer()
    traced = run_pass(pkg, grids, tracer)
    attempted, failed = check_passes([untraced, traced], seed)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-s{seed}.csv"
    tracer.write_csv(spans_path)

    summary = tracer.summary()
    calls = summary["calls"]
    reports = [r for rec in traced.rows for r in rec.reports]
    metrics = layers.measure(seed, quick)
    metrics.update({f"{layer}.self_s": s for layer, s in summary["self_s"].items()})
    metrics.update({
        "problems.calls": sum(calls[c] for c in PREP_CALLS),
        "hypercross.entries": sum(r.info_count for r in reports),
        "hypercross.nnz": tracer.nnz,
        "methods.steps": calls["step"],
        "coeffs.ops": sum(c for name, c in calls.items() if name.startswith("__")),
        "stopping.window_iterates": tracer.window_iterates,
        "driver.levels": sum(len(r.levels) for r in reports),
        "driver.useful_step_frac": (sum(r.stop_index for r in reports)
                                    / sum(r.total_iterations for r in reports)),
        "trace.wall_s": traced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
    })

    print(f"spans {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
    print(f"untraced wall {untraced.wall:.4f} s, traced wall {traced.wall:.4f} s")
    print(f"layer self time, share of the traced wall ({workload}: {why})")
    shares = {layer: s / traced.wall for layer, s in summary["self_s"].items()}
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {summary['self_s'][layer]:10.4f} s {share:7.1%}")
    if workload in MAJORITY:
        names = MAJORITY[workload]
        total = sum(shares[n] for n in names)
        verdict = "holds" if total > 0.5 else "does NOT hold"
        print(f"  reason says {'+'.join(names)} is the majority: "
              f"{total:.1%}, {verdict}")
    print(f"{'call':36s} {'self s':>10s} {'incl s':>10s} {'calls':>8s}")
    for name, s in sorted(summary["by_name"].items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:34s} {s:10.4f} {summary['inclusive_s'][name]:10.4f} "
              f"{calls[name.split(':', 1)[1]]:8d}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=MANIFEST["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=None,
                    help="only the first ROWS deltas of each sweep, and single "
                         "repetitions of the per-layer timings (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    try:
        pkg = load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import semicross from {SRC}: {exc}",
              file=sys.stderr)
        return 2

    grids = workload_grids(pkg, args.workload, args.seed, args.rows)
    # warm-up: first-call imports and allocations, outside every measurement
    pkg.cli.run_grid(workload_grids(pkg, "grid", args.seed, 1)[1])

    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    if args.trace:
        metrics, attempted, failed = traced_metrics(
            pkg, grids, args.workload, args.seed, args.rows is not None, why)
        units = PER_LAYER
    else:
        metrics, attempted, failed = untraced_metrics(
            pkg, grids, args.workload, args.seed, args.seconds)
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.8g} {unit}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
