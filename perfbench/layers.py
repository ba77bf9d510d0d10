"""Per-layer timings of single calls into each semicross module.

Every timing is the median over repeated calls on inputs the workloads
actually produce: problem p2 at delta 2^-13 (the slowest row of the grid),
data at ``noise_dim = 2^20`` and operators at levels 4..9.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

import numpy as np

from semicross import coeffs, driver, hypercross, methods, problems, stopping
from tracing import patched

NOISE_DIM = 2 ** 20
DELTA = 2.0 ** -13
STEP_LEVELS = range(4, 10)
REFINE_LEVELS = range(5, 10)
WINDOW_LEVEL = 8
BYTES_F64 = 8
BYTES_I32 = 4


def _median_time(fn, reps: int, batch: int = 1) -> float:
    """Median seconds per call over ``reps`` timed batches of ``batch`` calls."""
    clock = time.perf_counter
    times = []
    for _ in range(reps):
        start = clock()
        for _ in range(batch):
            fn()
        times.append((clock() - start) / batch)
    return statistics.median(times)


def _reps(n: int, quick: bool) -> int:
    return 1 if quick else (3 if n >= 9 else 5)


def _step_bytes(op, state, rhs, spec) -> int:
    """Bytes one driver step moves, computed from array sizes: every array
    read or written by the ``CoeffVec`` arithmetic and the two operator
    products of the step, each product streaming the operator's nonzero
    entries (float64 value, int32 column index), its int32 row pointers,
    its input and its output. Cache effects are not modelled."""
    total = 0
    nnz = int(np.count_nonzero(op.vals))

    def arithmetic(fn):
        def counted(a, b):
            nonlocal total
            out = fn(a, b)
            total += a.coeffs.nbytes + out.coeffs.nbytes
            if isinstance(b, coeffs.CoeffVec):
                total += b.coeffs.nbytes
            return out
        return counted

    def product(fn):
        def counted(self, v):
            nonlocal total
            out = fn(self, v)
            total += (nnz * (BYTES_F64 + BYTES_I32) + (self.dim + 1) * BYTES_I32
                      + v.coeffs.nbytes + out.coeffs.nbytes)
            return out
        return counted

    cv, go = coeffs.CoeffVec, hypercross.GalerkinOperator
    swaps = [(cv, name, arithmetic(cv.__dict__[name]))
             for name in ("__add__", "__sub__", "__mul__", "__rmul__")]
    swaps += [(go, name, product(go.__dict__[name]))
              for name in ("apply", "apply_adjoint")]
    ax = op.apply(state.x_curr)
    with patched(swaps):
        nxt = methods.step(state, op, rhs, spec, ax_curr=ax)
        op.apply(nxt.x_curr)
    return total


def _level_window(problem, spec, params, src):
    """The level-8 balancing window the drivers build for p2 at delta 2^-13:
    K_n + k_sec iterates restricted to the operator's column support."""
    op = hypercross.assemble(src, WINDOW_LEVEL)
    fdelta = problems.perturb(problem.rhs(NOISE_DIM), params.delta, params.seed)
    rhs = driver._window(fdelta, op.dim)
    k_n = driver.max_iter_count(WINDOW_LEVEL, params)
    idx = op.column_support() - 1
    state = methods.init_state(op, rhs, spec)
    stored = []
    for _ in range(k_n + params.k_sec):
        state = methods.step(state, op, rhs, spec)
        stored.append(coeffs.CoeffVec._wrap(state.x_curr.coeffs[idx].copy()))
    return stopping.BalancingWindow(
        iterates=tuple(stored), k_n=k_n, k_sec=params.k_sec,
        bound_factor=8.0 * (1.0 + params.gamma) * spec.kappa0 * params.delta)


def measure(seed: int, quick: bool = False) -> dict:
    """Per-call timings keyed by the per-layer metric names."""
    out = {}
    spec = methods.nu_method(1.5)
    params = driver.RunParams(delta=DELTA, rho=1.0, gamma=0.5,
                              tau=1.01 + math.sqrt(13.0 / 8.0), r=2.0,
                              k_sec=20, seed=seed)
    p1, p2 = problems.get_problem("p1"), problems.get_problem("p2")
    prep_reps = 1 if quick else 5

    # problems: data preparation at noise_dim, alternating the two problems
    f = {prob.pid: prob.rhs(NOISE_DIM) for prob in (p1, p2)}
    calls = {
        "rhs": lambda prob: prob.rhs(NOISE_DIM),
        "exact": lambda prob: prob.exact(NOISE_DIM),
        "perturb": lambda prob: problems.perturb(f[prob.pid], DELTA, seed),
    }
    for name, call in calls.items():
        out[f"problems.{name}_s"] = statistics.median(
            _median_time(lambda: call(prob), 1)
            for _ in range(prep_reps) for prob in (p1, p2))

    # hypercross: assembly per level, refinement into each level
    src = p2.fresh_source(dim_hint=NOISE_DIM)
    ops = {}
    for n in STEP_LEVELS:
        out[f"hypercross.assemble_s.n{n}"] = _median_time(
            lambda: hypercross.assemble(src, n), _reps(n, quick))
        ops[n] = hypercross.assemble(src, n)
    for n in REFINE_LEVELS:
        out[f"hypercross.refine_s.n{n}"] = _median_time(
            lambda: hypercross.refine(ops[n - 1], src), _reps(n, quick))
    tracemalloc.start()
    try:
        hypercross.refine(ops[8], src)
        out["hypercross.refine_peak_mb.n9"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()

    # methods and driver: one step (with its operator product) and one
    # residual norm per level, on the p2 data the fine workload iterates on
    fdelta = problems.perturb(p2.rhs(NOISE_DIM), DELTA, seed)
    for n in STEP_LEVELS:
        op = ops[n]
        rhs = driver._window(fdelta, op.dim)
        state = methods.init_state(op, rhs, spec)
        for _ in range(5):
            state = methods.step(state, op, rhs, spec)
        out[f"methods.step_bytes.n{n}"] = _step_bytes(op, state, rhs, spec)
        box = [state, op.apply(state.x_curr)]

        def one_step():
            box[0] = methods.step(box[0], op, rhs, spec, ax_curr=box[1])
            box[1] = op.apply(box[0].x_curr)

        reps = 3 if quick else max(15, 2 ** (14 - n))
        out[f"methods.step_s.n{n}"] = _median_time(one_step, reps)
        out[f"driver.residual_s.n{n}"] = _median_time(
            lambda: driver._residual_norm(box[1], rhs), reps)
    del ops

    # stopping: the admissible set of a recorded level-8 window
    window = _level_window(p2, spec, params, src)
    out["stopping.admissible_s"] = _median_time(
        lambda: stopping.balancing_admissible_set(window), 1 if quick else 5)

    # driver: the a-priori diagnostics attached to every report
    out["driver.diagnostics_s"] = _median_time(
        lambda: driver._diagnostics(spec, params, 0.2, (6, 7, 8, 9)),
        3 if quick else 11, batch=100)
    return out
