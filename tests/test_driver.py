import dataclasses
import itertools
import math

import numpy as np
import pytest

from semicross import driver, problems
from semicross.coeffs import CoeffVec, norm
from semicross.driver import (
    CapExceededError,
    ConfigError,
    RunParams,
    admissibility_threshold,
    initial_level,
    max_iter_count,
    run_balancing,
    run_discrepancy,
    theoretical_constants,
)
from semicross.hypercross import DiagonalSource, assemble, gamma_count, refine
from semicross.methods import NumericalDegeneracyError, init_state, nu_method, step
from semicross.problems import get_problem, perturb
from semicross.stopping import BalancingWindow, balancing_stop_index

from helpers import BandSource

TAU_REF = 1.01 + math.sqrt(13.0 / 8.0)
NU32 = nu_method(1.5)


def params(delta, **kw):
    base = dict(delta=delta, rho=1.0, gamma=0.5, tau=TAU_REF, r=2.0,
                k_sec=20, seed=0, noise_dim=2 ** 14)
    base.update(kw)
    return RunParams(**base)


# ---------------------------------------------------------------------------
# level and budget rules
# ---------------------------------------------------------------------------

def test_initial_level_example():
    assert initial_level(params(0.0625)) == 4


def test_initial_level_regression_pin_small_delta():
    assert initial_level(params(2.0 ** -13)) == 6


def test_initial_level_monotone_in_delta():
    prev = None
    for e in range(4, 14):
        n = initial_level(params(2.0 ** -e))
        if prev is not None:
            assert n >= prev  # doubling delta never increases the level
        prev = n


def test_initial_level_cap():
    with pytest.raises(CapExceededError) as err:
        initial_level(params(1e-12, n_max=3))
    assert err.value.kind == "level"


def test_budget_example():
    assert max_iter_count(6, params(0.0625)) == 1323


def test_budget_halves_with_delta():
    p1 = params(0.0625)
    p2 = params(0.03125)
    k1 = max_iter_count(6, p1)
    k2 = max_iter_count(6, p2)
    assert k2 in (k1 // 2 - 1, k1 // 2, k1 // 2 + 1)


def test_budget_zero_when_bound_at_most_one():
    assert max_iter_count(1, params(1e-9)) == 0


def test_budget_strict_inequality_at_integral_bound():
    # gamma = 66, delta = 1, n = 1, r = 2: bound = 66*16/(2*33) = 16 exactly
    p = RunParams(delta=1.0, rho=1.0, gamma=66.0, tau=50.0, r=2.0)
    assert max_iter_count(1, p) == 15


def test_initial_level_always_admits_an_iteration():
    for e in range(2, 20):
        p = params(2.0 ** -e, n_max=16)
        assert max_iter_count(initial_level(p), p) >= 1


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_admissibility_threshold_example():
    thr = admissibility_threshold(NU32, 0.5)
    assert thr == pytest.approx(1.0 + math.sqrt(6.5) * 0.5, rel=1e-15)
    assert thr == pytest.approx(2.2748, abs=5e-5)
    assert TAU_REF > thr


def test_constants_values():
    p = params(0.0625)
    cons = theoretical_constants(NU32, p, mu=1.2, n=6)
    k0, k2 = 1.0, 6.0
    c1 = k0 + 2.0 + (math.sqrt(k0 * (k0 / 2 + k2)) + 1.0 / 12.0) * 0.5
    assert cons["c1"] == pytest.approx(c1, rel=1e-12)
    assert cons["c2"] >= 1.0
    assert cons["c2"] == pytest.approx((6.0 / (TAU_REF - cons["tau_threshold"])) ** (1 / 2.2), rel=1e-9)
    expect_alg1 = (TAU_REF + c1) ** (1.2 / 2.2) + 2.0 * 1.5 * cons["c2"]
    assert cons["c_alg1"] == pytest.approx(expect_alg1, rel=1e-12)
    assert cons["c_alg2"] == pytest.approx(
        12.0 * 6.0 ** (1 / 2.2) * 3.0 ** (1.2 / 2.2), rel=1e-12)
    assert cons["k_opt"] == math.ceil((2 * 1.5 * 0.0625 / 6.0) ** (-1 / 2.2))
    assert cons["c5"] == pytest.approx(3.2 / (2.2 * 2.0 * math.log(2.0)), rel=1e-12)


def test_constants_c1_decreases_to_limit():
    p = params(0.01)
    vals = [theoretical_constants(NU32, p, 1.0, n)["c1"] for n in (1, 2, 5, 20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    limit = 1.0 + 2.0 + math.sqrt(6.5) * 0.5
    assert vals[-1] == pytest.approx(limit, abs=0.02)


def test_constants_validation():
    p = params(0.01)
    with pytest.raises(ValueError):
        theoretical_constants(NU32, p, mu=0.0, n=3)
    with pytest.raises(ValueError):
        theoretical_constants(NU32, p, mu=3.5, n=3)
    with pytest.raises(ConfigError):
        theoretical_constants(NU32, params(0.01, tau=2.0), mu=1.0, n=3)


def test_constants_outside_discrepancy_range():
    # mu above qualification-1: balancing constants only
    cons = theoretical_constants(NU32, params(0.01), mu=2.5, n=3)
    assert cons["c2"] is None and cons["c_alg1"] is None
    assert cons["c_alg2"] is not None and cons["k_opt"] >= 1


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def test_discrepancy_rejects_bad_tau():
    with pytest.raises(ConfigError):
        run_discrepancy(get_problem("p1"), NU32, params(0.01, tau=2.0))


def test_discrepancy_rejects_low_qualification():
    with pytest.raises(ConfigError):
        run_discrepancy(get_problem("p1"), nu_method(0.5), params(0.01, tau=9.0))


def test_immediate_stop_at_large_delta():
    p = params(0.5)
    report = run_discrepancy(get_problem("p1"), NU32, p)
    assert report.stop_index == 1
    assert report.final_level == initial_level(p)
    assert report.levels == (report.final_level,)


def test_warns_when_delta_not_below_data_norm():
    for runner in (run_discrepancy, run_balancing):
        with pytest.warns(UserWarning, match="noise level") as record:
            runner(get_problem("p1"), NU32, params(1.5))
        assert record[0].filename == __file__  # the driver's caller


def test_warns_on_unscaled_operator():
    for runner in (run_discrepancy, run_balancing):
        with pytest.warns(UserWarning, match="unscaled operator") as record:
            runner(get_problem("p1", scaled=False), NU32, params(2.0 ** -5))
        assert record[0].filename == __file__


def test_discrepancy_run_report_consistency():
    p = params(2.0 ** -6)
    report = run_discrepancy(get_problem("p1"), NU32, p, mu=1.2)
    assert report.algorithm == 1
    # visited levels increase strictly by one
    assert list(report.levels) == list(
        range(report.levels[0], report.final_level + 1))
    assert report.stop_index <= report.budgets[-1]
    assert report.info_count == gamma_count(report.final_level)
    assert report.residual_norms[-1] <= p.tau * p.delta
    assert all(r > p.tau * p.delta for r in report.residual_norms[:-1])
    assert report.solution.dim == 1 << (2 * report.final_level)
    assert 0 < report.rel_error < 1
    d = report.diagnostics
    assert d["mu"] == 1.2
    assert report.abs_error <= d["error_bound_alg1"]
    assert report.stop_index < d["k_bound"]


def test_balancing_run_report_consistency():
    p = params(2.0 ** -6)
    report = run_balancing(get_problem("p1"), NU32, p, mu=1.2)
    assert report.algorithm == 2
    assert report.stop_index <= report.budgets[-1]
    assert report.info_count == gamma_count(report.final_level)
    assert report.abs_error <= report.diagnostics["error_bound_alg2"]
    assert report.k_sec == 20


def test_balancing_accepts_low_qualification_methods():
    report = run_balancing(get_problem("p1"), nu_method(0.5), params(2.0 ** -5))
    assert report.stop_index >= 1


def test_alternative_method_runs_through_both_drivers():
    # qualification exactly 2: admissible for the discrepancy driver, and
    # mu = 0.2 <= qualification - 1 keeps every constant defined
    spec = nu_method(1.0)
    tau = admissibility_threshold(spec, 0.5) + 0.01
    p = params(2.0 ** -6, tau=tau)
    rep1 = run_discrepancy(get_problem("p2"), spec, p, mu=0.2)
    rep2 = run_balancing(get_problem("p2"), spec, p, mu=0.2)
    for rep in (rep1, rep2):
        assert rep.stop_index >= 1
        assert rep.rel_error < 1.0
        assert rep.abs_error <= rep.diagnostics[f"error_bound_alg{rep.algorithm}"]


def test_zero_operator_balancing_stops_immediately():
    class ZeroProblem:
        def rhs(self, dim):
            return CoeffVec(np.ones(dim))

        def exact(self, dim):
            return CoeffVec.zeros(dim)

        def fresh_source(self, dim_hint=1):
            return DiagonalSource(lambda kk: np.zeros(kk.size))

    report = run_balancing(ZeroProblem(), NU32, params(0.25, noise_dim=64))
    # all iterates are zero, so every index is admissible and K = min = 1
    assert report.stop_index == 1
    assert np.all(report.solution.coeffs == 0.0)


def test_runs_are_deterministic():
    p = params(2.0 ** -7)
    a = run_discrepancy(get_problem("p1"), NU32, p, mu=1.2)
    b = run_discrepancy(get_problem("p1"), NU32, p, mu=1.2)
    assert a.levels == b.levels
    assert a.stop_index == b.stop_index
    assert a.residual_norms == b.residual_norms
    assert a.rel_error == b.rel_error
    assert np.array_equal(a.solution.coeffs, b.solution.coeffs)
    c = run_balancing(get_problem("p2"), NU32, p, mu=0.2)
    d = run_balancing(get_problem("p2"), NU32, p, mu=0.2)
    assert c.stop_index == d.stop_index
    assert np.array_equal(c.solution.coeffs, d.solution.coeffs)


def test_seed_changes_noise_but_not_structure():
    p1 = params(2.0 ** -6, seed=1)
    p2 = params(2.0 ** -6, seed=2)
    a = run_discrepancy(get_problem("p1"), NU32, p1)
    b = run_discrepancy(get_problem("p1"), NU32, p2)
    assert not np.array_equal(a.solution.coeffs, b.solution.coeffs)


def _assert_same_report(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, CoeffVec):
            x, y = x.coeffs.tobytes(), y.coeffs.tobytes()
        assert x == y, field.name


def test_closed_forms_are_computed_once_per_problem(monkeypatch):
    # the rhs and the exact solution at noise_dim are kept between runs of
    # one problem, and reusing them changes no report
    real, calls = problems.Problem._coeffs, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    runs = [(2.0 ** -5, 1), (2.0 ** -7, 2)]
    driver._closed_form.cache_clear()
    monkeypatch.setattr(problems.Problem, "_coeffs", counting)
    reused = [run_discrepancy(get_problem("p1"), NU32, params(d, seed=s))
              for d, s in runs]
    assert len(calls) == 2
    for (d, s), report in zip(runs, reused):
        driver._closed_form.cache_clear()
        fresh = run_discrepancy(get_problem("p1"), NU32, params(d, seed=s))
        _assert_same_report(report, fresh)
    assert len(calls) == 6


def test_each_seed_is_drawn_in_full_once_per_process(monkeypatch):
    # the four sweeps share their row seeds; only the first run of a seed
    # draws the full noise vector, later ones read its kept norm and draw
    # just the level windows, and no report changes
    real, draws = np.random.default_rng, []

    class CountingRng:
        def __init__(self, seed):
            self.seed, self.rng = seed, real(seed)

        def standard_normal(self, size):
            draws.append((self.seed, size))
            return self.rng.standard_normal(size)

    runs = [(runner, pid, e) for runner in (run_discrepancy, run_balancing)
            for pid in ("p1", "p2") for e in (4, 5, 6)]

    def run(runner, pid, e):
        return runner(get_problem(pid), NU32, params(2.0 ** -e, seed=e - 4))

    problems._noise_norms.clear()
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    reports = [run(*r) for r in runs]
    assert sorted(seed for seed, size in draws if size == 2 ** 14) == [0, 1, 2]
    monkeypatch.undo()
    for r, report in zip(runs, reports):
        problems._noise_norms.clear()
        _assert_same_report(report, run(*r))


def test_abs_error_is_the_norm_of_the_difference():
    for runner, pid, e in ((run_discrepancy, "p1", 5),
                           (run_balancing, "p2", 7),
                           (run_discrepancy, "p2", 9)):
        problem = get_problem(pid)
        r = runner(problem, NU32, params(2.0 ** -e, seed=e))
        exact = problem.exact(max(r.solution.dim, 2 ** 14))
        assert r.abs_error == norm(r.solution - exact)
        assert r.rel_error == r.abs_error / norm(exact)


def test_iteration_cap():
    with pytest.raises(CapExceededError) as err:
        run_discrepancy(get_problem("p2"), NU32, params(2.0 ** -8, k_abs_max=5))
    assert err.value.kind == "iterations"


def test_level_cap():
    with pytest.raises(CapExceededError) as err:
        run_discrepancy(get_problem("p2"), NU32, params(2.0 ** -8, n_max=5))
    assert err.value.kind == "level"


def test_tiny_delta_hits_the_level_cap_instead_of_memory():
    # starts at level 11 (50M cross pairs); with the zero-retaining pair
    # table the process was killed for lack of memory before any cap
    with pytest.raises(CapExceededError) as err:
        run_discrepancy(get_problem("p1"), nu_method(1.0),
                        RunParams(delta=2.0 ** -30, tau=5))
    assert err.value.kind == "level"


class BandProblem:
    """Duck-typed problem on the off-diagonal ``BandSource``: smooth data on
    the even (row-support) components, tiny data on the odd ones."""

    r = 2.0

    def rhs(self, dim):
        k = np.arange(1, dim + 1, dtype=float)
        return CoeffVec(np.where(k % 2 == 0, 1.0, 1e-6) / k ** 2)

    def exact(self, dim):
        return CoeffVec(1.0 / np.arange(1, dim + 1, dtype=float) ** 2)

    def fresh_source(self, dim_hint=1):
        return BandSource()


def _full_length_run(problem, spec, p, algorithm):
    """Reference level loop on full-length vectors through the public
    ``init_state``/``step``: returns (level, stop index, solution,
    residual norms)."""
    fdelta = perturb(problem.rhs(p.noise_dim), p.delta, p.seed)
    src = problem.fresh_source()
    n = initial_level(p)
    op = assemble(src, n)
    residuals = []
    while True:
        k_n = max_iter_count(n, p)
        if k_n >= 1:
            rhs = CoeffVec(fdelta.extended(max(op.dim, fdelta.dim))[: op.dim])
            state = init_state(op, rhs, spec)
            iterates = []
            for k in range(1, k_n + (p.k_sec if algorithm == 2 else 0) + 1):
                state = step(state, op, rhs, spec)
                iterates.append(state.x_curr)
                residuals.append(driver._residual_norm(op.apply(state.x_curr), rhs))
                if algorithm == 1 and residuals[-1] <= p.tau * p.delta:
                    return n, k, state.x_curr, residuals
            if algorithm == 2:
                window = BalancingWindow(tuple(iterates), k_n, p.k_sec,
                                         8.0 * (1.0 + p.gamma) * spec.kappa0 * p.delta)
                stop = balancing_stop_index(window)
                if stop is not None:
                    return n, stop, iterates[stop - 1], residuals
        assert n < p.n_max
        op = refine(op, src)
        n += 1


def test_balancing_window_restriction_matches_full_storage():
    # the support-restricted window must yield the same stopping index as
    # full-dimension storage
    p = params(2.0 ** -5)
    problem = get_problem("p1")
    report = run_balancing(problem, NU32, p)
    n, stop, _, _ = _full_length_run(problem, NU32, p, 2)
    assert (n, stop) == (report.final_level, report.stop_index)


# ---------------------------------------------------------------------------
# support kernel and shared level loop
# ---------------------------------------------------------------------------

def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / scale) if scale > 0 else float(np.linalg.norm(a))


@pytest.mark.parametrize("n", [3, 4])
def test_support_kernel_matches_full_length_iteration(n):
    op = assemble(BandSource(), n)
    rows, cols, _, _ = op.support_block()
    # R != C, and neither is a leading block
    assert not np.array_equal(rows, cols)
    assert rows[0] > 0 and cols[0] > 0
    data = CoeffVec(np.random.default_rng(n).standard_normal(op.dim))
    kernel = driver._SupportKernel(op, data.coeffs)
    state = init_state(op, data, NU32)
    for x, res in itertools.islice(kernel.iterates(NU32), 60):
        state = step(state, op, data, NU32)
        ref = driver._residual_norm(op.apply(state.x_curr), data)
        assert _relative_gap(kernel.scatter(x).coeffs, state.x_curr.coeffs) <= 1e-12
        assert res == pytest.approx(ref, rel=1e-12)


def test_support_kernel_residual_when_off_support_data_is_tiny():
    # data almost entirely on the row support R: ||f_R||^2 - ... would
    # cancel, the off-support energy summed directly does not
    op = assemble(BandSource(), 4)
    rows, cols, _, _ = op.support_block()
    rng = np.random.default_rng(7)
    x_true = np.zeros(op.dim)
    x_true[cols] = rng.standard_normal(cols.size)
    f = op.apply(CoeffVec(x_true)).coeffs.copy()
    off = np.ones(op.dim, dtype=bool)
    off[rows] = False
    f[off] = 1e-6 * norm(CoeffVec(f)) * rng.standard_normal(off.sum()) / np.sqrt(off.sum())
    data = CoeffVec(f)
    kernel = driver._SupportKernel(op, data.coeffs)
    assert kernel.off2 <= 1e-11 * float(f @ f)
    state = init_state(op, data, NU32)
    last = None
    for x, res in itertools.islice(kernel.iterates(NU32), 300):
        state = step(state, op, data, NU32)
        last = (res, driver._residual_norm(op.apply(state.x_curr), data))
        assert res == pytest.approx(last[1], rel=1e-12)
    # the last residuals are dominated by the off-support data
    assert last[0] < 10.0 * np.sqrt(kernel.off2)


@pytest.mark.parametrize("algorithm", [1, 2])
def test_shared_loop_matches_full_length_reference_off_diagonal(algorithm):
    p = params(2.0 ** -10, noise_dim=2 ** 10)
    runner = run_discrepancy if algorithm == 1 else run_balancing
    report = runner(BandProblem(), NU32, p)
    n, stop, solution, residuals = _full_length_run(BandProblem(), NU32, p, algorithm)
    assert len(report.levels) > 1  # refinement happened
    assert (report.final_level, report.stop_index) == (n, stop)
    assert len(report.residual_norms) == len(residuals)
    assert np.allclose(report.residual_norms, residuals, rtol=1e-12, atol=0.0)
    assert _relative_gap(report.solution.coeffs, solution.coeffs) <= 1e-12


def test_nonfinite_residual_raises():
    class BlowUpProblem:
        """Diagonal 10 puts A*A outside [0, 1]: the iteration diverges."""

        def rhs(self, dim):
            return CoeffVec(np.full(dim, 1.0 / np.sqrt(dim)))

        def exact(self, dim):
            return CoeffVec(np.ones(dim))

        def fresh_source(self, dim_hint=1):
            return DiagonalSource(lambda kk: np.full(kk.size, 10.0))

    with np.errstate(over="ignore", invalid="ignore"):
        for runner in (run_discrepancy, run_balancing):
            with pytest.raises(NumericalDegeneracyError, match="non-finite"):
                runner(BlowUpProblem(), NU32, params(2.0 ** -6, noise_dim=2 ** 10,
                                                     n_max=6))


def test_diagnostics_outside_qualification_do_not_abort_the_run():
    # mu = 1.2 exceeds the qualification 0.5 of the nu = 1/4 method
    report = run_balancing(get_problem("p1"), nu_method(0.25), params(2.0 ** -5),
                           mu=1.2)
    assert np.isfinite(report.rel_error)
    assert report.diagnostics["mu"] == 1.2
    assert "mu must lie" in report.diagnostics["unavailable"]
