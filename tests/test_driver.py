import copy
import dataclasses
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semicross import driver, problems
from semicross.cli import acceptance_grids
from semicross.coeffs import CoeffVec
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
from semicross.hypercross import DiagonalSource, _product, assemble, gamma_count, refine
from semicross.methods import (NumericalDegeneracyError, _advance, init_state, nu_method,
                               step)
from semicross.problems import get_problem, green_operator, perturb
from semicross.stopping import BalancingWindow, balancing_stop_index

from helpers import (EDGE_RUNS, BandSource, BlockSource, HeldData, SwapSource,
                     block_sumsq, entry_positions, norm)

TAU_REF = 1.01 + math.sqrt(13.0 / 8.0)
NU32 = nu_method(1.5)
#: the entries of every ``_diagnostics`` dict
DIAGNOSTIC_KEYS = {"c1", "c_alg2", "k_opt", "tau_threshold", "c2", "c_alg1", "c3", "c4",
                   "c5", "mu", "error_bound_alg2", "error_bound_alg1", "k_bound",
                   "n_bound", "info_bound"}


def params(delta, **kw):
    base = dict(delta=delta, rho=1.0, gamma=0.5, tau=TAU_REF, r=2.0,
                k_sec=20, seed=0, noise_dim=2 ** 14)
    base.update(kw)
    return RunParams(**base)


# ---------------------------------------------------------------------------
# level and budget rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["delta", "rho", "gamma", "tau", "r"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_params_require_finite_reals(field, value):
    with pytest.raises(ConfigError, match="finite"):
        RunParams(**{"delta": 0.1, field: value})


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("k_sec", 2.5), ("n_max", 6.5), ("k_abs_max", 100.5),
    ("noise_dim", 1000.5), ("seed", None),
])
def test_run_params_require_integer_fields(field, value):
    # refused when made: in a run such a value raises a bare TypeError, or
    # (k_abs_max) passes unchecked
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        params(0.1, **{field: value})


def test_run_params_take_numpy_integers():
    p = params(2.0 ** -5, seed=np.int64(3), k_sec=np.int32(20), n_max=np.int64(12),
               k_abs_max=np.uint16(1000), noise_dim=np.int64(2 ** 14))
    a, b = (run_balancing(get_problem("p1"), NU32, q)
            for q in (p, params(2.0 ** -5, seed=3, k_abs_max=1000)))
    assert a.residual_norms.tobytes() == b.residual_norms.tobytes()
    assert a.rel_error == b.rel_error
    assert np.array_equal(a.solution.dense(), b.solution.dense())


def test_run_params_reject_a_negative_seed_and_a_level_rule_past_the_floats():
    with pytest.raises(ConfigError, match="seed"):
        params(0.1, seed=-1)
    # 2^(2 r n) at n = n_max = 12 overflows a float for r = 43
    with pytest.raises(ConfigError, match="n_max"):
        params(0.1, r=43.0)
    assert max_iter_count(12, params(0.1, r=42.0)) > 0


def test_run_params_reject_a_budget_bound_past_the_floats():
    # gamma delta 2^(2 r n) / (2 rho (1 + 2^(r+3)) n) overflows (rho tiny)
    # or is inf / inf (delta and rho huge): a configuration error, not the
    # bare OverflowError or ValueError of int(floor(bound)) in a run
    with pytest.raises(ConfigError, match="budget bound"):
        params(2.0 ** -4, rho=1e-320)
    with pytest.raises(ConfigError, match="budget bound"):
        params(1e300, rho=1e300, gamma=1e6, r=40.0, n_max=8)
    # small r: the bound falls with n, so it overflows at n = 1 first
    with pytest.raises(ConfigError, match="budget bound"):
        params(1.0, rho=1e-310, r=1e-3, n_max=8)
    assert max_iter_count(8, params(1.0, rho=1e-308, r=1e-3, n_max=8)) > 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run=EDGE_RUNS)
def test_edge_parameters_end_in_a_report_or_a_typed_error(run):
    # a finite relative error, or one of the three typed errors
    runner = run_discrepancy if run.pop("algorithm") == 1 else run_balancing
    problem = get_problem(run.pop("pid"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = runner(problem, NU32, RunParams(**run))
    except (ConfigError, CapExceededError, NumericalDegeneracyError):
        return
    assert math.isfinite(report.rel_error)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(delta=st.floats(1e-12, 1.0), gamma=st.floats(0.01, 10.0),
       rho=st.floats(0.01, 10.0), r=st.floats(0.5, 4.0),
       n_max=st.integers(1, 20))
def test_initial_level_is_the_first_level_of_the_docstring_inequality(
        delta, gamma, rho, r, n_max):
    # (1 + 2^{r+3}) 2^{-2rn} n < gamma delta / (2 rho), written out here
    # apart from the budget rule that initial_level reads
    p = params(delta, gamma=gamma, rho=rho, r=r, n_max=n_max)
    target = gamma * delta / (2.0 * rho)
    first = next((n for n in range(1, n_max + 1)
                  if (1.0 + 2.0 ** (r + 3.0)) * 2.0 ** (-2.0 * r * n) * n < target),
                 None)
    if first is None:
        with pytest.raises(CapExceededError, match="no admissible start level"):
            initial_level(p)
    else:
        assert initial_level(p) == first


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
    report = run_discrepancy(get_problem("p1"), NU32, p)
    assert report.algorithm == 1
    # visited levels increase strictly by one
    assert list(report.levels) == list(
        range(report.levels[0], report.final_level + 1))
    assert report.stop_index <= report.budgets[-1]
    assert report.info_count == gamma_count(report.final_level)
    assert report.residual_norms[-1] <= p.tau * p.delta
    assert all(r > p.tau * p.delta for r in report.residual_norms[:-1])
    sol = report.solution
    assert sol.dim == 1 << (2 * report.final_level)
    # the stop iterate on the final level's support columns, read-only
    cols = assemble(get_problem("p1").fresh_source(), report.final_level).block()[1]
    assert np.array_equal(sol.indices, cols) and sol.values.shape == cols.shape
    assert not sol.indices.flags.writeable and not sol.values.flags.writeable
    dense = sol.dense()
    assert dense.flags.writeable and not np.delete(dense, cols).any()
    assert dense[cols].tobytes() == sol.values.tobytes()
    assert 0 < report.rel_error < 1
    d = report.diagnostics(1.2)
    assert d["mu"] == 1.2
    assert report.abs_error <= d["error_bound_alg1"]
    assert report.stop_index < d["k_bound"]


def test_balancing_run_report_consistency():
    p = params(2.0 ** -6)
    report = run_balancing(get_problem("p1"), NU32, p)
    assert report.algorithm == 2
    assert report.stop_index <= report.budgets[-1]
    assert report.info_count == gamma_count(report.final_level)
    assert report.abs_error <= report.diagnostics(1.2)["error_bound_alg2"]
    assert report.params.k_sec == 20


def test_balancing_accepts_low_qualification_methods():
    report = run_balancing(get_problem("p1"), nu_method(0.5), params(2.0 ** -5))
    assert report.stop_index >= 1


def test_alternative_method_runs_through_both_drivers():
    # qualification exactly 2: admissible for the discrepancy driver, and
    # mu = 0.2 <= qualification - 1 keeps every constant defined
    spec = nu_method(1.0)
    tau = admissibility_threshold(spec, 0.5) + 0.01
    p = params(2.0 ** -6, tau=tau)
    rep1 = run_discrepancy(get_problem("p2"), spec, p)
    rep2 = run_balancing(get_problem("p2"), spec, p)
    for rep in (rep1, rep2):
        assert rep.stop_index >= 1
        assert rep.rel_error < 1.0
        assert rep.abs_error <= rep.diagnostics(0.2)[f"error_bound_alg{rep.algorithm}"]


def test_zero_operator_balancing_stops_immediately():
    class ZeroProblem:
        def coeff_range(self, start, stop, rhs):
            return np.ones(stop - start) if rhs else np.zeros(stop - start)

        def fresh_source(self):
            return DiagonalSource(lambda kk: np.zeros(kk.size))

    report = run_balancing(ZeroProblem(), NU32, params(0.25, noise_dim=64))
    # all iterates are zero, so every index is admissible and K = min = 1
    assert report.stop_index == 1
    assert np.all(report.solution.dense() == 0.0)


def test_runs_are_deterministic():
    p = params(2.0 ** -7)
    a = run_discrepancy(get_problem("p1"), NU32, p)
    b = run_discrepancy(get_problem("p1"), NU32, p)
    assert a.levels == b.levels
    assert a.stop_index == b.stop_index
    assert a.residual_norms.tobytes() == b.residual_norms.tobytes()
    assert a.rel_error == b.rel_error
    assert np.array_equal(a.solution.dense(), b.solution.dense())
    c = run_balancing(get_problem("p2"), NU32, p)
    d = run_balancing(get_problem("p2"), NU32, p)
    assert c.stop_index == d.stop_index
    assert np.array_equal(c.solution.dense(), d.solution.dense())


def test_seed_changes_noise_but_not_structure():
    p1 = params(2.0 ** -6, seed=1)
    p2 = params(2.0 ** -6, seed=2)
    a = run_discrepancy(get_problem("p1"), NU32, p1)
    b = run_discrepancy(get_problem("p1"), NU32, p2)
    assert not np.array_equal(a.solution.dense(), b.solution.dense())


def _assert_same_report(a, b):
    """Every stored field of two reports is equal, arrays byte for byte, and
    so is every derived attribute."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, driver.Solution):
            x, y = x.dense().tobytes(), y.dense().tobytes()
        elif isinstance(x, np.ndarray):
            x, y = (x.dtype, x.tobytes()), (y.dtype, y.tobytes())
        assert x == y, field.name
    for name in ("delta", "seed", "final_level", "budgets", "total_iterations",
                 "rel_error"):
        assert getattr(a, name) == getattr(b, name), name


def _drop_closed_forms():
    """Drop the kept closed-form norms and the windows drawn from them."""
    problems._sumsq.cache_clear()
    problems._windows.cache_clear()


def _counted_ranges(monkeypatch) -> list:
    """Record (pid, rhs, start, stop) of every closed-form range the
    problems evaluate from now on; the kept norms and windows are dropped
    first, so that each is evaluated afresh."""
    real, calls = problems.Problem.coeff_range, []

    def counting(self, start, stop, rhs):
        calls.append((self.pid, rhs, start, stop))
        return real(self, start, stop, rhs)

    _drop_closed_forms()
    monkeypatch.setattr(problems.Problem, "coeff_range", counting)
    return calls


def _support_split(problem, report, noise_dim) -> int:
    """The head of the exact solution a run's error reads: its blocks
    [0, 128), [128, 256), [256, 512), ... up to the one that holds the last
    of the final level's support columns, cut at the error's length."""
    cols = assemble(problem.fresh_source(), report.final_level).block()[1]
    dim = max(report.solution.dim, noise_dim)
    end = problems._HEAD
    while end <= cols[-1]:
        end *= 2
    return min(end, dim)


def _assert_evaluated_once(calls, problem, noise_dim, reports):
    """Each coefficient of ``problem``'s closed forms was evaluated once for
    the norm at noise_dim; each right-hand-side coefficient once more per
    level window of ``reports`` that holds it, the windows of one (delta,
    seed, level) counted once, since a window is drawn once per process;
    each exact-solution one once more per run up to that run's support
    split; and no more."""
    windows = {(r.delta, r.seed, n) for r in reports for n in r.levels}
    heads = {True: [min(4 ** n, noise_dim) for _, _, n in windows],
             False: [_support_split(problem, r, noise_dim) for r in reports]}
    for rhs, ends in heads.items():
        want = np.zeros(max(noise_dim, *ends), dtype=int)
        want[:noise_dim] += 1
        for end in ends:
            want[:end] += 1
        got = np.zeros_like(want)
        for pid, r, start, stop in calls:
            if (pid, r) == (problem.pid, rhs):
                got[start:stop] += 1
        assert np.array_equal(got, want), (problem.pid, rhs)


def test_closed_forms_are_computed_once_per_problem(monkeypatch):
    # the norms are kept between runs of one problem: a run evaluates the
    # rhs only over the windows it draws and the exact solution up to its
    # support split, and reusing the norms changes no report
    runs = [(2.0 ** -5, 1), (2.0 ** -7, 2)]
    calls = _counted_ranges(monkeypatch)
    reused = [run_discrepancy(get_problem("p1"), NU32, params(d, seed=s))
              for d, s in runs]
    _assert_evaluated_once(calls, get_problem("p1"), 2 ** 14, reused)
    for (d, s), report in zip(runs, reused):
        _drop_closed_forms()
        fresh = run_discrepancy(get_problem("p1"), NU32, params(d, seed=s))
        _assert_same_report(report, fresh)
    _drop_closed_forms()


def test_sweeps_evaluate_each_closed_form_coefficient_once(monkeypatch):
    # sweeps alternate problems (p1, p2, p1); no norm and no window is
    # evicted, so each norm is evaluated once per process and each window's
    # rhs once, which the balancing sweep shares with the discrepancy sweep
    # on p1, and each run reads the exact solution up to its support split
    calls = _counted_ranges(monkeypatch)
    reports = {"p1": [], "p2": []}
    for runner, pid in ((run_discrepancy, "p1"), (run_discrepancy, "p2"),
                        (run_balancing, "p1")):
        for e in (4, 6, 8):
            reports[pid].append(
                runner(get_problem(pid), NU32, params(2.0 ** -e, seed=e)))
    for pid in ("p1", "p2"):
        _assert_evaluated_once(calls, get_problem(pid), 2 ** 14, reports[pid])
    _drop_closed_forms()


def test_each_seed_is_drawn_in_full_once_per_process(monkeypatch):
    # the four sweeps share their row seeds; only the first run of a seed
    # streams the full noise vector (to its norm, in chunks of at most 2^13
    # entries), later ones read its kept norm and draw just the level
    # windows, and no report changes
    real, rngs = np.random.default_rng, []

    class CountingRng:
        def __init__(self, seed):
            self.seed, self.rng, self.sizes = seed, real(seed), []
            self.bit_generator = self.rng.bit_generator
            rngs.append(self)

        def standard_normal(self, size):
            self.sizes.append(size)
            return self.rng.standard_normal(size)

    runs = [(runner, pid, e) for runner in (run_discrepancy, run_balancing)
            for pid in ("p1", "p2") for e in (4, 5, 6)]

    def run(runner, pid, e):
        return runner(get_problem(pid), NU32, params(2.0 ** -e, seed=e - 4))

    problems._noise_norm.cache_clear()
    problems._windows.cache_clear()
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    reports = [run(*r) for r in runs]
    assert sorted(r.seed for r in rngs if sum(r.sizes) == 2 ** 14) == [0, 1, 2]
    assert max(max(r.sizes, default=0) for r in rngs) <= 2 ** 13
    monkeypatch.undo()
    for r, report in zip(runs, reports):
        problems._noise_norm.cache_clear()
        _assert_same_report(report, run(*r))


def test_abs_error_is_the_norm_of_the_difference():
    # the norms are those of the full-length arrays in the block order;
    # 10_003 is no power of two, so the error's last block is cut short; at
    # 3000 the level-7 window outgrows noise_dim and the error is summed
    # over the window alone
    for noise_dim in (2 ** 14, 10_003, 3000):
        dims = []
        for runner, pid, e in ((run_discrepancy, "p1", 5),
                               (run_balancing, "p2", 7),
                               (run_discrepancy, "p2", 9)):
            problem = get_problem(pid)
            r = runner(problem, NU32, params(2.0 ** -e, seed=e, noise_dim=noise_dim))
            exact = problem.exact(max(r.solution.dim, noise_dim))
            diff = (CoeffVec(r.solution.dense()) - exact).coeffs
            assert r.abs_error == math.sqrt(block_sumsq(diff, problems._HEAD))
            assert r.rel_error == r.abs_error / math.sqrt(
                block_sumsq(exact.coeffs, problems._HEAD))
            dims.append(r.solution.dim)
        assert min(dims) < noise_dim
    assert max(dims) > 3000


@pytest.mark.parametrize("n", [2 ** 20, 2 ** 18 + 3, 999_999, 1000, 129, 7])
def test_window_sum_with_tail_sums_is_numpys_full_sum(n):
    # pins the block order: the streamed sum of squares is, for either first
    # block, that of the full array, and the error norms, summed on the
    # blocks that hold the iterate plus the kept block sums past them, are
    # the norms of the full-length arrays, bit for bit
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) * rng.uniform(0.0, 1e3, n)
    for first in (problems._HEAD, problems._LEAF):
        segments = []

        def leaf(lo, hi):
            segments.append((lo, hi))
            return v[lo:hi]

        total = math.fsum(problems._block_sumsq(n, leaf, first))
        assert total.hex() == block_sumsq(v, first).hex()
        # consecutive segments of at most 2^13 entries, in ascending order
        assert [lo for lo, _ in segments] == [0] + [hi for _, hi in segments[:-1]]
        assert segments[-1][1] == n
        assert max(hi - lo for lo, hi in segments) <= 2 ** 13
    for pid in ("p1", "p2"):
        problem = get_problem(pid)
        exact = problem.exact(n).coeffs
        exact_norm = math.sqrt(block_sumsq(exact, problems._HEAD))
        for w in (1, 7, 256, 4096, 2 ** 16, n):
            if w > n:
                continue
            # the support as a run's: every index up to w, or every third
            for cols in (np.arange(w), np.arange(w - 1, -1, -3)[::-1].copy()):
                x = rng.standard_normal(cols.size)
                diff = -exact
                diff[cols] += x
                full = math.sqrt(block_sumsq(diff, problems._HEAD))
                got = problems._error_norms(problem, cols, x, n)
                assert (got[0].hex(), got[1].hex()) == (full.hex(), exact_norm.hex()), \
                    (pid, w, cols.size)


def test_warm_run_reads_the_exact_solution_up_to_its_support_split(monkeypatch):
    # p2 at delta 2^-16 stops at level 10: a window of 2^20 coefficients
    # whose support columns are 1..2^10. Past them the error's difference is
    # -x†, whose squares the kept block sums hold, so a warm run evaluates x†
    # on the blocks [0, 128), [128, 256), [256, 512), [512, 1024) alone
    problem, p = get_problem("p2"), params(2.0 ** -16, noise_dim=2 ** 20)
    cold = run_discrepancy(problem, NU32, p)
    real, calls = problems.Problem.coeff_range, []

    def counting(self, start, stop, rhs):
        calls.append((rhs, start, stop))
        return real(self, start, stop, rhs)

    monkeypatch.setattr(problems.Problem, "coeff_range", counting)
    warm = run_discrepancy(problem, NU32, p)
    monkeypatch.undo()
    _assert_same_report(cold, warm)
    cols = assemble(problem.fresh_source(), warm.final_level).block()[1]
    assert (warm.final_level, cols[-1] + 1) == (10, 2 ** 10)
    assert [(start, stop) for rhs, start, stop in calls if not rhs] == [(0, 2 ** 10)]


def test_warm_run_allocates_nothing_of_noise_dim_length():
    # once the closed forms and the seed's noise norm are kept, a run at
    # noise_dim = 2^20 (8 MiB per full-length array) touches only its window
    p = params(2.0 ** -4, noise_dim=2 ** 20)
    problem = get_problem("p1")
    cold = run_discrepancy(problem, NU32, p)
    problems._windows.cache_clear()  # the warm run draws its window
    tracemalloc.start()
    try:
        warm = run_discrepancy(problem, NU32, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_report(cold, warm)
    assert peak < 2 ** 20, peak


def test_warm_run_holds_nothing_of_window_length():
    # p2 at delta 2^-13 runs levels 6-9, windows of up to 2^18 coefficients
    # (2 MiB each): each level streams its window, and the report holds the
    # solution on its 2^9 support columns, so the run stays under 1 MiB
    p = params(2.0 ** -13, noise_dim=2 ** 20)
    problem = get_problem("p2")
    cold = run_discrepancy(problem, NU32, p)
    problems._windows.cache_clear()  # the warm run streams its windows
    tracemalloc.start()
    try:
        warm = run_discrepancy(problem, NU32, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_report(cold, warm)
    assert warm.levels == (6, 7, 8, 9)
    assert peak < 2 ** 20, peak


def test_a_level_at_the_iteration_cap_that_stops_early_holds_no_coefficients():
    # at rho = 1e-9 the first level's budget of 7,575,757 passes the cap, so
    # the level may step 1,000,001 times, whose coefficients would take 8 MiB
    # per array; it stops at step 1 and draws two pairs of them
    p = params(2.0 ** -4, rho=1e-9, tau=5.0)
    problem = get_problem("p1")
    cold = run_discrepancy(problem, NU32, p)
    assert (cold.budgets, cold.stop_index) == ((7_575_757,), 1)
    assert max_iter_count(cold.final_level, p) > p.k_abs_max
    tracemalloc.start()
    try:
        warm = run_discrepancy(problem, NU32, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_report(cold, warm)
    assert peak < 2 ** 20, peak


def test_a_level_10_run_holds_nothing_of_window_length():
    # p2 at delta 2^-15 runs levels 7-10, up to a 2^20-coefficient window
    # (8 MiB as one array): cold, with nothing kept, and warm, drawing its
    # windows again, the run and its report stay under 4 MiB
    problem, p = get_problem("p2"), params(2.0 ** -15, noise_dim=2 ** 20)
    _drop_closed_forms()
    problems._noise_norm.cache_clear()
    spec = nu_method(1.5)  # a fresh spec, as a new process makes
    reports = []
    for _ in ("cold", "warm"):
        problems._windows.cache_clear()
        tracemalloc.start()
        try:
            reports.append(run_discrepancy(problem, spec, p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak
    _assert_same_report(*reports)
    assert reports[0].levels == (7, 8, 9, 10)


def test_a_report_holds_its_params_and_one_array_of_residual_norms():
    # p2 at delta 2^-16 with the acceptance parameters runs levels 7-10 for
    # 11,881 steps: their norms are one read-only float64 array (93 KiB), and
    # with the 16 KiB solution that is all a warm report holds
    grid, = (g for g in acceptance_grids() if (g.algorithm, g.problem_id) == (1, "p2"))
    p, problem = dataclasses.replace(grid.params, delta=2.0 ** -16), get_problem("p2")
    run_discrepancy(problem, NU32, p)
    tracemalloc.start()
    try:
        report = run_discrepancy(problem, NU32, p)
        held, peak = tracemalloc.get_traced_memory()
        norms = report.residual_norms
        assert report.params is p
        assert [f.name for f in dataclasses.fields(report)] == [
            "algorithm", "method", "params", "levels", "stop_index", "solution",
            "residual_norms", "info_count", "rhs_norm", "abs_error", "exact_norm"]
        assert (report.levels, report.total_iterations) == ((7, 8, 9, 10), 11_881)
        assert norms.dtype == np.float64 and norms.shape == (report.total_iterations,)
        assert not norms.flags.writeable
        del report, norms
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < 160 * 1024, freed
    assert peak < 320 * 1024, peak


def _assert_copy_of(report, copied):
    """``copied`` is ``report`` field for field, arrays byte for byte, its
    method equal and its arrays read-only, with the same diagnostics."""
    _assert_same_report(report, copied)
    for name in ("indices", "values"):
        x, y = getattr(report.solution, name), getattr(copied.solution, name)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()) and not y.flags.writeable
    assert not copied.residual_norms.flags.writeable
    assert copied.diagnostics(1.2) == report.diagnostics(1.2)


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


def test_a_report_round_trips_through_pickle_with_an_equal_method():
    report = run_discrepancy(get_problem("p1"), nu_method(1.5), params(2.0 ** -6))
    restored = _pickled(report)
    assert restored.method == report.method and restored.method is not report.method
    _assert_copy_of(report, restored)


@pytest.mark.parametrize("copy_of", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_copied_solution_and_report_keep_their_arrays_read_only(copy_of):
    report = run_balancing(get_problem("p2"), NU32, params(2.0 ** -5))
    sol = copy_of(report.solution)
    assert not sol.indices.flags.writeable and not sol.values.flags.writeable
    assert sol.dim == report.solution.dim
    _assert_copy_of(report, copy_of(report))


def test_a_run_in_a_spawned_worker_returns_the_same_report():
    problem, p = get_problem("p1"), params(2.0 ** -4, noise_dim=4096)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        remote = pool.submit(run_discrepancy, problem, NU32, p).result(timeout=120)
    _assert_copy_of(run_discrepancy(problem, NU32, p), remote)


def test_cold_run_allocates_nothing_of_noise_dim_length():
    # a problem and a seed the process has not met: the closed-form norms
    # and the noise norm are streamed in chunks of 2^13 entries, so the run
    # stays far below one array of noise_dim = 2^20 entries (8 MiB)
    p = params(2.0 ** -4, noise_dim=2 ** 20, seed=4242)
    problem = get_problem("p1")
    _drop_closed_forms()
    problems._noise_norm.cache_clear()
    tracemalloc.start()
    try:
        cold = run_discrepancy(problem, NU32, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_report(cold, run_discrepancy(problem, NU32, p))
    assert peak < 2 * 2 ** 20, peak


def test_balancing_stop_holds_its_window_once():
    # the iterates go straight into one (K_n + k_sec) x |C| array, which the
    # scan reads in place; a second copy (a stack of kept iterates) would
    # double the peak
    p = params(2.0 ** -12)
    problem = get_problem("p2")
    run_balancing(problem, NU32, p)  # keep the data and the coefficients
    n = 8
    k_n = max_iter_count(n, p)
    data, _ = problems._noisy_data(problem, p.noise_dim, p.delta, p.seed)
    op = assemble(problem.fresh_source(), n)
    kernel = driver._SupportKernel(op, data, [], p.k_abs_max)
    tracemalloc.start()
    try:
        hit = driver._balancing_stop(kernel, k_n, p, NU32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit is not None
    window = (k_n + p.k_sec) * kernel.cols.size * 8
    assert window >= 2 ** 20
    assert peak <= 1.25 * window, peak / window


_ROW_DIGEST = """
import hashlib, math
from semicross import RunParams, get_problem, nu_method, run_discrepancy
p = RunParams(delta=2.0 ** -13, tau=1.01 + math.sqrt(13 / 8), seed=9)
r = run_discrepancy(get_problem("p2"), nu_method(1.5), p)
h = hashlib.sha256(",".join(x.hex() for x in r.residual_norms).encode())
h.update(r.solution.dense().tobytes())
print(r.levels, r.stop_index, h.hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_a_row_is_bit_identical_under_one_and_two_blas_threads():
    # the a1/p2/e13 row of the acceptance grid reaches level 9, where the
    # off-support data holds 2^18 entries: a BLAS dot product of that length
    # rounds differently with its thread count, the block order's np.sum
    # leaves do not
    src = os.path.dirname(os.path.dirname(driver.__file__))
    out = {
        threads: subprocess.run(
            [sys.executable, "-c", _ROW_DIGEST], check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
        ).stdout
        for threads in ("1", "2")
    }
    assert out["1"].startswith("(6, 7, 8, 9) 1939 ")
    assert out["1"] == out["2"]


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

    def coeff_range(self, start, stop, rhs):
        k = np.arange(start + 1, stop + 1, dtype=float)
        return (np.where(k % 2 == 0, 1.0, 1e-6) if rhs else 1.0) / k ** 2

    def fresh_source(self):
        return BandSource()


def _full_length_run(problem, spec, p, algorithm):
    """Reference level loop on full-length vectors through the public
    ``init_state``/``step``: returns (level, stop index, solution,
    residual norms)."""
    fdelta = perturb(CoeffVec(problem.coeff_range(0, p.noise_dim, rhs=True)),
                     p.delta, p.seed)
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


def test_window_copies_the_head_and_zero_extends_past_the_data():
    # the reference window of a full-length f_delta: a copy of its first dim
    # coefficients, zero-extended when dim is longer than the data
    f = CoeffVec([1.0, -2.0, 3.0, 0.5])
    for dim, expect in [(2, [1.0, -2.0]), (4, [1.0, -2.0, 3.0, 0.5]),
                        (6, [1.0, -2.0, 3.0, 0.5, 0.0, 0.0])]:
        w = driver._window(f, dim)
        assert w.coeffs.tolist() == expect
        assert not np.shares_memory(w.coeffs, f.coeffs)
        assert not w.coeffs.flags.writeable
    assert f.coeffs.tolist() == [1.0, -2.0, 3.0, 0.5]


# ---------------------------------------------------------------------------
# support kernel and shared level loop
# ---------------------------------------------------------------------------

def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / scale) if scale > 0 else float(np.linalg.norm(a))


def _assert_kernel_matches_full_length_iteration(op, seed):
    data = CoeffVec(np.random.default_rng(seed).standard_normal(op.dim))
    kernel = driver._SupportKernel(op, HeldData(data.coeffs), [], 10 ** 6)
    state = init_state(op, data, NU32)
    for _, x, res in kernel.iterates(NU32, 60):
        state = step(state, op, data, NU32)
        ref = driver._residual_norm(op.apply(state.x_curr), data)
        full = np.zeros(op.dim)
        full[kernel.cols] = x
        assert np.array_equal(full, state.x_curr.coeffs)
        assert res == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_support_kernel_matches_full_length_iteration(n):
    op = assemble(BandSource(), n)
    rows, cols, _, _ = op.block()
    # R != C, and neither is a leading block
    assert not np.array_equal(rows, cols)
    assert rows[0] > 0 and cols[0] > 0
    _assert_kernel_matches_full_length_iteration(op, n)


@pytest.mark.parametrize("n", [4, 5])
def test_support_kernel_sums_in_entry_order(n):
    # three or more terms per output, so a kernel that summed them in any
    # other order than the full-length products would differ in the bits
    op = assemble(BlockSource(), n)
    _, _, ri, ci = entry_positions(op)
    assert min(np.bincount(ri)) >= 3 and min(np.bincount(ci)) >= 3
    _assert_kernel_matches_full_length_iteration(op, n)


def _products_of(op):
    """The functions the two products of ``op.block()`` call, and whether
    they are one callable: ``np.multiply`` for a diagonal block, else
    ``_product``."""
    _, _, forward, adjoint = op.block()
    return forward.func, adjoint.func, forward is adjoint


def _product_reference(op, data, spec, m):
    """The support kernel's loop with both block products made through
    ``hypercross._product``: yields (x_k on C, residual norm), k = 1..m."""
    rows, cols, ri, ci = entry_positions(op)
    f = data[rows]
    off = np.delete(data, rows)
    off2 = float(np.sum(off * off))
    x = x_prev = np.zeros(cols.size)
    r = f
    for k, (mu_k, two_omega_k) in zip(range(m + 1), spec.steps()):
        update = _product(ci, ri, op.vals, r, cols.size)
        x_prev, x = x, _advance(mu_k, two_omega_k, x, x_prev, update)
        r = f - _product(ri, ci, op.vals, x, rows.size)
        if k:
            yield x, math.sqrt(float(r @ r) + off2)


#: diagonal operators: the shipped Green operator (R = C = the first 2^n
#: indices) and one with alternating signs and every third entry zero (R = C
#: neither full nor a leading block)
_DIAGONAL_SOURCES = {
    "green": green_operator,
    "gappy": lambda: DiagonalSource(
        lambda kk: np.where(kk % 3 == 0, 0.0, (-1.0) ** kk * 0.9 / np.sqrt(kk))),
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("source", sorted(_DIAGONAL_SOURCES))
def test_diagonal_block_steps_bit_for_bit_as_through_product(source, n):
    op = assemble(_DIAGONAL_SOURCES[source](), n)
    rows, cols, ri, ci = entry_positions(op)
    assert np.array_equal(ri, ci) and np.array_equal(ri, np.arange(ri.size))
    assert _products_of(op) == (np.multiply, np.multiply, True)
    if source == "gappy" and n > 1:
        assert rows.size < 1 << n and rows[-1] >= rows.size
    data = np.random.default_rng(n).standard_normal(op.dim)
    # exact zeros of both signs on R, so residual zeros of both signs occur
    data[rows[::4]] = 0.0
    data[rows[1::4]] = -0.0
    kernel = driver._SupportKernel(op, HeldData(data), [], 10 ** 6)
    pairs = zip(kernel.iterates(NU32, 300), _product_reference(op, data, NU32, 300),
                strict=True)
    for (_, x, res), (x_ref, res_ref) in pairs:
        assert np.array_equal(x, x_ref) and res == res_ref


@pytest.mark.parametrize("n", [3, 4])
def test_permutation_block_takes_the_product_path(n):
    # one entry per row and column, but not in the order of R and C
    op = assemble(SwapSource(), n)
    _, _, ri, ci = entry_positions(op)
    assert np.array_equal(np.bincount(ri), np.ones(ri.size))
    assert np.array_equal(np.bincount(ci), np.ones(ci.size))
    assert _products_of(op) == (_product, _product, False)
    _assert_kernel_matches_full_length_iteration(op, n)


@pytest.mark.parametrize("scaled", [True, False])
@pytest.mark.parametrize("pid", ["p1", "p2"])
def test_shipped_problems_step_elementwise(pid, scaled):
    # every level the runs reach has a diagonal block
    src = get_problem(pid, scaled=scaled).fresh_source()
    for n in range(1, 10):
        assert _products_of(assemble(src, n)) == (np.multiply, np.multiply, True)


@pytest.mark.parametrize("source", [BandSource, BlockSource, SwapSource])
def test_off_diagonal_blocks_are_not_classed_diagonal(source):
    # from level 3 on, each of these blocks holds two entries or more
    for n in range(3, 7):
        assert _products_of(assemble(source(), n)) == (_product, _product, False)


def test_shipped_runs_never_gather_and_bincount(monkeypatch):
    runs = [(runner, get_problem(pid)) for runner in (run_discrepancy, run_balancing)
            for pid in ("p1", "p2")]
    before = [runner(problem, NU32, params(2.0 ** -8)) for runner, problem in runs]

    def bincount(*args, **kwargs):
        raise AssertionError("a shipped run summed a product with bincount")

    monkeypatch.setattr(np, "bincount", bincount)
    after = [runner(problem, NU32, params(2.0 ** -8)) for runner, problem in runs]
    for old, new in zip(before, after):
        assert new.residual_norms.tobytes() == old.residual_norms.tobytes()
        assert np.array_equal(new.solution.dense(), old.solution.dense())


def test_support_kernel_residual_when_off_support_data_is_tiny():
    # data almost entirely on the row support R: ||f_R||^2 - ... would
    # cancel, the off-support energy summed directly does not
    op = assemble(BandSource(), 4)
    rows, cols, _, _ = op.block()
    rng = np.random.default_rng(7)
    x_true = np.zeros(op.dim)
    x_true[cols] = rng.standard_normal(cols.size)
    f = op.apply(CoeffVec(x_true)).coeffs.copy()
    off = np.ones(op.dim, dtype=bool)
    off[rows] = False
    f[off] = 1e-6 * norm(CoeffVec(f)) * rng.standard_normal(off.sum()) / np.sqrt(off.sum())
    data = CoeffVec(f)
    kernel = driver._SupportKernel(op, HeldData(data.coeffs), [], 10 ** 6)
    assert kernel.off2 <= 1e-11 * float(f @ f)
    state = init_state(op, data, NU32)
    last = None
    for _, x, res in kernel.iterates(NU32, 300):
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
    assert _relative_gap(report.solution.dense(), solution.coeffs) <= 1e-12


def test_nonfinite_residual_raises():
    class BlowUpProblem:
        """Diagonal 10 puts A*A outside [0, 1]: the iteration diverges."""

        def coeff_range(self, start, stop, rhs):
            # unit norm at the noise_dim = 2^10 the runs below use
            return np.full(stop - start, 1.0 / 32.0 if rhs else 1.0)

        def fresh_source(self):
            return DiagonalSource(lambda kk: np.full(kk.size, 10.0))

    with np.errstate(over="ignore", invalid="ignore"):
        for runner in (run_discrepancy, run_balancing):
            with pytest.raises(NumericalDegeneracyError, match="non-finite"):
                runner(BlowUpProblem(), NU32, params(2.0 ** -6, noise_dim=2 ** 10,
                                                     n_max=6))


def test_balancing_diagnostics_do_not_depend_on_tau():
    # tau = 2.0 is at or below nu-1.5's admissibility threshold 2.27475,
    # which concerns the discrepancy analysis only
    low, high = (run_balancing(get_problem("p1"), NU32, params(2.0 ** -6, tau=tau))
                 .diagnostics(1.2) for tau in (2.0, TAU_REF))
    assert low.keys() == high.keys() == DIAGNOSTIC_KEYS
    for key in ("mu", "c1", "c_alg2", "k_opt", "tau_threshold", "error_bound_alg2"):
        assert low[key] == high[key]
    for key in ("c2", "c_alg1", "c3", "c4", "c5", "error_bound_alg1", "k_bound",
                "n_bound", "info_bound"):
        assert low[key] is None
    with pytest.raises(ConfigError, match="admissibility threshold"):
        theoretical_constants(NU32, params(2.0 ** -6, tau=2.0), 1.2, 5)


def test_diagnostics_outside_qualification_do_not_abort_the_run():
    # mu = 1.2 exceeds the qualification 0.5 of the nu = 1/4 method: the run
    # computes no diagnostics, and asking for them is a configuration error
    report = run_balancing(get_problem("p1"), nu_method(0.25), params(2.0 ** -5))
    assert np.isfinite(report.rel_error)
    with pytest.raises(ConfigError, match=r"mu must lie in \(0, 0.5\], got 1.2"):
        report.diagnostics(1.2)


@pytest.mark.parametrize("pid, exponent, mu, levels", [
    ("p1", 6, 1.2, (1, 2)), ("p2", 8, 0.2, (1, 2, 3, 4))])
def test_cost_bounds_are_none_where_their_base_is_not_positive(pid, exponent, mu, levels):
    # rho = 1e-6 puts c4 + c5 log(rho/delta) below -1: n_bound would be
    # negative and info_bound a complex power of a negative base
    p = RunParams(delta=2.0 ** -exponent, rho=1e-6, gamma=0.5, tau=TAU_REF)
    report = run_discrepancy(get_problem(pid), NU32, p)
    d = report.diagnostics(mu)
    assert report.levels == levels and d.keys() == DIAGNOSTIC_KEYS
    assert 1.0 + d["c4"] + d["c5"] * math.log(p.rho / p.delta) <= 0
    assert d["n_bound"] is None and d["info_bound"] is None
    assert all(v is None or type(v) in (int, float) for v in d.values())


def test_diagnostics_past_the_float_range_raise_overflow():
    # r = 0.01: every constant is finite, but the base of info_bound is
    # raised to the power 1 + 1/r = 101
    p = RunParams(delta=2.0 ** -4, gamma=0.5, tau=TAU_REF, r=0.01)
    cons = theoretical_constants(NU32, p, 1.2, 2)
    assert all(math.isfinite(v) for v in cons.values())
    with pytest.raises(OverflowError, match="out of range"):
        driver._diagnostics(NU32, p, 1.2, (1, 2))


def test_a_run_that_never_refined_has_no_cost_bounds():
    p = RunParams(delta=2.0 ** -4, rho=1.0, gamma=0.5, tau=TAU_REF, r=2.0, k_sec=20)
    report = run_balancing(get_problem("p1"), NU32, p)
    assert report.levels == (4,)
    assert report.diagnostics(1.2) == {
        "c1": 4.337254878398197, "c_alg2": 49.33263544992445, "k_opt": 5,
        "tau_threshold": 2.274754878398196, "c2": 18.314540328476067,
        "c_alg1": 57.747844502245755, "c3": 196.67310231381782,
        "c4": 5.82717460261316, "c5": 1.0492327570101554, "mu": 1.2,
        "error_bound_alg2": 10.872804999640028, "error_bound_alg1": 12.72749867701248,
        "k_bound": 64.58375437142583, "n_bound": None, "info_bound": None}


@pytest.mark.parametrize("runner", [run_discrepancy, run_balancing])
def test_a_report_holds_the_method_it_ran_with(runner):
    spec = nu_method(1.5)
    report = runner(get_problem("p1"), spec, params(2.0 ** -6))
    assert report.method is spec
    assert report.diagnostics(1.2) == driver._diagnostics(spec, report.params, 1.2,
                                                          report.levels)


@pytest.mark.parametrize("runner", [run_discrepancy, run_balancing])
def test_a_run_computes_no_diagnostics(runner, monkeypatch):
    p = params(2.0 ** -6)
    expected = runner(get_problem("p1"), NU32, p)

    def refuse(*args):
        raise AssertionError("a run computed the diagnostics")

    monkeypatch.setattr(driver, "_diagnostics", refuse)
    _assert_same_report(runner(get_problem("p1"), NU32, p), expected)


def test_diagnostics_of_a_refined_run_keep_their_bits():
    # the acceptance run of p1 discrepancy at delta 2^-13 (seed 9) refines
    # over levels 6-8, so every bound is present
    grid, = (g for g in acceptance_grids() if (g.algorithm, g.problem_id) == (1, "p1"))
    p = dataclasses.replace(grid.params, delta=2.0 ** -13, seed=9)
    report = run_discrepancy(get_problem("p1"), NU32, p)
    assert report.levels == (6, 7, 8)
    d = report.diagnostics(1.2)
    assert d.pop("k_opt") == 83
    assert {k: v.hex() for k, v in d.items()} == {
        "c1": "0x1.1395957c48bfep+2", "c_alg2": "0x1.8aa93cc657538p+5",
        "tau_threshold": "0x1.232b2af8917fbp+1", "c2": "0x1.25085b70813ebp+4",
        "c_alg1": "0x1.cdecc96492e1cp+5", "c3": "0x1.8958a0ddd16b4p+7",
        "c4": "0x1.74f06dbe938a5p+2", "c5": "0x1.0c9a84994022ep+0",
        "mu": "0x1.3333333333333p+0", "error_bound_alg2": "0x1.728f3ac7182a7p-2",
        "error_bound_alg1": "0x1.b1b7325aaa8a6p-2", "k_bound": "0x1.13232d3378c6ep+10",
        "n_bound": "0x1.e903d9c803f3cp+3", "info_bound": "0x1.14a919ca4656cp+23"}
