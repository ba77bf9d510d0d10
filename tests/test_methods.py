import dataclasses
import gc
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import binom

from semicross import driver, get_problem, methods
from semicross.coeffs import CoeffVec
from semicross.hypercross import assemble
from semicross.methods import (
    MethodSpec,
    NumericalDegeneracyError,
    filter_value,
    init_state,
    nu_method,
    residual_profile,
    residual_value,
    step,
)

from helpers import (DiagonalOperator, HeldData, ZeroOperator, cheb4_residual,
                     jacobi_recurrence, norm, recurrence_steps)

NU_HALF = nu_method(0.5)
NU_ONE = nu_method(1.0)
NU_32 = nu_method(1.5)
TAU_REF = 1.01 + math.sqrt(13.0 / 8.0)


def _arrays(spec: MethodSpec, n: int, k: int = 0):
    """mu_j and 2 omega_j for j = k..k + n - 1, drawn from ``spec.steps(k)``,
    as two float64 arrays."""
    mu, two_omega = zip(*itertools.islice(spec.steps(k), n))
    return np.array(mu), np.array(two_omega)


# ---------------------------------------------------------------------------
# method construction
# ---------------------------------------------------------------------------

def test_rejects_nonpositive_nu():
    with pytest.raises(ValueError):
        nu_method(0.0)
    with pytest.raises(ValueError):
        nu_method(-1.5)


@pytest.mark.parametrize("nu", [math.nan, math.inf, 100.0, 1e-300])
def test_rejects_nu_whose_recursion_leaves_the_floats(nu):
    # (2 nu)! overflows for nu = 100; at nu = 1e-300, 2 nu - 1/2 rounds to
    # -1/2 and beta(1) would divide by zero
    with pytest.raises(ValueError, match="nu"):
        nu_method(nu)


def test_chebyshev_recursion_coefficients():
    # monic fourth-kind Chebyshev closed form, and the steps it gives:
    # 2 omega_k = 4 (2k + 1)/(2k + 3), mu_k = (2k - 1)/(2k + 3) for k >= 1
    alpha, beta = jacobi_recurrence(0.5)
    assert alpha(0) == pytest.approx(-0.5, abs=1e-15)
    for k in range(1, 8):
        assert alpha(k) == pytest.approx(0.0, abs=1e-15)
        assert beta(k) == pytest.approx(0.25, abs=1e-15)
    mu, two_omega = _arrays(NU_HALF, 8)
    k = np.arange(8.0)
    assert np.array_equal(two_omega, 4.0 * (2.0 * k + 1.0) / (2.0 * k + 3.0))
    assert mu[0] == 0.0
    assert np.array_equal(mu[1:], ((2.0 * k - 1.0) / (2.0 * k + 3.0))[1:])


def test_qualifications_and_constants():
    assert NU_HALF.qualification == 1.0
    assert NU_32.qualification == 3.0
    assert NU_ONE.qualification == 2.0
    for spec in (NU_HALF, NU_ONE, NU_32):
        assert spec.kappa0 == 1.0
    assert NU_32.kappa2 == pytest.approx(6.0)
    assert NU_32.kappa_mu(1.2) == pytest.approx(6.0)
    assert NU_ONE.kappa_mu(2.0) == pytest.approx(2.0)
    assert NU_HALF.kappa_mu(0.5) == pytest.approx(1.0)


def test_beta_positive():
    # the nu-methods' recurrence, which the oracle specs below are built on
    for nu in (0.5, 1.0, 1.5, 0.75):
        _, beta = jacobi_recurrence(nu, exact=True)
        assert all(beta(k) > 0 for k in range(1, 50))


# ---------------------------------------------------------------------------
# omega recursion
# ---------------------------------------------------------------------------

def test_omega_values_chebyshev():
    _, two_omega = _arrays(NU_HALF, 2)
    assert two_omega[0] / 2.0 == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert two_omega[1] / 2.0 == pytest.approx(6.0 / 5.0, rel=1e-15)


def test_omega_is_one_for_zero_alpha0():
    spec = MethodSpec("flat", recurrence_steps(lambda k: 0.0, lambda k: 0.25),
                      1.0, 1.0, lambda mu: 1.0, 2.0)
    assert next(spec.steps())[1] == 2.0


def test_omega_degeneracy_detected():
    spec = MethodSpec("bad", recurrence_steps(lambda k: 1.0, lambda k: 0.25),
                      1.0, 1.0, lambda mu: 1.0, 2.0)
    with pytest.raises(NumericalDegeneracyError, match="k=0"):
        next(spec.steps())


# ---------------------------------------------------------------------------
# step coefficients
# ---------------------------------------------------------------------------

#: the nu whose product form is exact before its one division, and the k
#: at which it is pinned
_EXACT_NU = (0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0)
_PINNED_K = (*range(300), *range(300, 20_001, 97))


def _ulps(value: float, exact: Fraction) -> float:
    """|value - exact| in units in the last place of ``exact``'s float."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


@pytest.mark.parametrize("nu", _EXACT_NU)
def test_steps_are_the_product_form_within_half_an_ulp(nu):
    # past K_9 = 14,122, the largest budget of the acceptance grid
    pairs = list(itertools.islice(nu_method(nu).steps(), 20_001))
    assert len(pairs) == 20_001
    assert all(type(mu_k) is type(two_omega_k) is float for mu_k, two_omega_k in pairs)
    mu, two_omega = zip(*pairs)
    n = Fraction(nu)
    for k in _PINNED_K:
        two_omega_k = 4 * (2 * k + 2 * n + 1) * (k + n) / ((k + 2 * n) * (2 * k + 4 * n + 1))
        assert _ulps(two_omega[k], two_omega_k) <= 0.5, k
        if k == 0:
            assert mu[0] == 0.0
            continue
        mu_k = k * (2 * k - 1) * (2 * k + 2 * n + 1) / (
            (k + 2 * n) * (2 * k + 4 * n + 1) * (2 * k + 2 * n - 1))
        assert _ulps(mu[k], mu_k) <= 0.5, k


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.5])
def test_coefficient_table_is_the_omega_chain(nu):
    # the omega recursion on the Jacobi recurrence, run in exact rationals
    # and rounded once, gives the product form's bits
    exact = MethodSpec("chain", recurrence_steps(*jacobi_recurrence(nu, exact=True)),
                       1.0, 1.0, lambda mu: 1.0, 2.0 * nu)
    for chain, product in zip(_arrays(exact, 501), _arrays(nu_method(nu), 501)):
        assert np.array_equal(chain, product)


@pytest.mark.parametrize("nu", _EXACT_NU)
def test_steps_from_k_continue_the_stream_bit_for_bit(nu):
    spec = nu_method(nu)
    whole = _arrays(spec, 20_300)
    for k in (0, 1, 255, 256, 20_000):
        for tail, part in zip(_arrays(spec, 300, k), whole):
            assert tail.tobytes() == part[k:k + 300].tobytes(), k


def test_step_draws_one_pair_at_any_k():
    draws = []

    def steps(k=0):
        for pair in NU_32.steps(k):
            draws.append(k)
            yield pair

    spec = dataclasses.replace(NU_32, steps=steps)
    op = DiagonalOperator([0.9, 0.5, 0.1])
    rhs = CoeffVec([1.0, 1.0, 1.0])
    state = init_state(op, rhs, spec)
    assert draws == [0]
    draws.clear()
    far = dataclasses.replace(state, k=9_999)
    x = step(far, op, rhs, spec)
    assert draws == [10_000]
    assert x.k == 10_000
    assert np.array_equal(x.x_curr.coeffs, step(far, op, rhs, NU_32).x_curr.coeffs)


def test_a_spec_keeps_its_own_table_and_only_for_its_lifetime():
    spec = nu_method(1.5)
    # no cache: each call makes a spec of its own, which draws the same pairs
    assert spec is not NU_32 and spec.steps is not NU_32.steps
    assert next(spec.steps(10)) == next(NU_32.steps(10))
    p = driver.RunParams(delta=2.0 ** -6, tau=2.5, noise_dim=2 ** 12)
    driver.run_discrepancy(get_problem("p1"), spec, p)
    # nothing in the package keeps the spec once its caller drops it
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_a_run_leaves_nothing_in_methods():
    # with the report and a fresh spec dropped, ``methods`` holds nothing of
    # a p2 discrepancy run at delta 2^-12: no table, no head, no cache
    p = driver.RunParams(delta=2.0 ** -12, tau=TAU_REF)
    tracemalloc.start()
    try:
        spec = nu_method(1.5)
        report = driver.run_discrepancy(get_problem("p2"), spec, p)
        assert report.levels[-1] >= 8
        del report, spec
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = snapshot.filter_traces([tracemalloc.Filter(True, methods.__file__)])
    assert sum(stat.size for stat in kept.statistics("filename")) < 8 * 1024


def _degenerate_at_7() -> MethodSpec:
    """The nu = 3/2 method by its recurrence, with alpha_7 moved so that
    the omega denominator of step 7 is zero."""
    alpha, beta = jacobi_recurrence(1.5)
    omega_6 = next(recurrence_steps(alpha, beta)(6))[1] / 2.0
    alpha_7 = 1.0 - beta(7) * omega_6
    steps = recurrence_steps(lambda k: alpha_7 if k == 7 else alpha(k), beta)
    return dataclasses.replace(NU_32, steps=steps)


def _alpha_ends_at_7() -> MethodSpec:
    """The nu = 3/2 method by its recurrence, with ``alpha`` read from a
    table of steps 0..6, so that asking for alpha_7 raises IndexError."""
    alpha, beta = jacobi_recurrence(1.5)
    table = [alpha(k) for k in range(7)]
    return dataclasses.replace(NU_32, steps=recurrence_steps(table.__getitem__, beta))


@pytest.mark.parametrize("make_spec, error, match", [
    (_degenerate_at_7, NumericalDegeneracyError, "k=7"),
    (_alpha_ends_at_7, IndexError, "out of range"),
])
def test_degenerate_step_raises_only_when_asked_for(make_spec, error, match):
    spec = make_spec()
    pairs = spec.steps()
    assert len(list(itertools.islice(pairs, 7))) == 7
    with pytest.raises(error, match=match):
        next(pairs)
    with pytest.raises(error, match=match):
        next(spec.steps(7))
    op = DiagonalOperator([0.9, 0.5, 0.1])
    rhs = CoeffVec([1.0, 1.0, 1.0])
    state = init_state(op, rhs, spec)
    for _ in range(6):
        state = step(state, op, rhs, spec)
    with pytest.raises(error, match=match):
        step(state, op, rhs, spec)
    # a level of the support kernel draws each step's pair as it makes the
    # step, so a level of 7 steps yields 6 iterates and raises on the 7th
    kernel = driver._SupportKernel(assemble(get_problem("p1").fresh_source(), 3),
                                   HeldData(np.ones(64)), [], 10 ** 6)
    assert len(list(kernel.iterates(spec, 6))) == 6
    iterates = kernel.iterates(spec, 7)
    assert [k for k, _, _ in itertools.islice(iterates, 6)] == [1, 2, 3, 4, 5, 6]
    with pytest.raises(error, match=match):
        next(iterates)
    assert len(kernel.residuals) == 12
    # a run that makes no step 7 never meets it: at delta 2^-3 the first
    # level's budget is 1; at 2^-4 it is 7, and the level stops at step 1
    p = driver.RunParams(delta=2.0 ** -3, tau=5.0, noise_dim=2 ** 14)
    report = driver.run_discrepancy(get_problem("p1"), spec, p)
    assert max(report.budgets) < 7
    report = driver.run_discrepancy(get_problem("p1"), spec,
                                    dataclasses.replace(p, delta=2.0 ** -4))
    assert report.budgets == (7,) and report.stop_index < 7
    # at 2^-5 the second level steps past 7
    with pytest.raises(error, match=match):
        driver.run_discrepancy(get_problem("p1"), spec,
                               dataclasses.replace(p, delta=2.0 ** -5))


def test_a_level_asks_for_its_coefficients_once():
    calls = []

    def steps(k=0):
        drawn = [k, 0]  # the first pair and how many were drawn
        calls.append(drawn)
        for pair in NU_32.steps(k):
            drawn[1] += 1
            yield pair

    spec = dataclasses.replace(NU_32, steps=steps)
    p = driver.RunParams(delta=2.0 ** -8, tau=2.5, noise_dim=2 ** 14)
    report = driver.run_balancing(get_problem("p1"), spec, p)
    assert len(report.levels) > 1
    # one call per level that steps, from pair 0, which draws the pairs of
    # steps 0..K_n + k_sec and none past them
    assert calls == [[0, k_n + p.k_sec + 1] for k_n in report.budgets if k_n >= 1]
    calls.clear()
    report = driver.run_discrepancy(get_problem("p1"), spec, p)
    assert len(report.levels) > 1
    # steps 0..K_n on each level that refines, 0..the stop index on the last
    budgets = [k_n for k_n in report.budgets if k_n >= 1]
    assert calls == [[0, k_n + 1] for k_n in budgets[:-1]] + [[0, report.stop_index + 1]]
    assert report.stop_index < budgets[-1]


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def test_init_state_zero_rhs():
    op = DiagonalOperator([1.0, 0.5, 0.25])
    state = init_state(op, CoeffVec.zeros(3), NU_HALF)
    assert state.k == 0
    assert norm(state.x_curr) == 0.0
    assert norm(state.x_prev) == 0.0


def test_init_state_identity_example():
    op = DiagonalOperator([1.0])
    state = init_state(op, CoeffVec([1.0]), NU_HALF)
    assert state.x_curr.coeffs[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert state.x_curr.coeffs[0] == next(NU_HALF.steps())[1]  # 2 omega_0 f


def test_init_state_dimension_mismatch():
    op = DiagonalOperator([1.0, 2.0])
    with pytest.raises(ValueError):
        init_state(op, CoeffVec([1.0, 2.0, 3.0]), NU_HALF)


def test_zero_operator_stays_zero():
    op = ZeroOperator(4)
    rhs = CoeffVec([1.0, -2.0, 3.0, 0.5])
    state = init_state(op, rhs, NU_32)
    for _ in range(10):
        state = step(state, op, rhs, NU_32)
    assert norm(state.x_curr) == 0.0


def test_one_dim_iteration_tracks_residual_polynomial():
    # A = 1, f = 1: the step-k iterate satisfies 1 - x_k = r_{k+1}(1)
    op = DiagonalOperator([1.0])
    rhs = CoeffVec([1.0])
    state = init_state(op, rhs, NU_HALF)
    gaps = []
    for _ in range(30):
        expect = residual_value(NU_HALF, state.k + 1, 1.0)
        assert 1.0 - state.x_curr.coeffs[0] == pytest.approx(expect, rel=1e-12, abs=1e-14)
        gaps.append(abs(1.0 - state.x_curr.coeffs[0]))
        state = step(state, op, rhs, NU_HALF)
    # converges to the solution, with strictly shrinking gap
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_iteration_matches_spectral_filter(nu):
    spec = nu_method(nu)
    rng = np.random.default_rng(7)
    sigma = rng.uniform(-1.0, 1.0, size=16)
    data = rng.standard_normal(16)
    op = DiagonalOperator(sigma)
    rhs = CoeffVec(data)
    state = init_state(op, rhs, spec)
    lam = sigma ** 2
    for _ in range(40):
        predicted = filter_value(spec, state.k + 1, lam) * sigma * data
        err = norm(state.x_curr - CoeffVec(predicted)) / np.linalg.norm(predicted)
        assert err <= 1e-9
        state = step(state, op, rhs, spec)


# zero eigenvalues are exact for both routes; tiny nonzero ones are kept
# away from the regime where forming (1 - r)/lam cancels catastrophically
_eigenvalues_st = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1.0).flatmap(
        lambda m: st.sampled_from((m, -m))),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((0.5, 1.5)),
    st.lists(_eigenvalues_st, min_size=1, max_size=8),
    st.data(),
    st.integers(min_value=1, max_value=20),
)
def test_any_diagonal_operator_matches_filter(nu, sigma, data, steps):
    spec = nu_method(nu)
    rhs_vals = data.draw(st.lists(
        st.floats(min_value=-10.0, max_value=10.0),
        min_size=len(sigma), max_size=len(sigma)))
    op = DiagonalOperator(sigma)
    rhs = CoeffVec(rhs_vals)
    state = init_state(op, rhs, spec)
    for _ in range(steps):
        state = step(state, op, rhs, spec)
    sig = np.asarray(sigma)
    lam = np.clip(sig * sig, 0.0, 1.0)
    predicted = filter_value(spec, state.k + 1, lam) * sig * np.asarray(rhs_vals)
    scale = max(float(np.linalg.norm(predicted)), 1e-30)
    assert norm(state.x_curr - CoeffVec(predicted)) <= 1e-9 * scale + 1e-12


def test_error_identity_on_diagonal_operator():
    # f = A x  =>  x - x_k = r_{k+1}(sigma^2) x componentwise
    spec = NU_32
    rng = np.random.default_rng(3)
    sigma = rng.uniform(-1, 1, size=12)
    x_truth = rng.standard_normal(12)
    op = DiagonalOperator(sigma)
    rhs = CoeffVec(sigma * x_truth)
    state = init_state(op, rhs, spec)
    for _ in range(25):
        gap = x_truth - state.x_curr.coeffs
        expect = residual_value(spec, state.k + 1, sigma ** 2) * x_truth
        assert np.allclose(gap, expect, rtol=1e-9, atol=1e-12)
        state = step(state, op, rhs, spec)


def test_step_accepts_cached_operator_application():
    spec = NU_32
    op = DiagonalOperator([0.9, -0.3, 0.1])
    rhs = CoeffVec([1.0, 2.0, -1.0])
    s_plain = init_state(op, rhs, spec)
    s_cached = init_state(op, rhs, spec)
    for _ in range(5):
        ax = op.apply(s_cached.x_curr)
        s_plain = step(s_plain, op, rhs, spec)
        s_cached = step(s_cached, op, rhs, spec, ax_curr=ax)
        assert np.array_equal(s_plain.x_curr.coeffs, s_cached.x_curr.coeffs)


# ---------------------------------------------------------------------------
# residual and filter polynomials
# ---------------------------------------------------------------------------

def test_residual_at_zero_is_one():
    for spec in (NU_HALF, NU_ONE, NU_32):
        for k in (0, 1, 7, 50, 200):
            assert residual_value(spec, k, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_residual_rejects_bad_arguments():
    with pytest.raises(ValueError):
        residual_value(NU_HALF, -1, 0.5)
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        residual_profile(NU_32, -1, 0.5)
    with pytest.raises(ValueError):
        residual_value(NU_HALF, 3, 1.5)
    with pytest.raises(ValueError):
        residual_value(NU_HALF, 3, -0.1)


def test_chebyshev_closed_form_oracle():
    lam = np.linspace(0.0, 1.0, 101)
    for k in (1, 2, 5, 20, 100, 200):
        mine = residual_value(NU_HALF, k, lam)
        assert np.max(np.abs(mine - cheb4_residual(k, lam))) <= 1e-11


def test_residual_recurrence_survives_large_k():
    # monic P_k(1 - 2 lam) and P_k(1) would underflow around k ~ 500; the
    # normalized recurrence never leaves [-1, 1]
    lam = np.array([0.1, 0.5, 0.9])
    for k in (1000, 2000):
        mine = residual_value(NU_HALF, k, lam)
        assert np.max(np.abs(mine - cheb4_residual(k, lam))) <= 1e-9


def test_endpoint_ratio_against_binomial_oracle():
    val = residual_value(NU_32, 1, 1.0)
    assert val == pytest.approx(-1.0 / 7.0, rel=1e-14)
    for nu in (0.5, 1.0, 1.5):
        spec = nu_method(nu)
        for k in (1, 2, 5, 20):
            oracle = binom(k - 0.5, k) / binom(k + 2 * nu - 0.5, k)
            assert abs(residual_value(spec, k, 1.0)) == pytest.approx(oracle, rel=1e-12)


def test_profile_matches_pointwise_evaluation():
    lam = np.linspace(0.0, 1.0, 23)
    prof = residual_profile(NU_32, 30, lam)
    for k in (0, 1, 13, 30):
        assert np.allclose(prof[k], residual_value(NU_32, k, lam), rtol=1e-13, atol=1e-14)


def test_filter_value_basics():
    for spec in (NU_HALF, NU_32):
        for k in (1, 3, 10):
            g1 = filter_value(spec, k, 1.0)
            assert g1 == pytest.approx(1.0 - residual_value(spec, k, 1.0), rel=1e-13)
    assert math.isfinite(filter_value(NU_32, 5, 0.0))
    with pytest.raises(ValueError):
        filter_value(NU_32, 0, 0.5)
    with pytest.raises(ValueError):
        filter_value(NU_32, 3, 1.5)


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("k", [1, 5, 50, 200])
def test_filter_at_zero_is_exact(nu, k):
    # g_k(0) = -r_k'(0) = k (k + 2 nu)/(2 nu + 1/2) for the nu-methods; a
    # value taken as (1 - r_k(eps))/eps is off by O(k^4 eps)
    expect = k * (k + 2.0 * nu) / (2.0 * nu + 0.5)
    assert filter_value(nu_method(nu), k, 0.0) == pytest.approx(expect, rel=1e-12)


def test_polynomials_at_zero_take_the_first_step_exactly():
    # g_1(0) = 2 omega_0 = (4 nu + 2)/(4 nu + 1), correctly rounded
    for nu in (0.5, 1.0, 1.5, 0.25):
        spec = nu_method(nu)
        assert filter_value(spec, 1, 0.0) == (4.0 * nu + 2.0) / (4.0 * nu + 1.0)
        for k in (0, 1, 7, 50, 200):
            assert residual_value(spec, k, 0.0) == 1.0


def test_filter_bounds_full_sweep():
    lam = np.linspace(0.0, 1.0, 501)
    for spec in (NU_HALF, NU_ONE, NU_32):
        prof = residual_profile(spec, 100, lam)
        for k in range(1, 101):
            g = (1.0 - prof[k][1:]) / lam[1:]
            assert np.max(np.abs(g)) <= 2.0 * spec.kappa0 * k ** 2 + 1e-10
            assert np.max(np.abs(np.sqrt(lam[1:]) * g)) <= 2.0 * spec.kappa0 * k + 1e-10


def test_condition_suite_small_sweep():
    lam = np.linspace(0.0, 1.0, 501)
    for nu in (0.5, 1.0, 1.5):
        spec = nu_method(nu)
        kappa = spec.kappa_mu(spec.qualification)
        prof = residual_profile(spec, 60, lam)
        for k in range(1, 61):
            assert np.max(np.abs(prof[k])) <= spec.kappa0 + 1e-10
            weighted = np.abs(lam ** nu * prof[k])
            assert np.max(weighted) <= kappa / (k + 1) ** (2 * nu) + 1e-10


def test_interface_admits_larger_kappa0_methods():
    # dilating the first recurrence coefficient of the Chebyshev family
    # lifts the residual bound above 1; the method type must carry such
    # methods through evaluation and iteration unchanged
    dilated = MethodSpec(
        name="dilated",
        steps=recurrence_steps(lambda k: -0.5 if k == 0 else 0.0,
                               lambda k: 0.55 if k == 1 else 0.25),
        kappa0=1.5,
        kappa2=2.0,
        kappa_mu=lambda mu: 2.0,
        qualification=2.0,
    )
    lam = np.linspace(0.0, 1.0, 801)
    prof = residual_profile(dilated, 120, lam)
    assert np.max(np.abs(prof[:, 0] - 1.0)) <= 1e-12  # still r_k(0) = 1
    peak = np.max(np.abs(prof))
    assert 1.0 < peak <= dilated.kappa0 + 1e-10
    # and the two-step iteration still matches its spectral filter
    op = DiagonalOperator([0.8, -0.2, 0.05])
    rhs = CoeffVec([1.0, 1.0, 1.0])
    state = init_state(op, rhs, dilated)
    for _ in range(20):
        state = step(state, op, rhs, dilated)
    sigma = np.array([0.8, -0.2, 0.05])
    predicted = filter_value(dilated, state.k + 1, sigma ** 2) * sigma * rhs.coeffs
    assert norm(state.x_curr - CoeffVec(predicted)) <= 1e-9 * np.linalg.norm(predicted)
