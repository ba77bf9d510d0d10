import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from semicross.coeffs import CoeffVec, norm
from semicross.problems import (
    PROBLEM_IDS,
    get_problem,
    green_operator,
    perturb,
    problem_coeffs,
    smoothness_envelope,
)

from helpers import monomial_sine_coeffs

SQRT2 = math.sqrt(2.0)
#: operator scaling pi^2 and the unit-norm factors 1/||f|| of the shipped pairs
SCALING = math.pi ** 2
UNIT_FACTOR = {"p1": math.sqrt(12012.0) / (3.0 * math.pi ** 2),
               "p2": math.sqrt(7560.0) / math.pi ** 2}


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

def test_scaled_entries():
    src = green_operator(dim=16, scaled=True)
    assert src.entry(1, 1) == -1.0
    assert src.entry(2, 3) == 0.0
    assert src.entry(4, 4) == pytest.approx(-1.0 / 16.0, rel=1e-15)


def test_unscaled_entries():
    src = green_operator(dim=16, scaled=False)
    assert src.entry(1, 1) == pytest.approx(-1.0 / math.pi ** 2, rel=1e-15)


def test_projection_tail_bound():
    src = green_operator(dim=1, scaled=True)
    kk = np.arange(1, 2 ** 12 + 2)
    lam = np.abs(src.diagonal(kk))
    for m in (1, 2, 7, 64, 1000, 2 ** 12):
        tail = np.max(lam[m:]) if m < kk.size else lam[-1]
        assert tail == 1.0 / (m + 1) ** 2
        assert tail <= 1.0 / m ** 2


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def _quad_sine_coeff(fn, k: int) -> float:
    """Independent oracle: composite Gauss-Legendre quadrature of
    fn(t) sqrt(2) sin(pi k t), 64 points per panel, panels refined with k."""
    panels = max(64, k // 4)
    xg, wg = roots_legendre(64)
    edges = np.linspace(0.0, 1.0, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * wg
        total += float(np.sum(w * fn(t) * SQRT2 * np.sin(np.pi * k * t)))
    return total


def _printed_rhs_1(t):
    return -3.0 * t ** 3 * (1 - t) ** 3


def _printed_solution_1(t):
    return 18.0 * t * (5 * t ** 3 - 10 * t ** 2 + 6 * t - 1)


def _printed_rhs_2(t):
    return t ** 3 / 3.0 - np.maximum(0.0, t - 0.5) ** 2 - t / 12.0


def _printed_solution_2(t):
    return 2.0 * t - np.sign(2.0 * t - 1.0) - 1.0


@pytest.mark.parametrize("pid,rhs_fn,sol_fn", [
    ("p1", _printed_rhs_1, _printed_solution_1),
    ("p2", _printed_rhs_2, _printed_solution_2),
])
def test_closed_forms_match_quadrature(pid, rhs_fn, sol_fn):
    dim = 4096
    f, x = problem_coeffs(pid, dim)
    # the shipped pair carries the operator scaling and the unit-norm factor
    scale = SCALING * UNIT_FACTOR[pid]
    for k in (1, 2, 3, 4, 5, 8, 33, 100, 512, 4096):
        assert f.coeffs[k - 1] == pytest.approx(
            scale * _quad_sine_coeff(rhs_fn, k), abs=1e-10)
        assert x.coeffs[k - 1] == pytest.approx(
            UNIT_FACTOR[pid] * _quad_sine_coeff(sol_fn, k), abs=1e-10)


@pytest.mark.parametrize("pid", ["p1", "p2"])
@pytest.mark.parametrize("scaled", [True, False])
def test_pair_is_spectrally_consistent(pid, scaled):
    dim = 4096
    f, x = problem_coeffs(pid, dim, scaled=scaled)
    src = green_operator(dim, scaled=scaled)
    lam = src.diagonal(np.arange(1, dim + 1))
    lhs = f.coeffs
    rhs = lam * x.coeffs
    both = (np.abs(lhs) > 1e-300) & (np.abs(rhs) > 1e-300)
    assert np.all(np.abs(lhs[both] - rhs[both]) <= 1e-12 * np.abs(rhs[both]))
    # excluded components are symmetry zeros up to cancellation dust
    assert np.max(np.abs(lhs[~both])) <= 1e-12
    assert np.max(np.abs(rhs[~both])) <= 1e-12


def test_p1_closed_forms_match_monomial_recurrence():
    # the recurrence oracle is reliable up to a few hundred k
    kk = np.arange(1, 300)
    f, x = problem_coeffs("p1", 299)
    sol = UNIT_FACTOR["p1"] * monomial_sine_coeffs(
        {1: -18.0, 2: 108.0, 3: -180.0, 4: 90.0}, kk)
    rhs = SCALING * UNIT_FACTOR["p1"] * monomial_sine_coeffs(
        {3: -3.0, 4: 9.0, 5: -9.0, 6: 3.0}, kk)  # -3 t^3 (1-t)^3
    assert np.allclose(x.coeffs, sol, rtol=1e-10, atol=1e-13)
    assert np.allclose(f.coeffs, rhs, rtol=1e-10, atol=1e-13)


def test_symmetry_kills_alternate_coefficients():
    f1, x1 = problem_coeffs("p1", 1000)
    assert np.all(f1.coeffs[1::2] == 0.0)   # even k vanish
    assert np.all(x1.coeffs[1::2] == 0.0)
    f2, x2 = problem_coeffs("p2", 1000)
    assert np.all(f2.coeffs[0::2] == 0.0)   # odd k vanish
    assert np.all(x2.coeffs[0::2] == 0.0)


def _full_index_coeffs(pid, dim, scaled, normalize, rhs):
    """The closed forms evaluated at every k = 1..dim, zeros included."""
    kk = np.arange(1, dim + 1, dtype=np.int64)
    a = np.pi * kk.astype(float)
    sgn = np.where(kk % 2 == 0, 1.0, -1.0)
    cos = np.choose(kk % 4, [1.0, 0.0, -1.0, 0.0])
    if pid == "p1" and rhs:
        v = -3.0 * SQRT2 * (1.0 - sgn) * (720.0 - 72.0 * a ** 2) / a ** 7
    elif pid == "p1":
        v = -3.0 * SQRT2 * (1.0 - sgn) * (72.0 * a ** 2 - 720.0) / a ** 5
    elif rhs:
        v = 2.0 * SQRT2 * cos / a ** 3
    else:
        v = -2.0 * SQRT2 * cos / a
    if rhs and scaled:
        v = v * np.pi ** 2
    if normalize:
        v = v * (UNIT_FACTOR[pid] if scaled else UNIT_FACTOR[pid] * np.pi ** 2)
    return v


@pytest.mark.parametrize("dim", [1, 2, 3, 999, 2 ** 16])
def test_nonzero_parity_evaluation_is_bit_identical(dim):
    # evaluating only the nonzero parity keeps every coefficient's bits
    for pid in PROBLEM_IDS:
        for scaled in (True, False):
            for normalize in (True, False):
                f, x = problem_coeffs(pid, dim, scaled, normalize)
                for got, rhs in ((f, True), (x, False)):
                    want = _full_index_coeffs(pid, dim, scaled, normalize, rhs)
                    assert np.array_equal(got.coeffs, want)


def test_unit_normalization():
    for pid in ("p1", "p2"):
        f, _ = problem_coeffs(pid, 2 ** 18)
        assert norm(f) == pytest.approx(1.0, abs=1e-10)


def test_raw_scale_norms():
    # closed forms: ||f1|| = 3 pi^2 / sqrt(12012), ||x2|| = 1/sqrt(3)
    f1, _ = problem_coeffs("p1", 2 ** 16, normalize=False)
    assert norm(f1) == pytest.approx(3.0 * math.pi ** 2 / math.sqrt(12012.0), rel=1e-9)
    f2, x2 = problem_coeffs("p2", 2 ** 20, normalize=False)
    assert norm(f2) == pytest.approx(math.pi ** 2 / math.sqrt(7560.0), rel=1e-9)
    assert norm(x2) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-5)


def test_problem_accessors():
    prob = get_problem(1)
    assert prob.pid == "p1"
    assert prob.r == 2.0
    src = prob.fresh_source()
    assert src.eval_count == 0
    with pytest.raises(ValueError):
        get_problem("p3")
    # rhs/exact compute one closed form each, bit-identical to the pair
    for pid in PROBLEM_IDS:
        for scaled in (True, False):
            for normalize in (True, False):
                prob = get_problem(pid, scaled=scaled, normalize=normalize)
                f, x = problem_coeffs(pid, 999, scaled, normalize)
                assert np.array_equal(prob.rhs(999).coeffs, f.coeffs)
                assert np.array_equal(prob.exact(999).coeffs, x.coeffs)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_perturbation_norm_is_exact():
    f, _ = problem_coeffs("p1", 4096)
    for delta in (1e-3, 0.25, 7.0):
        fd = perturb(f, delta, seed=11)
        assert norm(fd - f) == pytest.approx(delta, rel=1e-15)


def test_perturbation_determinism():
    f, _ = problem_coeffs("p2", 512)
    a = perturb(f, 0.1, seed=5)
    b = perturb(f, 0.1, seed=5)
    c = perturb(f, 0.1, seed=6)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_zero_delta_returns_data_unchanged():
    f, _ = problem_coeffs("p1", 64)
    assert perturb(f, 0.0, seed=1) is f
    with pytest.raises(ValueError):
        perturb(f, -0.5, seed=1)


# ---------------------------------------------------------------------------
# source condition diagnostics
# ---------------------------------------------------------------------------

def test_envelope_round_trip():
    src = green_operator(64, scaled=True)
    mu = 0.7
    lam = np.abs(src.diagonal(np.arange(1, 65)))
    v = np.zeros(64)
    v[20] = 1.0
    x = CoeffVec(lam ** mu * v)
    assert smoothness_envelope(x, src, mu) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("pid,mu_ok,mu_bad", [("p1", 1.2, 1.3), ("p2", 0.2, 0.3)])
def test_envelope_growth_trend(pid, mu_ok, mu_bad):
    dims = [2 ** 8, 2 ** 12, 2 ** 16]
    src = green_operator(dims[-1], scaled=True)
    env_ok = []
    env_bad = []
    for d in dims:
        _, x = problem_coeffs(pid, d)
        env_ok.append(smoothness_envelope(x, src, mu_ok))
        env_bad.append(smoothness_envelope(x, src, mu_bad))
    # inside the smoothness range the envelope saturates...
    assert env_ok[2] / env_ok[1] < 1.15
    # ...beyond it, it keeps growing by sizable factors
    assert env_bad[1] / env_bad[0] > 1.3
    assert env_bad[2] / env_bad[1] > 1.3

