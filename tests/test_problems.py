import functools
import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_legendre

from semicross import problems
from semicross.coeffs import CoeffVec
from semicross.hypercross import assemble
from semicross.problems import (
    PROBLEM_IDS,
    NoisyData,
    get_problem,
    green_operator,
    perturb,
)

from helpers import (BandSource, BlockSource, block_sumsq, clear_draws, green_spectrum,
                     monomial_sine_coeffs, norm, smoothness_envelope)

SQRT2 = math.sqrt(2.0)
#: operator scaling pi^2 and the unit-norm factors 1/||f|| of the shipped pairs
SCALING = math.pi ** 2
UNIT_FACTOR = {"p1": math.sqrt(12012.0) / (3.0 * math.pi ** 2),
               "p2": math.sqrt(7560.0) / math.pi ** 2}


def _pair(pid, dim, scaled=True, normalize=True):
    """Coefficients 1..dim of (right-hand side, exact solution)."""
    prob = get_problem(pid, scaled, normalize)
    return prob.rhs(dim), prob.exact(dim)


# ---------------------------------------------------------------------------
# operator
# ---------------------------------------------------------------------------

def _entry(src, i, j):
    """The entry at (i, j), from a one-pair block query."""
    _, _, vals = src.entry_block(i - 1, i, j - 1, j)
    return float(vals[0]) if vals.size else 0.0


def test_scaled_entries():
    src = green_operator(scaled=True)
    assert _entry(src, 1, 1) == -1.0
    assert _entry(src, 2, 3) == 0.0
    assert _entry(src, 4, 4) == pytest.approx(-1.0 / 16.0, rel=1e-15)
    assert src.eval_count == 3


def test_unscaled_entries():
    src = green_operator(scaled=False)
    assert _entry(src, 1, 1) == pytest.approx(-1.0 / math.pi ** 2, rel=1e-15)


def test_projection_tail_bound():
    kk = np.arange(1, 2 ** 12 + 2)
    lam = np.abs(green_spectrum(kk.size))
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
    f, x = _pair(pid, dim)
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
    f, x = _pair(pid, dim, scaled=scaled)
    lam = green_spectrum(dim, scaled)
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
    f, x = _pair("p1", 299)
    sol = UNIT_FACTOR["p1"] * monomial_sine_coeffs(
        {1: -18.0, 2: 108.0, 3: -180.0, 4: 90.0}, kk)
    rhs = SCALING * UNIT_FACTOR["p1"] * monomial_sine_coeffs(
        {3: -3.0, 4: 9.0, 5: -9.0, 6: 3.0}, kk)  # -3 t^3 (1-t)^3
    assert np.allclose(x.coeffs, sol, rtol=1e-10, atol=1e-13)
    assert np.allclose(f.coeffs, rhs, rtol=1e-10, atol=1e-13)


def test_symmetry_kills_alternate_coefficients():
    f1, x1 = _pair("p1", 1000)
    assert np.all(f1.coeffs[1::2] == 0.0)   # even k vanish
    assert np.all(x1.coeffs[1::2] == 0.0)
    f2, x2 = _pair("p2", 1000)
    assert np.all(f2.coeffs[0::2] == 0.0)   # odd k vanish
    assert np.all(x2.coeffs[0::2] == 0.0)


def _full_index_coeffs(pid, dim, scaled, normalize, rhs):
    """The closed forms evaluated at every k = 1..dim, zeros included; each
    odd power of a is a (a^2) (a^2) ..., multiplied from the left, as the
    problems compute it."""
    kk = np.arange(1, dim + 1, dtype=np.int64)
    a = np.pi * kk.astype(float)
    a2 = a * a
    sgn = np.where(kk % 2 == 0, 1.0, -1.0)
    cos = np.choose(kk % 4, [1.0, 0.0, -1.0, 0.0])
    if pid == "p1" and rhs:
        v = -3.0 * SQRT2 * (1.0 - sgn) * (720.0 - 72.0 * a2) / (a * a2 * a2 * a2)
    elif pid == "p1":
        v = -3.0 * SQRT2 * (1.0 - sgn) * (72.0 * a2 - 720.0) / (a * a2 * a2)
    elif rhs:
        v = 2.0 * SQRT2 * cos / (a * a2)
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
                f, x = _pair(pid, dim, scaled, normalize)
                for got, rhs in ((f, True), (x, False)):
                    want = _full_index_coeffs(pid, dim, scaled, normalize, rhs)
                    assert np.array_equal(got.coeffs, want)


def test_coefficient_ranges_concatenate_to_the_full_range():
    # the driver grows its kept heads by evaluating only the new range
    cuts = [0, 1, 2, 7, 64, 999, 4096, 5001, 2 ** 16]
    for pid in PROBLEM_IDS:
        for scaled in (True, False):
            for normalize in (True, False):
                prob = get_problem(pid, scaled, normalize)
                for rhs in (True, False):
                    pieces = [prob.coeff_range(a, b, rhs)
                              for a, b in zip(cuts, cuts[1:])]
                    full = (prob.rhs if rhs else prob.exact)(cuts[-1]).coeffs
                    assert np.concatenate(pieces).tobytes() == full.tobytes()
    for start, stop in ((0, 0), (5, 5), (6, 5), (-1, 3)):
        with pytest.raises(ValueError):
            prob.coeff_range(start, stop, True)


def test_unit_normalization():
    for pid in ("p1", "p2"):
        f, _ = _pair(pid, 2 ** 18)
        assert norm(f) == pytest.approx(1.0, abs=1e-10)


def test_raw_scale_norms():
    # closed forms: ||f1|| = 3 pi^2 / sqrt(12012), ||x2|| = 1/sqrt(3)
    f1, _ = _pair("p1", 2 ** 16, normalize=False)
    assert norm(f1) == pytest.approx(3.0 * math.pi ** 2 / math.sqrt(12012.0), rel=1e-9)
    f2, x2 = _pair("p2", 2 ** 20, normalize=False)
    assert norm(f2) == pytest.approx(math.pi ** 2 / math.sqrt(7560.0), rel=1e-9)
    assert norm(x2) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-5)


def test_problem_accessors():
    prob = get_problem("p1")
    assert prob.pid == "p1"
    src = prob.fresh_source()
    assert src.eval_count == 0
    # "p1"/"p2" only: the former aliases 1 and "2" are unknown ids too
    for pid in ("p3", 1, "2"):
        with pytest.raises(ValueError, match="unknown problem id"):
            get_problem(pid)
        with pytest.raises(ValueError, match="unknown problem id"):
            problems.Problem(pid)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_perturbation_norm_is_exact():
    f, _ = _pair("p1", 4096)
    for delta in (1e-3, 0.25, 7.0):
        fd = perturb(f, delta, seed=11)
        assert norm(fd - f) == pytest.approx(delta, rel=1e-15)


def test_perturbation_determinism():
    f, _ = _pair("p2", 512)
    a = perturb(f, 0.1, seed=5)
    b = perturb(f, 0.1, seed=5)
    c = perturb(f, 0.1, seed=6)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    with pytest.raises(TypeError):  # no entropy seeding: norms are kept per seed
        perturb(f, 0.1, seed=None)


def test_chunked_normal_draws_concatenate_to_the_single_draw():
    # NoisyData draws a level's window in chunks of one generator
    full = np.random.default_rng(42).standard_normal(2 ** 18 + 4100)
    rng = np.random.default_rng(42)
    chunks = [rng.standard_normal(n) for n in (1, 3, 4096, 2 ** 18)]
    assert np.concatenate(chunks).tobytes() == full.tobytes()


@pytest.mark.parametrize("cold", [True, False])
def test_noisy_data_head_is_the_window_of_perturb(cold):
    # with every index a row, the window is the head of perturb's f_delta,
    # zero past f.dim, and nothing is left off the rows
    f, _ = _pair("p2", 5000)
    clear_draws()
    full = perturb(f, 0.1, seed=3).coeffs  # leaves the seed's norm kept
    if cold:
        clear_draws()
    data = NoisyData(lambda lo, hi: f.coeffs[lo:hi], f.dim, 0.1, seed=3)
    for d in (1, 3, 4, 1024, 4096, 5000, 6000):
        expect = np.zeros(d)
        expect[:min(d, f.dim)] = full[:d]
        got, off2 = data.window(d, np.arange(d))
        assert got.tobytes() == expect.tobytes(), d
        assert off2 == 0.0, d


@pytest.mark.parametrize("pid", PROBLEM_IDS)
@pytest.mark.parametrize("dim", [1, 7, 1000, 8193])
@pytest.mark.parametrize("seed", [0, 5])
def test_perturb_is_the_window_with_every_index_a_row(pid, dim, seed):
    # perturb draws f_delta in one piece; NoisyData draws the same bytes
    # in chunks around its rows
    f, _ = _pair(pid, dim)
    data = NoisyData(lambda lo, hi: f.coeffs[lo:hi], dim, 0.1, seed)
    expect = data.window(dim, np.arange(dim))[0]
    assert perturb(f, 0.1, seed).coeffs.tobytes() == expect.tobytes()


def _window_rows(kind: str, dim: int) -> np.ndarray:
    """Sorted 0-based rows in a window of ``dim`` coefficients: the leading
    block of the shipped diagonal operator, every 7th coefficient (rows
    right before leaf ends), or the scattered nonzero rows of a helper
    source at the highest level (up to 6) that fits."""
    if kind == "diagonal":
        return np.arange(math.isqrt(dim))
    if kind == "strided":
        return np.arange(3, dim, 7)
    n = min((dim.bit_length() - 1) // 2, 6)
    source = BandSource() if kind == "band" else BlockSource()
    return assemble(source, n).block()[0]


@pytest.mark.parametrize("dim,noise_dim", [
    (64, 2 ** 14),          # the window fits in one leaf
    (5003, 2 ** 14),        # lengths that are no multiple of 8
    (4 ** 8, 2 ** 14),      # many leaves, the window inside noise_dim
    (4 ** 7, 3000),         # the window runs past noise_dim
    (4 ** 7, 8256),         # a second leaf of 64 entries, cut at noise_dim
    (4 ** 7, 8257),         # ... and of 65
    (3001, 3000),           # one entry past noise_dim
    (4 ** 10, 1_000_003),   # 2^20 coefficients, 48573 past noise_dim
])
@pytest.mark.parametrize("kind", ["diagonal", "strided", "band", "block"])
def test_window_is_the_pair_of_the_full_window(kind, dim, noise_dim, monkeypatch):
    # the streamed pair is, bit for bit, what the full window gives: its
    # entries at the rows and the block-order sum of squares of the window
    # up to noise_dim with the rows zeroed. Each coefficient below noise_dim
    # is drawn once, in ascending chunks of at most one leaf, and none past
    # noise_dim is
    rows = _window_rows(kind, dim)
    assert rows.size and rows[-1] < dim
    f = get_problem("p1").rhs(noise_dim)
    g = np.random.default_rng(7).standard_normal(noise_dim)
    full = np.zeros(dim)
    live = min(dim, noise_dim)
    full[:live] = (0.25 / math.sqrt(block_sumsq(g, problems._LEAF)) * g + f.coeffs)[:live]
    real, sizes = np.random.default_rng, []

    class CountingRng:
        def __init__(self, seed):
            self.rng = real(seed)
            self.bit_generator = self.rng.bit_generator

        def standard_normal(self, size):
            sizes.append(size)
            return self.rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    data = NoisyData(lambda lo, hi: f.coeffs[lo:hi], noise_dim, 0.25, seed=7)
    sizes.clear()  # a cold noise norm streams its own draw
    gc.collect()
    tracemalloc.start()
    try:
        got, off2 = data.window(dim, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert gc.collect() == 0  # no reference cycle keeps a chunk alive
    assert got.tobytes() == full[rows].tobytes()
    full[rows] = 0.0
    assert off2.hex() == block_sumsq(full[:live], problems._LEAF).hex()
    assert sum(sizes) == live and min(sizes) > 0
    assert max(sizes) <= problems._LEAF
    assert peak < 4 * (problems._LEAF + rows.size) * 8, peak


@pytest.mark.parametrize("dim", [2 ** 20, 1_000_003, 3000])
@pytest.mark.parametrize("seed", [0, 9001])
def test_streamed_noise_norm_is_the_norm_of_the_full_draw(seed, dim):
    clear_draws()
    data = NoisyData(lambda lo, hi: np.zeros(hi - lo), dim, 1.0, seed)
    g = np.random.default_rng(seed).standard_normal(dim)
    g_norm = math.sqrt(block_sumsq(g, problems._LEAF))
    assert problems._noise_norm(seed, dim).hex() == g_norm.hex()
    assert data.scale.hex() == (1.0 / g_norm).hex()


def _additions(n: int, first: int) -> int:
    """The most rounded additions a square passes through in the block order
    of ``problems._block_sumsq`` at length ``n`` and first block ``first``,
    before the blocks' math.fsum: np.sum promises no order, so a leaf of m
    squares is charged m - 1 additions, and a block of L leaves adds their
    sums one after another to 0.0, L - 1 more (0.0 plus the first is exact)."""
    d, lo, hi = 0, 0, min(first, n)
    while lo < n:
        leaves = -(-(hi - lo) // problems._LEAF)
        d = max(d, min(hi - lo, problems._LEAF) - 1 + leaves - 1)
        lo, hi = hi, min(2 * hi, n)
    return d


def _gamma(k: int) -> float:
    u = 2.0 ** -53
    return k * u / (1 - k * u)


@pytest.mark.parametrize("dim", [7, 129, 3000, 1_000_003, 2 ** 20])
def test_streamed_sums_are_within_their_error_bound_of_fsum(dim):
    # A streamed sum S' adds the rounded squares t_i = fl(v_i^2) that
    # F = math.fsum(v * v) adds exactly and rounds once, F = S (1 + e),
    # |e| <= u = 2^-53, with S the exact sum of the t_i. A term passes
    # through at most d = _additions(n, first) rounded additions before the
    # blocks' math.fsum, which rounds their exact sum once, so
    # S' = sum t_i (1 + theta_i), |theta_i| <= gamma_{d+1}, gamma_k =
    # k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    # Algorithms, Lemma 3.1). The t_i are nonnegative, hence
    # |S' - S| <= gamma_{d+1} S and
    # |S' - F| <= (gamma_{d+1} + u) S <= gamma_{d+2} F / (1 - u) <= gamma_{d+3} F.
    # A norm is the correctly rounded root of such a sum: sqrt(1 + x) lies
    # within 1 +- |x|, and the two roots round once each, so a norm lies
    # within (gamma_{d+3} + 4u) of fl(sqrt F).
    u = 2.0 ** -53

    def within(got, squares, first, root=False):
        bound = _gamma(_additions(squares.size, first) + 3)
        want = math.fsum(squares)
        if root:
            want, bound = math.sqrt(want), bound + 4 * u
        assert abs(got - want) <= bound * want, (got, want, bound)

    g = np.random.default_rng(dim).standard_normal(dim)
    within(problems._noise_norm(dim, dim), g * g, problems._LEAF, root=True)
    rows = np.arange(0, dim, 3)
    for pid in PROBLEM_IDS:
        problem = get_problem(pid)
        for rhs in (True, False):
            c = problem.coeff_range(0, dim, rhs)
            within(math.fsum(problems._sumsq(problem, rhs, dim)), c * c, problems._HEAD)
        f = problem.rhs(dim)
        data = NoisyData(lambda lo, hi: f.coeffs[lo:hi], dim, 0.25, seed=dim)
        off = perturb(f, 0.25, seed=dim).coeffs.copy()
        off[rows] = 0.0
        within(data.window(dim, rows)[1], off * off, problems._LEAF)
        cols = np.arange(min(dim, 64))
        x = np.random.default_rng(1).standard_normal(cols.size)
        exact = problem.exact(dim).coeffs
        diff = -exact
        diff[cols] += x
        error, exact_norm = problems._error_norms(problem, cols, x, dim)
        within(error, diff * diff, problems._HEAD, root=True)
        within(exact_norm, exact * exact, problems._HEAD, root=True)


def _dispatched_features() -> list:
    """The CPU features the running numpy picks code for at run time (its
    baseline ones cannot be turned off)."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return list(_multiarray_umath.__cpu_dispatch__)


def _streamed_bits() -> list:
    """Digests of the four closed forms, a noise norm, a window's off2 and
    the error norms, at a dimension that is no power of two."""
    dim, rows = 2 ** 16 + 3, np.arange(5, 2 ** 16, 7)
    bits = []
    for pid in PROBLEM_IDS:
        problem = get_problem(pid)
        bits += [problem.coeff_range(0, dim, rhs).tobytes() for rhs in (True, False)]
        rhs = functools.partial(problem.coeff_range, rhs=True)
        bits.append(np.float64(NoisyData(rhs, dim, 0.1, 5).window(dim, rows)[1]).tobytes())
        x = np.random.default_rng(2).standard_normal(rows.size)
        bits.append(np.array(problems._error_norms(problem, rows, x, dim)).tobytes())
    bits.append(np.float64(problems._noise_norm(5, dim)).tobytes())
    return [hashlib.sha256(b).hexdigest()[:16] for b in bits]


def test_streamed_sums_do_not_depend_on_numpys_cpu_dispatch():
    # numpy picks some loops per CPU (np.power took AVX-512 code at odd
    # exponents); with every dispatched feature off, as on an older CPU, a
    # new process computes the same bits
    features = _dispatched_features()
    if not features:
        pytest.skip("this numpy dispatches no CPU features")
    tests = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import test_problems as t; print(*t._streamed_bits(), sep='\\n')"],
        check=True, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=",".join(features),
                 PYTHONPATH=os.pathsep.join(
                     [os.path.join(os.path.dirname(tests), "src"), tests])))
    assert out.stdout.split() == _streamed_bits()


def test_kept_windows_stay_within_their_bound():
    # 64 runs' data are kept, each with the windows its runs drew: the 65th
    # evicts the first, and its windows with it
    problems._noisy_data.cache_clear()
    rows = np.arange(2 ** 4)
    kept = [problems._noisy_data(get_problem("p1"), 2 ** 12, 0.1, seed)[0]
            for seed in range(65)]
    windows = [data.window(2 ** 8, rows)[0] for data in kept]
    assert problems._noisy_data.cache_info().currsize == 64
    for seed in range(64, 0, -1):
        data = problems._noisy_data(get_problem("p1"), 2 ** 12, 0.1, seed)[0]
        assert data is kept[seed] and data.window(2 ** 8, rows)[0] is windows[seed]
    first = problems._noisy_data(get_problem("p1"), 2 ** 12, 0.1, 0)[0]
    assert first is not kept[0] and first.window(2 ** 8, rows)[0] is not windows[0]
    problems._noisy_data.cache_clear()
    assert problems._noisy_data.cache_info().currsize == 0


def test_a_kept_window_is_read_only_and_equals_a_fresh_draw():
    problems._noisy_data.cache_clear()
    problem, rows = get_problem("p2"), np.arange(1, 2 ** 10, 3)
    f_r, off2 = problems._noisy_data(problem, 5000, 0.01, 7)[0].window(2 ** 12, rows)
    again = problems._noisy_data(problem, 5000, 0.01, 7)[0].window(2 ** 12, rows)
    assert again[0] is f_r and again[1] == off2
    assert not f_r.flags.writeable
    # data built directly keeps its own windows, read-only too
    rhs = functools.partial(problem.coeff_range, rhs=True)
    data = NoisyData(rhs, 5000, 0.01, 7)
    fresh = data.window(2 ** 12, rows)
    assert data.window(2 ** 12, rows)[0] is fresh[0] is not f_r
    assert not fresh[0].flags.writeable
    assert fresh[0].tobytes() == f_r.tobytes() and fresh[1] == off2 > 0.0
    # each of the data's key and the window's dim and rows makes its own window
    for dim, delta, seed, at, size in (
            (5000, 0.02, 7, rows, 2 ** 12), (5000, 0.01, 8, rows, 2 ** 12),
            (4999, 0.01, 7, rows, 2 ** 12), (5000, 0.01, 7, rows[1:], 2 ** 12),
            (5000, 0.01, 7, rows, 2 ** 11)):
        data = problems._noisy_data(problem, dim, delta, seed)[0]
        assert data.window(size, at)[0] is not f_r
    assert problems._noisy_data.cache_info().currsize == 4


def test_zero_delta_returns_data_unchanged():
    f, _ = _pair("p1", 64)
    assert perturb(f, 0.0, seed=1) is f
    with pytest.raises(ValueError):
        perturb(f, -0.5, seed=1)
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        NoisyData(lambda lo, hi: f.coeffs[lo:hi], f.dim, -0.5, seed=1)


# ---------------------------------------------------------------------------
# source condition diagnostics
# ---------------------------------------------------------------------------

def test_envelope_round_trip():
    mu = 0.7
    lam = np.abs(green_spectrum(64))
    v = np.zeros(64)
    v[20] = 1.0
    x = CoeffVec(lam ** mu * v)
    assert smoothness_envelope(x, lam, mu) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("pid,mu_ok,mu_bad", [("p1", 1.2, 1.3), ("p2", 0.2, 0.3)])
def test_envelope_growth_trend(pid, mu_ok, mu_bad):
    dims = [2 ** 8, 2 ** 12, 2 ** 16]
    lam = green_spectrum(dims[-1])
    env_ok = []
    env_bad = []
    for d in dims:
        _, x = _pair(pid, d)
        env_ok.append(smoothness_envelope(x, lam, mu_ok))
        env_bad.append(smoothness_envelope(x, lam, mu_bad))
    # inside the smoothness range the envelope saturates...
    assert env_ok[2] / env_ok[1] < 1.15
    # ...beyond it, it keeps growing by sizable factors
    assert env_bad[1] / env_bad[0] > 1.3
    assert env_bad[2] / env_bad[1] > 1.3

