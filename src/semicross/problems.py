"""The shipped test equation: a Green-kernel integral operator on [0, 1] in
its sine eigenbasis, two right-hand sides with known exact solutions, and
exact-norm noise generation.

Operator. The kernel k(s,t) = t(s-1) for t < s, s(t-1) for s <= t is the
Green's function of w'' = x with w(0) = w(1) = 0; the operator is
self-adjoint and diagonal in the basis e_k(t) = sqrt(2) sin(pi k t) with
eigenvalues -(pi k)^{-2}. The default normalization multiplies both sides
of A x = f by pi^2, so the spectrum becomes -k^{-2}, the operator norm is 1
and the projection tails obey ||(I - P_m) A|| = (m+1)^{-2} <= m^{-2}
(smoothness class exponent r = 2).

Problems. "p1" has the quartic exact solution 18 t (5t^3 - 10t^2 + 6t - 1);
pushed through the operator this yields the right-hand side -3 t^3 (1-t)^3
(the quartic is -3 times the second derivative of t^3(1-t)^3, so the pair
(t^3(1-t)^3, quartic) would NOT solve the equation; the factor -3 restores
consistency). "p2" pairs f(t) = t^3/3 - max(0, t-1/2)^2 - t/12 with the
jump solution 2t - sign(2t - 1) - 1, an exactly consistent pair. The p1
solution satisfies the source condition for smoothness exponents mu < 1.25,
the p2 solution for mu < 0.25.

Scale convention. By default each right-hand side is normalized to unit
norm (exact solution scaled by the same factor), so a noise level delta
doubles as the relative data error; the closed-form factors are
sqrt(12012)/(3 pi^2) for p1 and sqrt(7560)/pi^2 for p2. Pass
``normalize=False`` for the raw function scale.

Closed forms. Sine coefficients c_k = integral of g(t) sqrt(2) sin(pi k t)
are computed from per-monomial antiderivative reductions carried out in
closed form (p1) and per-piece antiderivatives (p2):

    p1:  c_k(x)  = -3 sqrt(2) (1 - (-1)^k) (72 a^2 - 720)/a^5,   a = pi k,
         c_k(f)  = lambda_k c_k(x),
    p2:  c_k(x)  = -2 sqrt(2) cos(pi k / 2)/a,
         c_k(f)  =  2 sqrt(2) cos(pi k / 2)/a^3,

with cos(pi k / 2) evaluated exactly from k mod 4. Even-k coefficients
vanish for p1 (symmetry about t = 1/2), odd-k ones for p2 (antisymmetry);
the closed forms are evaluated on the nonzero parity only, over any index
range (``Problem.coeff_range``).

Kept values. What a process keeps between runs lives here, each value
behind a bounded ``functools.lru_cache`` function reset by ``cache_clear()``:
the noise norm per (seed, dim), the right-hand side's head per problem (up
to the longest window read) and each closed form's ``_pairwise_sumsq`` per
(problem, rhs, dim). A serial ``cli.run_grid`` draws noise norms in threads
and in the calling thread, which reads them all. A level streams its window
to f_delta on the operator's nonzero rows and the energy off them; no
exact-solution coefficient outlives the run that reads it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffVec
from .hypercross import DiagonalSource

__all__ = [
    "green_operator",
    "perturb",
    "NoisyData",
    "Problem",
    "get_problem",
    "PROBLEM_IDS",
]

_SQRT2 = math.sqrt(2.0)
PROBLEM_IDS = ("p1", "p2")

#: exact closed forms of 1/||f|| in the pi^2-scaled geometry
_UNIT_FACTOR = {
    "p1": math.sqrt(12012.0) / (3.0 * math.pi ** 2),
    "p2": math.sqrt(7560.0) / math.pi ** 2,
}


def _eigenvalues(kk: np.ndarray, scaled: bool) -> np.ndarray:
    if scaled:  # pi^2 * -(pi k)^{-2}, written directly for exactness
        return -1.0 / kk.astype(float) ** 2
    return -1.0 / (np.pi * kk.astype(float)) ** 2


def green_operator(dim: int, scaled: bool = True) -> DiagonalSource:
    """Information source of the Green-kernel operator: diagonal entries
    -(pi k)^{-2}, times pi^2 when ``scaled`` (the default), off-diagonal
    entries exactly zero.

    ``dim`` declares the intended ambient truncation (kept as a hint on the
    source); entries are defined for every index.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return DiagonalSource(
        lambda kk, s=scaled: _eigenvalues(kk, s), dim_hint=int(dim)
    )


def _cos_half_pi(kk: np.ndarray) -> np.ndarray:
    """cos(pi k / 2) exactly for even k: 1, -1 cycling with k mod 4 (bit 1
    of k, which is cheaper to read than k mod 4)."""
    return np.where((kk & 2) == 0, 1.0, -1.0)


def _exact_solution_coeffs(pid: str, kk: np.ndarray) -> np.ndarray:
    # the per-monomial antiderivative reduction of the quartic collapses to
    # this cancellation-free form (the 1/a and 1/a^3 terms drop out because
    # the function and its second derivative vanish at both endpoints);
    # summing the monomial integrals numerically instead loses ~8 digits of
    # relative accuracy at k ~ 4000
    a = np.pi * kk.astype(float)
    if pid == "p1":
        return -3.0 * _SQRT2 * 2.0 * (72.0 * a ** 2 - 720.0) / a ** 5
    return -2.0 * _SQRT2 * _cos_half_pi(kk) / a


def _rhs_coeffs(pid: str, kk: np.ndarray, scaled: bool) -> np.ndarray:
    a = np.pi * kk.astype(float)
    if pid == "p1":
        # closed form of -3 t^3 (1-t)^3; cross-validated against
        # lambda_k * solution coefficients
        raw = -3.0 * _SQRT2 * 2.0 * (720.0 - 72.0 * a ** 2) / a ** 7
    else:
        raw = 2.0 * _SQRT2 * _cos_half_pi(kk) / a ** 3
    return raw * np.pi ** 2 if scaled else raw


#: leaves of at most 2^13 float64 entries (64 KiB) stay below glibc's
#: default mmap threshold of 128 KiB, so a streamed sum faults no fresh pages
_LEAF = 2 ** 13


def _pairwise_sumsq(n: int, leaf, nonzero: float = math.inf, chain_to: int = 128):
    """np.sum(v * v) of a float64 array v of length ``n`` that is never
    held: ``leaf(lo, hi)`` returns v[lo:hi] and is called on consecutive
    segments of at most ``_LEAF`` entries in ascending order; v[nonzero:] is
    zero, and no subtree that starts there is asked for (each adds +0.0).

    Above 128 entries numpy sums a contiguous float64 array as
    ``sum(a[:m]) + sum(a[m:n])`` with m = n//2 rounded down to a multiple of
    8 (pairwise summation). The segments follow that tree, so the total is
    the same float. Returns ``(total, chain)`` where the chain ((m_1, s_1),
    (m_2, s_2), ...) walks the leftmost path of the tree, outermost first,
    down to ``chain_to`` entries: s_i is the sum over [m_i, m_{i-1}) (m_0 =
    n), and np.sum(v * v) is np.sum(v[:m_j] ** 2) + s_j + ... + s_1, added
    in that order.
    """
    chain = []

    def part(lo: int, hi: int):
        if lo >= nonzero:
            return 0.0
        if hi - lo > _LEAF or (lo == 0 and hi > chain_to):
            mid = lo + (hi - lo) // 2 - (hi - lo) // 2 % 8
            head, tail = part(lo, mid), part(mid, hi)
            if lo == 0:
                chain.append((mid, tail))
            return head + tail
        v = leaf(lo, hi)
        return np.sum(v * v)

    total = part(0, n)
    del part  # the recursive closure is a cycle that would keep ``leaf``
    return total, tuple(reversed(chain))


class _Head:
    """The first entries of a sequence, grown on demand: ``fill(lo, hi)``
    returns entries lo..hi-1 as a new array, and a growth asks it for the
    new range only. Calling the head with d returns entries 0..d-1,
    read-only."""

    def __init__(self, fill):
        self.fill = fill
        self.v = np.empty(0)

    def __call__(self, d: int) -> np.ndarray:
        if self.v.size < d:
            self.v = np.concatenate([self.v, self.fill(self.v.size, d)])
            self.v.flags.writeable = False
        return self.v[:d]


@functools.lru_cache(maxsize=1024)
def _noise_norm(seed: int, dim: int) -> np.float64:
    """||g|| of the noise draw of ``seed`` at ``dim``, streamed from a
    generator of its own; floats only, so the bound is generous: it covers
    every noise realization of a large sweep."""
    draw = np.random.default_rng(seed).standard_normal
    g_norm = np.sqrt(_pairwise_sumsq(dim, lambda lo, hi: draw(hi - lo))[0])
    if g_norm == 0.0:  # pragma: no cover - essentially impossible
        raise ArithmeticError("degenerate noise draw")
    return g_norm


class NoisyData:
    """The perturbed data f_delta = f + (delta / ||g||) g, one window at a time.

    The direction g is standard normal in the span of the first ``dim``
    basis elements (basis-isotropic), drawn deterministically from
    ``seed``; ``rhs(d)`` returns coefficients 1..d of f for d <= dim. The
    norm of g depends only on (seed, dim), so it is kept per process
    (``_noise_norm``). Of the draw only the generator's start state is
    kept: each window is drawn again from it, in chunks of at most |rows| +
    ``_LEAF`` coefficients (chunked draws concatenate to the single draw).
    """

    def __init__(self, rhs, dim: int, delta: float, seed: int):
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        seed = operator.index(seed)  # a kept norm needs a reproducible draw
        self.rhs, self.dim, self._rng = rhs, dim, np.random.default_rng(seed)
        self._start = self._rng.bit_generator.state
        self.scale = delta / _noise_norm(seed, dim)

    def window(self, dim: int, rows: np.ndarray):
        """``(f_delta[rows], off2)`` on coefficients 1..dim, zero past
        ``self.dim``, at the sorted 0-based ``rows``; off2 is the float
        np.sum(np.delete(f_delta, rows) ** 2). Drawn in ascending chunks, each
        ending with a leaf of ``_pairwise_sumsq`` over the off-row entries."""
        rng, live, pos = self._rng, min(dim, self.dim), 0
        rng.bit_generator.state = self._start
        rhs, out = self.rhs(live), np.zeros(rows.size)
        before = rows - np.arange(rows.size)  # off-row entries before each row

        def draw(end: int) -> np.ndarray:
            # coefficients pos+1..end less those at rows, which go to out
            nonlocal pos
            lo, pos, stop = pos, end, min(end, live)
            v = np.zeros(end - lo)
            np.multiply(rng.standard_normal(stop - lo), self.scale, out=v[:stop - lo])
            v[:stop - lo] += rhs[lo:stop]
            i, j = rows.searchsorted((lo, end))
            out[i:j] = v[rows[i:j] - lo]
            return np.delete(v, rows[i:j] - lo) if i < j else v

        # off-row entry k is coefficient k + (rows before it) + 1
        off2, _ = _pairwise_sumsq(
            dim - rows.size,
            lambda lo, hi: draw(hi + int(before.searchsorted(hi - 1, "right"))),
            nonzero=live - int(rows.searchsorted(live)), chain_to=_LEAF)
        if pos < live:  # the rows past the last off-row entry drawn
            draw(live)
        return out, float(off2)


def perturb(f: CoeffVec, delta: float, seed: int) -> CoeffVec:
    """Add a pseudo-random perturbation of exact norm delta: the full-length
    f_delta of ``NoisyData``; delta = 0 returns f unchanged.
    """
    if delta == 0.0:
        return f
    data = NoisyData(lambda d: f.coeffs[:d], f.dim, delta, seed)
    return CoeffVec._wrap(data.window(f.dim, np.arange(f.dim))[0])


@dataclass(frozen=True)
class Problem:
    """One shipped instance of the operator equation, ``pid`` "p1" or "p2".

    The right-hand side carries the operator scaling when ``scaled``; with
    ``normalize`` both it and the exact solution are additionally scaled so
    that the right-hand side has unit norm (see the module docstring).
    """

    pid: str
    scaled: bool = True
    normalize: bool = True

    def __post_init__(self):
        if self.pid not in PROBLEM_IDS:
            raise ValueError(f"unknown problem id {self.pid!r}")

    def fresh_source(self, dim_hint: int = 1) -> DiagonalSource:
        """A new information source with a zeroed evaluation counter (one
        per run, so information accounting stays per-run)."""
        return green_operator(max(int(dim_hint), 1), scaled=self.scaled)

    def rhs(self, dim: int) -> CoeffVec:
        """Basis coefficients 1..dim of the right-hand side."""
        return CoeffVec._wrap(self.coeff_range(0, dim, rhs=True))

    def exact(self, dim: int) -> CoeffVec:
        """Basis coefficients 1..dim of the exact solution."""
        return CoeffVec._wrap(self.coeff_range(0, dim, rhs=False))

    def coeff_range(self, start: int, stop: int, rhs: bool) -> np.ndarray:
        """Basis coefficients start+1..stop of the right-hand side (``rhs``)
        or of the exact solution, as a new array. Each coefficient is a
        function of its index alone, so ranges concatenate to the longer
        range bit for bit."""
        if not 0 <= start < stop:
            raise ValueError("need 0 <= start < stop")
        pid, scaled = self.pid, self.scaled
        # the nonzero parity only: odd k for p1 (where 1 - (-1)^k is exactly
        # 2), even k for p2
        first = start + 1 + (start + (pid == "p2")) % 2
        kk = np.arange(first, stop + 1, 2, dtype=np.int64)
        v = _rhs_coeffs(pid, kk, scaled) if rhs else _exact_solution_coeffs(pid, kk)
        if self.normalize:
            v = v * (_UNIT_FACTOR[pid] if scaled else _UNIT_FACTOR[pid] * np.pi ** 2)
        out = np.zeros(stop - start)
        out[first - start - 1::2] = v
        return out


def get_problem(pid: str, scaled: bool = True,
                normalize: bool = True) -> Problem:
    return Problem(pid, scaled, normalize)


@functools.lru_cache(maxsize=8)
def _closed_form(problem: Problem) -> _Head:
    """The kept head of ``problem``'s right-hand side, grown with the
    windows the runs read; the bound holds every shipped problem variant,
    so sweeps that alternate problems evict nothing."""
    return _Head(functools.partial(problem.coeff_range, rhs=True))


@functools.lru_cache(maxsize=64)
def _sumsq(problem: Problem, rhs: bool, dim: int):
    """``_pairwise_sumsq`` of coefficients 1..dim of the right-hand side or
    exact solution: their sum of squares and its chain, kept as floats."""
    return _pairwise_sumsq(dim, functools.partial(problem.coeff_range, rhs=rhs))


def _noisy_data(problem: Problem, dim: int, delta: float, seed: int):
    """A run's ``NoisyData`` at ``dim`` and ||f||, both read from the kept
    right-hand side."""
    f_norm = float(np.sqrt(_sumsq(problem, True, dim)[0]))
    return NoisyData(_closed_form(problem), dim, delta, seed), f_norm


def _error_norms(problem: Problem, x: np.ndarray, dim: int):
    """(||x - x†||, ||x†||) over coefficients 1..dim of the exact solution
    x†, x zero-extended: the floats of the np.sum norms of the full-length
    arrays. Past x the difference is -x†, so the squares are summed on the
    smallest split of the ``_pairwise_sumsq`` chain of x† at ``dim`` that
    holds x, and the kept tail sums beyond it are added innermost first;
    only that head of x† is evaluated, and none is kept."""
    total, tails = _sumsq(problem, False, dim)
    kept = [(m, s) for m, s in tails if m >= x.size]
    # x† - x squares to the bits of x - x†
    diff = problem.coeff_range(0, kept[-1][0] if kept else dim, rhs=False)
    diff[:x.size] -= x
    diff *= diff
    sq = np.sum(diff)
    for _, s in reversed(kept):
        sq += s
    return float(np.sqrt(sq)), float(np.sqrt(total))
