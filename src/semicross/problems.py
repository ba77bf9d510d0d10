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

Sums of squares. The noise norm, a window's data off its rows, the closed
forms' norms and the error are each the ``_block_sumsq`` order's: np.sum
over leaves of at most 2^13 entries, added in order within the blocks
[0, b), [b, 2b), [2b, 4b), ..., and math.fsum over the blocks; b is 2^13
for the noise and 128 for the closed forms, so that the error evaluates x†
on the blocks that hold the support alone. The bits depend on the values,
that order and np.sum's summation of a leaf, which numpy does not pick
per CPU.

Kept values. What a process keeps between runs lives here, in three
``functools.lru_cache`` functions, each reset by ``cache_clear()``: the
noise norm per (seed, dim) (``_noise_norm``, 1,024 floats), each closed
form's block sums per (problem, rhs, dim) (``_sumsq``, 64 tuples), and a
run's data per (problem, noise_dim, delta, seed) (``_noisy_data``, 64 runs'
data), which holds read-only each level window its runs drew: 16 2^n bytes
with its rows at level n, about 1 MiB in all at the paper's levels n <= 9.
A serial ``cli.run_grid`` draws noise norms in threads and in the calling
thread, which reads them all. No closed-form coefficient outlives the window
draw or the run that evaluated it: after a p2 discrepancy run at delta 2^-20
(level 12) the process keeps 0.86 MiB, 131 KiB of it in this module (the
level windows and the kept norms).
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


def green_operator(*, scaled: bool = True) -> DiagonalSource:
    """Information source of the Green-kernel operator: diagonal entries
    -(pi k)^{-2}, times pi^2 when ``scaled`` (the default), off-diagonal
    entries exactly zero; entries are defined for every index."""
    return DiagonalSource(lambda kk, s=scaled: _eigenvalues(kk, s))


def _cos_half_pi(kk: np.ndarray) -> np.ndarray:
    """cos(pi k / 2) exactly for even k: 1, -1 cycling with k mod 4 (bit 1
    of k, which is cheaper to read than k mod 4)."""
    return np.where((kk & 2) == 0, 1.0, -1.0)


#: the closed forms by (problem, rhs): the power of a and the factor of
#: ``_closed_form``; the quartic's reduction collapses to p1's
#: cancellation-free form (the 1/a and 1/a^3 terms drop out because it and
#: its second derivative vanish at both endpoints), where summing the
#: monomial integrals numerically loses ~8 digits at k ~ 4000
_FORMS = {("p1", False): (5, -3.0 * _SQRT2 * 2.0), ("p1", True): (7, 3.0 * _SQRT2 * 2.0),
          ("p2", False): (1, -2.0 * _SQRT2), ("p2", True): (3, 2.0 * _SQRT2)}


def _closed_form(pid: str, kk: np.ndarray, power: int, factor: float) -> np.ndarray:
    """factor (72 a^2 - 720)/a^power (p1) or factor cos(pi k / 2)/a^power
    (p2) at a = pi k, one pass per operation in the written order; the odd
    power is a (a^2) (a^2) ..., multiplied from the left, whose bits numpy
    does not pick per CPU as it does for np.power's."""
    a = kk * np.pi
    a2 = a * a
    if pid == "p1":
        v = a2 * 72.0
        v -= 720.0
    else:
        v = _cos_half_pi(kk)
    v *= factor
    for _ in range(power // 2):
        a *= a2
    v /= a
    return v


#: leaves of at most 2^13 float64 entries (64 KiB) stay below glibc's
#: default mmap threshold of 128 KiB, so a streamed sum faults no fresh pages
_LEAF = 2 ** 13
#: the first block of the closed forms' sums: the error evaluates x† only on
#: the blocks that hold the support, 2^n columns at level n
_HEAD = 128


def _block_sumsq(n: int, leaf, first: int = _LEAF) -> list:
    """The block sums of squares of a float64 array v of length ``n`` that
    is never held: ``leaf(lo, hi)`` returns v[lo:hi] and is called on
    consecutive segments of at most ``_LEAF`` entries in ascending order.

    The blocks are [0, b), [b, 2b), [2b, 4b), ... with b = ``first``, cut at
    n, and each is cut into leaves of ``_LEAF`` entries from its start. A
    block's sum is 0.0 plus the np.sum(w * w) of each of its leaves w, in
    order. The sum of squares of v is the math.fsum of the block sums.
    """
    sums, lo, hi = [], 0, min(first, n)
    while lo < n:
        s = 0.0
        for at in range(lo, hi, _LEAF):
            w = leaf(at, min(at + _LEAF, hi))
            s += np.sum(w * w)
        sums.append(s)
        lo, hi = hi, min(2 * hi, n)
    return sums


@functools.lru_cache(maxsize=1024)
def _noise_norm(seed: int, dim: int) -> float:
    """||g|| of the noise draw of ``seed`` at ``dim``, streamed in the
    leaves of ``_block_sumsq`` from a generator of its own; floats only, so
    the bound is generous: it covers every noise realization of a large
    sweep."""
    draw = np.random.default_rng(seed).standard_normal
    g_norm = math.sqrt(math.fsum(_block_sumsq(dim, lambda lo, hi: draw(hi - lo))))
    if g_norm == 0.0:  # pragma: no cover - essentially impossible
        raise ArithmeticError("degenerate noise draw")
    return g_norm


class NoisyData:
    """The perturbed data f_delta = f + (delta / ||g||) g, one window at a time.

    The direction g is standard normal in the span of the first ``dim``
    basis elements (basis-isotropic), drawn deterministically from
    ``seed``; ``rhs(lo, hi)`` returns coefficients lo+1..hi of f for
    0 <= lo < hi <= dim, and is asked only for the chunk being drawn, so
    nothing of f is held past it. The norm of g depends only on (seed,
    dim), so it is kept per process (``_noise_norm``). Of the draw only the
    seed is kept: each window is drawn again from it, in chunks of at most
    ``_LEAF`` coefficients (chunked draws concatenate to the single draw).
    Each window is kept read-only with the data, per its dim and rows, so
    runs that share the data (``_noisy_data``'s) draw it once.
    """

    def __init__(self, rhs, dim: int, delta: float, seed: int):
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        seed = operator.index(seed)  # a kept norm needs a reproducible draw
        self.rhs, self.dim, self.seed, self._windows = rhs, dim, seed, {}
        self.scale = delta / _noise_norm(seed, dim)

    def window(self, dim: int, rows: np.ndarray):
        """``(f_delta[rows], off2)`` on coefficients 1..dim, zero past
        ``self.dim``, at the sorted 0-based ``rows``; off2 is the
        ``_block_sumsq`` sum of squares of f_delta over coefficients
        1..min(dim, self.dim) with the entries at rows set to zero. Drawn
        in its leaves, in ascending order, on the first call for its dim
        and rows; f_delta[rows] is read-only."""
        key = dim, rows.tobytes()
        if key not in self._windows:
            out, off2 = self._draw(dim, rows)
            out.flags.writeable = False
            self._windows[key] = out, off2
        return self._windows[key]

    def _draw(self, dim: int, rows: np.ndarray):
        rng, out = np.random.default_rng(self.seed), np.zeros(rows.size)

        def leaf(lo: int, hi: int) -> np.ndarray:
            # coefficients lo+1..hi; those at rows go to out and are zeroed
            v = rng.standard_normal(hi - lo)
            v *= self.scale
            v += self.rhs(lo, hi)
            i, j = rows.searchsorted((lo, hi))
            out[i:j] = v[rows[i:j] - lo]
            v[rows[i:j] - lo] = 0.0
            return v

        return out, math.fsum(_block_sumsq(min(dim, self.dim), leaf))


def perturb(f: CoeffVec, delta: float, seed: int) -> CoeffVec:
    """Add a pseudo-random perturbation of exact norm delta: the full-length
    f_delta of ``NoisyData``, drawn in one piece; delta = 0 returns f
    unchanged.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return f
    seed = operator.index(seed)  # a kept norm needs a reproducible draw
    v = np.random.default_rng(seed).standard_normal(f.dim)
    v *= delta / _noise_norm(seed, f.dim)
    v += f.coeffs
    return CoeffVec._wrap(v)


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
        per run, so information accounting stays per-run). ``dim_hint`` is
        ignored: the source answers every index."""
        return green_operator(scaled=self.scaled)

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
        v = _closed_form(pid, np.arange(first, stop + 1, 2, dtype=np.int64),
                         *_FORMS[pid, rhs])
        if rhs and scaled:
            v *= np.pi ** 2
        if self.normalize:
            v *= _UNIT_FACTOR[pid] if scaled else _UNIT_FACTOR[pid] * np.pi ** 2
        out = np.zeros(stop - start)
        out[first - start - 1::2] = v
        return out


def get_problem(pid: str, scaled: bool = True,
                normalize: bool = True) -> Problem:
    return Problem(pid, scaled, normalize)


@functools.lru_cache(maxsize=64)
def _sumsq(problem: Problem, rhs: bool, dim: int) -> tuple:
    """The ``_block_sumsq`` block sums of coefficients 1..dim of the
    right-hand side or exact solution, first block ``_HEAD``, kept as floats."""
    return tuple(_block_sumsq(dim, functools.partial(problem.coeff_range, rhs=rhs), _HEAD))


@functools.lru_cache(maxsize=64)
def _noisy_data(problem: Problem, dim: int, delta: float, seed: int):
    """A run's ``NoisyData`` at ``dim``, evaluating the right-hand side's
    closed form per drawn chunk, and ||f|| from its kept block sums; kept,
    with the windows its runs drew, for the runs on the same data."""
    f_norm = math.sqrt(math.fsum(_sumsq(problem, True, dim)))
    rhs = functools.partial(problem.coeff_range, rhs=True)
    return NoisyData(rhs, dim, delta, seed), f_norm


def _error_norms(problem: Problem, cols: np.ndarray, x: np.ndarray, dim: int):
    """(||x - x†||, ||x†||) over coefficients 1..dim of the exact solution
    x†, where x holds the values at the sorted 0-based ``cols`` and is zero
    elsewhere: the square roots of the ``_block_sumsq`` sums (first block
    ``_HEAD``) of the full-length arrays. Past the block that holds the last
    of cols the difference is -x†, whose block sums ``_sumsq`` keeps, so x†
    is evaluated only on the blocks up to it, and none of it is kept."""
    sums = _sumsq(problem, False, dim)
    # blocks end at _HEAD 2^i; cols is empty on a zero operator
    head = (int(cols.max(initial=0)) // _HEAD).bit_length() + 1
    diff = problem.coeff_range(0, min(_HEAD << head - 1, dim), rhs=False)
    # x† - x squares to the bits of x - x†, and x† - 0.0 is x† off cols
    diff[cols] -= x
    err = _block_sumsq(diff.size, lambda lo, hi: diff[lo:hi], _HEAD)
    return math.sqrt(math.fsum([*err, *sums[head:]])), math.sqrt(math.fsum(sums))
