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
the closed forms are evaluated on the nonzero parity only.
"""

from __future__ import annotations

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
    """cos(pi k / 2) exactly for even k: 1, -1 cycling with k mod 4."""
    return np.where(kk % 4 == 0, 1.0, -1.0)


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


#: noise norms kept per process, oldest dropped first; floats only, so the
#: bound is generous: it covers every noise realization of a large sweep
_NORMS_KEPT = 1024
_noise_norms: dict = {}


class NoisyData:
    """The perturbed data f_delta = f + (delta / ||g||) g, read one window
    at a time.

    The direction g is standard normal in the span of the first dim(f) basis
    elements (basis-isotropic), drawn deterministically from ``seed``. Its
    norm needs the whole draw but depends only on (seed, dim(f)), so it is
    kept per process; a seed met for the first time keeps the draw that gave
    its norm. Otherwise the coefficients a level reads come from the head of
    the same generator, continued as the level grows (chunked draws
    concatenate to the single draw).
    """

    def __init__(self, f: CoeffVec, delta: float, seed: int):
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        seed = operator.index(seed)  # a kept norm needs a reproducible draw
        self.f = f
        self._rng = np.random.default_rng(seed)
        self._g = np.empty(0)
        key = (seed, f.dim)
        g_norm = _noise_norms.get(key)
        if g_norm is None:
            self._g = self._rng.standard_normal(f.dim)
            g_norm = np.sqrt(np.sum(self._g * self._g))
            if g_norm == 0.0:  # pragma: no cover - essentially impossible
                raise ArithmeticError("degenerate noise draw")
            if len(_noise_norms) >= _NORMS_KEPT:
                del _noise_norms[next(iter(_noise_norms))]
            _noise_norms[key] = g_norm
        self.scale = delta / g_norm

    def head(self, dim: int) -> np.ndarray:
        """Coefficients 1..dim of f_delta as a new array; those past dim(f)
        are zero."""
        d = min(dim, self.f.dim)
        if self._g.size < d:
            more = self._rng.standard_normal(d - self._g.size)
            self._g = np.concatenate([self._g, more])
        out = self.scale * self._g[:d]
        out += self.f.coeffs[:d]
        if dim > d:
            out = np.concatenate([out, np.zeros(dim - d)])
        return out


def perturb(f: CoeffVec, delta: float, seed: int) -> CoeffVec:
    """Add a pseudo-random perturbation of exact norm delta: the full-length
    f_delta of ``NoisyData(f, delta, seed)``; delta = 0 returns f unchanged.
    """
    if delta == 0.0:
        return f
    return CoeffVec._wrap(NoisyData(f, delta, seed).head(f.dim))


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
        return self._coeffs(dim, rhs=True)

    def exact(self, dim: int) -> CoeffVec:
        """Basis coefficients 1..dim of the exact solution."""
        return self._coeffs(dim, rhs=False)

    def _coeffs(self, dim: int, rhs: bool) -> CoeffVec:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        pid, scaled = self.pid, self.scaled
        # the nonzero parity only: odd k for p1 (where 1 - (-1)^k is exactly
        # 2), even k for p2
        first = 1 if pid == "p1" else 2
        kk = np.arange(first, dim + 1, 2, dtype=np.int64)
        v = _rhs_coeffs(pid, kk, scaled) if rhs else _exact_solution_coeffs(pid, kk)
        if self.normalize:
            v = v * (_UNIT_FACTOR[pid] if scaled else _UNIT_FACTOR[pid] * np.pi ** 2)
        out = np.zeros(dim)
        out[first - 1::2] = v
        return CoeffVec._wrap(out)


def get_problem(pid: str, scaled: bool = True,
                normalize: bool = True) -> Problem:
    return Problem(pid, scaled, normalize)
