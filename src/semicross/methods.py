"""Semiiterative two-step regularization methods from monic orthogonal
polynomials.

A method is generated by the recursion coefficients ``alpha_k``, ``beta_k``
of a family of monic polynomials orthogonal on [-1, 1],

    P_{k+1}(x) = (x - alpha_k) P_k(x) - beta_k P_{k-1}(x),
    P_0(x) = 1,  P_1(x) = x - alpha_0,  beta_k > 0,

and runs the two-step iteration for an operator equation A x = f,

    x_0 = 2 omega_0 A* f,   x_{-1} = 0,
    x_k = x_{k-1} + ((1 - alpha_k) omega_k - 1)(x_{k-1} - x_{k-2})
               + 2 omega_k A*(f - A x_{k-1}),          k >= 1,

with omega_0 = 1/(1 - alpha_0) and omega_k = 1/(1 - alpha_k -
beta_k omega_{k-1}).  Writing the iterate spectrally, x_k = g(A*A) A* f
where the filter polynomial g of the step-k iterate satisfies

    1 - lam * g(lam) = P_{k+1}(1 - 2 lam) / P_{k+1}(1),

i.e. the iterate produced after k steps carries the normalized polynomial
of index k + 1 (the initial iterate x_0 already carries P_1).
``residual_value``, ``residual_profile`` and ``filter_value`` step r_k =
P_k(1 - 2 lam)/P_k(1) and g like the iterate, indexed by the polynomial
index, so the oracle identity for a diagonal operator with entries sigma_i
and data g_i reads

    step-k iterate component i == filter_value(spec, k + 1, sigma_i**2)
                                  * sigma_i * g_i.

The nu-methods use the monic Jacobi family with parameters
(2 nu - 1/2, -1/2); their qualification is 2 nu.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coeffs import CoeffVec

__all__ = [
    "MethodSpec",
    "IterState",
    "NumericalDegeneracyError",
    "nu_method",
    "omega_next",
    "init_state",
    "step",
    "residual_value",
    "residual_profile",
    "filter_value",
]

#: omega recursion denominators smaller than this signal a degenerate method
_DEGENERACY_EPS = 1e-14


class NumericalDegeneracyError(ArithmeticError):
    """The omega recursion hit a (near-)zero denominator."""


@dataclass(frozen=True)
class MethodSpec:
    """A semiiterative method and its regularization constants.

    ``alpha``/``beta`` generate the monic three-term recurrence; ``kappa0``
    bounds the residual polynomials on [0, 1], ``kappa_mu(mu)`` is the
    constant in the saturation bound |lam^(mu/2) r_k(lam)| <=
    kappa_mu / (k+1)^mu for 0 < mu <= qualification, and ``kappa2`` is
    kappa_mu at mu = 2 (meaningful when the qualification is >= 2; it feeds
    the admissibility threshold of the discrepancy-principle driver).

    ``table`` (no constructor argument) holds the step coefficients mu_k =
    (1 - alpha_k) omega_k - 1 and 2 omega_k, k = 0, 1, ..., as two lists of
    ``np.float64`` scalars (which scale arrays faster than Python floats),
    grown by ``_upto``; it lives exactly as long as the spec.
    """

    name: str
    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    kappa0: float
    kappa2: float
    kappa_mu: Callable[[float], float]
    qualification: float
    table: tuple = field(default_factory=lambda: ([], []), init=False,
                         repr=False, compare=False)


@dataclass(frozen=True)
class IterState:
    """State of one run of the two-step iteration.

    ``k`` counts completed steps; ``x_curr`` is the step-k iterate and
    ``x_prev`` the step-(k-1) one (the zero vector right after
    initialization, realizing x_{-1} = 0); ``omega`` is omega_k.
    """

    k: int
    x_curr: CoeffVec
    x_prev: CoeffVec
    omega: float


@functools.lru_cache(maxsize=16)
def nu_method(nu: float) -> MethodSpec:
    """The nu-method: monic Jacobi polynomials with parameters
    (2 nu - 1/2, -1/2).

    Closed-form recursion coefficients in the Jacobi parameters (a, b):

        alpha_0 = (b - a)/(a + b + 2),
        alpha_k = (b^2 - a^2)/((2k+a+b)(2k+a+b+2)),       k >= 1,
        beta_k  = 4k(k+a)(k+b)(k+a+b)
                  / ((2k+a+b)^2 (2k+a+b+1)(2k+a+b-1)),    k >= 1.

    The k = 0 case is split out because the generic alpha formula is 0/0
    when a + b = 0 (nu = 1/2, the Chebyshev method, where the family
    degenerates to alpha_k = 0, beta_k = 1/4 for k >= 1).

    Constants: kappa0 = 1; kappa_mu is the constant max(1, (2 nu)!) with the
    factorial read as Gamma(2 nu + 1) for non-integer 2 nu; qualification
    2 nu. One nu gives one spec, kept in this function's bounded cache, so
    the runs of a sweep share its step table ``spec.table``.
    """
    a = 2.0 * nu - 0.5
    b = -0.5
    # a > b: nu > 0, and not so small that a rounds to b (beta(1) would
    # divide by zero); nu <= 85: Gamma(2 nu + 1) stays a float
    if not (a > b and nu <= 85.0):
        raise ValueError(f"nu must lie in (0, 85] with 2 nu - 1/2 > -1/2, got {nu}")

    def alpha(k: int) -> float:
        if k == 0:
            return (b - a) / (a + b + 2.0)
        s = 2.0 * k + a + b
        return (b * b - a * a) / (s * (s + 2.0))

    def beta(k: int) -> float:
        if k < 1:
            raise ValueError("beta is defined for k >= 1")
        s = 2.0 * k + a + b
        return 4.0 * k * (k + a) * (k + b) * (k + a + b) / (
            s * s * (s + 1.0) * (s - 1.0)
        )

    kap = max(1.0, math.gamma(2.0 * nu + 1.0))
    return MethodSpec(
        name=f"nu-{nu:g}",
        alpha=alpha,
        beta=beta,
        kappa0=1.0,
        kappa2=kap,
        kappa_mu=lambda mu, _kap=kap: _kap,
        qualification=2.0 * nu,
    )


def omega_next(spec: MethodSpec, k: int, omega_prev: float) -> float:
    """Advance the omega recursion: omega_0 = 1/(1 - alpha_0), then
    omega_k = 1/(1 - alpha_k - beta_k omega_{k-1}).

    ``omega_prev`` is ignored for k == 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _omega(spec, k, spec.alpha(k), omega_prev)


def _omega(spec: MethodSpec, k: int, alpha_k: float, omega_prev: float) -> float:
    """``omega_next`` with alpha_k given."""
    den = 1.0 - alpha_k if k == 0 else 1.0 - alpha_k - spec.beta(k) * omega_prev
    if abs(den) < _DEGENERACY_EPS:
        raise NumericalDegeneracyError(
            f"omega recursion denominator {den:.3e} at k={k} ({spec.name})"
        )
    return 1.0 / den


def _upto(spec: MethodSpec, k: int):
    """``spec.table``, grown one step at a time to hold the entries 0..k and
    no further, so ``spec.alpha`` and ``spec.beta`` are evaluated once per k
    and a failure (a degenerate denominator, or a user-defined ``alpha``
    that ends) is raised at its own step. The last omega is read back
    exactly, as half the stored 2 omega."""
    mu, two_omega = spec.table
    omega = float(two_omega[-1]) / 2.0 if two_omega else 0.0
    for n in range(len(mu), k + 1):
        alpha_n = spec.alpha(n)
        omega = _omega(spec, n, alpha_n, omega)
        mu.append(np.float64((1.0 - alpha_n) * omega - 1.0))
        two_omega.append(np.float64(2.0 * omega))
    return mu, two_omega


def _advance(mu_k: float, two_omega_k: float, x_curr: np.ndarray,
             x_prev: np.ndarray, update: np.ndarray, out=None) -> np.ndarray:
    """Step k of the two-step recursion on raw arrays: x_k from x_{k-1} =
    ``x_curr``, x_{k-2} = ``x_prev``, ``update`` = A*(f - A x_{k-1}), which
    it overwrites, and the step's entries of the method's ``spec.table``.
    The in-place update keeps the order of (x_{k-1} + mu_k (x_{k-1} -
    x_{k-2})) + 2 omega_k update, so every bit is that of the written-out
    expression. At k = 0 with zero ``x_curr``/``x_prev`` this is x_0 =
    2 omega_0 A* f exactly. x_k goes to ``out`` if given. ``step``, the
    drivers' support kernel and the polynomials all advance through here."""
    x_new = np.subtract(x_curr, x_prev, out=out)
    x_new *= mu_k
    x_new += x_curr
    update *= two_omega_k
    x_new += update
    return x_new


def init_state(op, rhs: CoeffVec, spec: MethodSpec) -> IterState:
    """Initial state: k = 0, x_{-1} = 0 and x_0 = 2 omega_0 A* f."""
    if rhs.dim > op.dim:
        raise ValueError(
            f"rhs dimension {rhs.dim} exceeds operator dimension {op.dim}"
        )
    zero = CoeffVec.zeros(op.dim)
    mu, two_omega = _upto(spec, 0)
    x0 = _advance(mu[0], two_omega[0], zero.coeffs, zero.coeffs,
                  np.array(op.apply_adjoint(rhs).coeffs))
    return IterState(k=0, x_curr=CoeffVec._wrap(x0), x_prev=zero,
                     omega=float(two_omega[0]) / 2.0)


def step(state: IterState, op, rhs: CoeffVec, spec: MethodSpec,
         ax_curr: CoeffVec | None = None) -> IterState:
    """Advance the iteration by one step.

    ``ax_curr`` may pass a precomputed A x_curr (a caller that took the
    residual of the previous iterate has it); omitted, it is recomputed.
    """
    if ax_curr is None:
        ax_curr = op.apply(state.x_curr)
    update = op.apply_adjoint(rhs - ax_curr)
    k = state.k + 1
    mu, two_omega = _upto(spec, k)
    x_new = _advance(mu[k], two_omega[k], state.x_curr.coeffs,
                     state.x_prev.coeffs, np.array(update.coeffs))
    return IterState(k=k, x_curr=CoeffVec._wrap(x_new), x_prev=state.x_curr,
                     omega=float(two_omega[k]) / 2.0)


def _stepped(spec: MethodSpec, k_max: int, lam, filter_: bool):
    """Yield the residual polynomials r_0..r_{k_max} at ``lam`` in [0, 1],
    or with ``filter_`` the filter polynomials g_0..g_{k_max}: ``step``
    with lam for A*A and 1 for A* f, from p_{-1} = p_0 = 1 (r) or 0 (g),

        r_{k+1} = r_k + mu_k (r_k - r_{k-1}) - 2 omega_k lam r_k,
        g_{k+1} = g_k + mu_k (g_k - g_{k-1}) + 2 omega_k (1 - lam g_k).

    Neither needs rescaling (|r_k| <= kappa0 on [0, 1]); lam = 0 is exact."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("lam must lie in [0, 1]")
    mu, two_omega = _upto(spec, k_max - 1)
    p_prev = p = np.full_like(lam, 0.0 if filter_ else 1.0)
    yield p
    for k in range(k_max):
        update = 1.0 - lam * p if filter_ else -lam * p
        p_prev, p = p, _advance(mu[k], two_omega[k], p, p_prev, update)
        yield p


def _value(spec: MethodSpec, k: int, lam, filter_: bool):
    """The index-k polynomial of ``_stepped`` at a scalar or array ``lam``."""
    for out in _stepped(spec, k, lam, filter_):
        pass
    return float(out[0]) if np.ndim(lam) == 0 else out


def residual_value(spec: MethodSpec, k: int, lam):
    """Residual polynomial value r_k(lam) = P_k(1-2 lam)/P_k(1), r_0 = 1.

    ``lam`` may be a scalar or an array with entries in [0, 1].
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _value(spec, k, lam, filter_=False)


def residual_profile(spec: MethodSpec, k_max: int, lam) -> np.ndarray:
    """All residual polynomial values r_0..r_{k_max} on a grid.

    Returns an array of shape (k_max + 1, len(lam)); row k is r_k. One run
    of the recurrence serves every row, which keeps sweep-style
    diagnostics (condition suites, Lipschitz samples) cheap.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return np.stack(list(_stepped(spec, k_max, lam, filter_=False)))


def filter_value(spec: MethodSpec, k: int, lam):
    """Filter polynomial value g_k(lam), with 1 - lam g_k(lam) = r_k(lam),
    for k >= 1 and lam (scalar or array) in [0, 1].

    Stepped itself, not taken as (1 - r_k)/lam, so it is exact at lam = 0:
    g_k(0) = -r_k'(0), for the nu-methods k (k + 2 nu)/(2 nu + 1/2).
    """
    if k < 1:
        raise ValueError("filter index k must be >= 1")
    return _value(spec, k, lam, filter_=True)
