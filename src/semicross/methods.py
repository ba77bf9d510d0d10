"""Semiiterative two-step regularization methods.

A method is its step coefficients mu_k and 2 omega_k, k = 0, 1, ...
(``MethodSpec``), and runs the two-step iteration for A x = f,

    x_0 = 2 omega_0 A* f,   x_{-1} = 0,
    x_k = x_{k-1} + mu_k (x_{k-1} - x_{k-2}) + 2 omega_k A*(f - A x_{k-1}).

For coefficients from a monic recurrence P_k orthogonal on [-1, 1], the
step-k iterate is x_k = g(A*A) A* f with the filter polynomial g of

    1 - lam * g(lam) = P_{k+1}(1 - 2 lam) / P_{k+1}(1),

i.e. the iterate produced after k steps carries the normalized polynomial
of index k + 1 (the initial iterate x_0 already carries P_1).
``residual_value``, ``residual_profile`` and ``filter_value`` step r_k =
P_k(1 - 2 lam)/P_k(1) and g like the iterate, indexed by the polynomial
index, so the oracle identity for a diagonal operator with entries sigma_i
and data g_i reads

    step-k iterate component i == filter_value(spec, k + 1, sigma_i**2)
                                  * sigma_i * g_i.

The nu-methods come from the monic Jacobi family with parameters
(2 nu - 1/2, -1/2), whose coefficients have a product form
(``nu_method``); their qualification is 2 nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .coeffs import CoeffVec

__all__ = ["MethodSpec", "IterState", "NumericalDegeneracyError", "nu_method",
           "init_state", "step", "residual_value", "residual_profile", "filter_value"]

class NumericalDegeneracyError(ArithmeticError):
    """A method's coefficients or a run's residual norm left the finite
    floats."""


@dataclass(frozen=True)
class MethodSpec:
    """A semiiterative method and its regularization constants.

    ``steps(k=0)`` yields the step coefficients (mu_j, 2 omega_j) as
    floats for j = k, k + 1, ...: step j, which makes x_j, reads pair j
    (step 0 makes x_0 = 2 omega_0 A* f, where mu_0 multiplies a zero
    difference). A pair must not depend on k. A level of a run draws one
    pair per step and none past its last, so a ``steps`` that raises at
    pair j stops the level at step j. For a monic recurrence P_{k+1}(x) =
    (x - alpha_k) P_k(x) - beta_k P_{k-1}(x), P_0 = 1, P_1(x) = x -
    alpha_0, beta_k > 0, they are

        omega_0 = 1/(1 - alpha_0),
        omega_k = 1/(1 - alpha_k - beta_k omega_{k-1}),   k >= 1,
        mu_k = (1 - alpha_k) omega_k - 1.

    ``kappa0`` bounds the residual polynomials on [0, 1], ``kappa_mu(mu)``
    is the constant in the saturation bound |lam^(mu/2) r_k(lam)| <=
    kappa_mu / (k+1)^mu for 0 < mu <= qualification; ``kappa_mu(2)``
    (meaningful when the qualification is >= 2) feeds the admissibility
    threshold of the discrepancy-principle driver.

    A spec compares, hashes and pickles through ``steps`` and ``kappa_mu``,
    so one to compare or send to another process needs module-level or
    frozen-dataclass callables, as ``nu_method``'s; closures run in process.
    """

    name: str
    steps: Callable[..., Iterator[tuple[float, float]]]
    kappa0: float
    kappa_mu: Callable[[float], float]
    qualification: float


@dataclass(frozen=True)
class IterState:
    """State of one run of the two-step iteration.

    ``k`` counts completed steps; ``x_curr`` is the step-k iterate and
    ``x_prev`` the step-(k-1) one (the zero vector right after
    initialization, realizing x_{-1} = 0).
    """

    k: int
    x_curr: CoeffVec
    x_prev: CoeffVec


@dataclass(frozen=True)
class _NuSteps:
    """``MethodSpec.steps`` of the nu-method: the pairs of ``nu_method``."""

    nu: float

    def __call__(self, k: int = 0):
        nu, k = self.nu, float(k)
        two_nu, c_odd, c_den = 2.0 * nu, 2.0 * nu + 1.0, 4.0 * nu + 1.0
        while True:
            two_k = k + k
            odd = two_k + c_odd  # 2k + 2 nu + 1
            den = (k + two_nu) * (two_k + c_den)
            # mu_0 = 0, where the product is 0/0 at nu = 1/2
            mu = (two_k - 1.0) * k * odd / (den * (odd - 2.0)) if k else 0.0
            yield mu, 4.0 * odd * (k + nu) / den
            k += 1.0


@dataclass(frozen=True)
class _Constant:
    value: float

    def __call__(self, mu: float) -> float:
        return self.value


def nu_method(nu: float) -> MethodSpec:
    """The nu-method: monic Jacobi polynomials with parameters
    (2 nu - 1/2, -1/2), with the step coefficients in product form (Engl,
    Hanke and Neubauer, Regularization of Inverse Problems, 1996, (6.24);
    Hanke, Numer. Math. 1991), shifted to this module's index:

        2 omega_k = 4 (2k + 2nu + 1)(k + nu) / ((k + 2nu)(2k + 4nu + 1)),
        mu_k = k (2k - 1)(2k + 2nu + 1)
               / ((k + 2nu)(2k + 4nu + 1)(2k + 2nu - 1)),   mu_0 = 0,

    so 2 omega_0 = (4 nu + 2)/(4 nu + 1). ``steps(k)`` computes each pair
    as it is drawn, from a float counter, with no table and no cache: the
    two products of factors are exact for 4 nu an integer and k up to about
    30,000, so each entry is then correctly rounded.

    Constants: kappa0 = 1; kappa_mu is the constant max(1, (2 nu)!) with the
    factorial read as Gamma(2 nu + 1) for non-integer 2 nu; qualification
    2 nu.
    """
    # nu > 0, and not so small that the Jacobi parameter 2 nu - 1/2 rounds
    # to -1/2; nu <= 85: Gamma(2 nu + 1) stays a float
    if not (2.0 * nu - 0.5 > -0.5 and nu <= 85.0):
        raise ValueError(f"nu must lie in (0, 85] with 2 nu - 1/2 > -1/2, got {nu}")
    nu = float(nu)  # nu_method(1) == nu_method(np.float64(1.0)), with float pairs
    return MethodSpec(name=f"nu-{nu:g}", steps=_NuSteps(nu), kappa0=1.0,
                      kappa_mu=_Constant(max(1.0, math.gamma(2.0 * nu + 1.0))),
                      qualification=2.0 * nu)


def _advance(mu_k: float, two_omega_k: float, x_curr: np.ndarray,
             x_prev: np.ndarray, update: np.ndarray, out=None) -> np.ndarray:
    """Step k of the two-step recursion on raw arrays: x_k from x_{k-1} =
    ``x_curr``, x_{k-2} = ``x_prev``, ``update`` = A*(f - A x_{k-1}), which
    it overwrites, and the step's coefficients mu_k and 2 omega_k.
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
    mu_0, two_omega_0 = next(spec.steps(0))
    x0 = _advance(mu_0, two_omega_0, zero.coeffs, zero.coeffs,
                  np.array(op.apply_adjoint(rhs).coeffs))
    return IterState(k=0, x_curr=CoeffVec._wrap(x0), x_prev=zero)


def step(state: IterState, op, rhs: CoeffVec, spec: MethodSpec,
         ax_curr: CoeffVec | None = None) -> IterState:
    """Advance the iteration by one step.

    ``ax_curr`` may pass a precomputed A x_curr (a caller that took the
    residual of the previous iterate has it); omitted, it is recomputed.
    The step draws its one pair of coefficients, ``next(spec.steps(k))``,
    so a call costs the same at every k.
    """
    if ax_curr is None:
        ax_curr = op.apply(state.x_curr)
    update = op.apply_adjoint(rhs - ax_curr)
    k = state.k + 1
    mu_k, two_omega_k = next(spec.steps(k))
    x_new = _advance(mu_k, two_omega_k, state.x_curr.coeffs,
                     state.x_prev.coeffs, np.array(update.coeffs))
    return IterState(k=k, x_curr=CoeffVec._wrap(x_new), x_prev=state.x_curr)


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
    p_prev = p = np.full_like(lam, 0.0 if filter_ else 1.0)
    yield p
    for _, (mu_k, two_omega_k) in zip(range(k_max), spec.steps()):
        update = 1.0 - lam * p if filter_ else -lam * p
        p_prev, p = p, _advance(mu_k, two_omega_k, p, p_prev, update)
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
