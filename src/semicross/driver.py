"""Adaptive drivers: level initialization, per-level iteration budgets, the
refinement loop, and the a-priori constants behind a report's diagnostics.

Both drivers run one level loop, which reads the run's data, steps the
levels and builds the report; they differ only in its stopping rule. The
starting level is the smallest n >= 1 with

    (1 + 2^{r+3}) 2^{-2rn} n < gamma delta / (2 rho),

and the per-level budget K_n is the largest integer satisfying the same
inequality with rho replaced by K_n rho. At each level the two-step
recursion restarts from scratch (iterates of different levels live in
different dimensions) against the data truncated to the level window; the
driver then either stops -- residual norm at or below tau delta for the
discrepancy variant, nonempty admissible set for the balancing variant --
or refines the discretization by one level, computing only the new
Galerkin entries. The iteration runs on the operator's nonzero rows and
columns only (``_SupportKernel``), so of the window it holds f_delta on
the rows and the energy off them, and the report holds the stop iterate on
those columns (``Solution``): a run allocates nothing of window length.

Safety caps convert non-termination under violated assumptions into
reported errors: ``n_max`` bounds the level, ``k_abs_max`` the total number
of iteration steps across levels, and a non-finite residual norm raises
``NumericalDegeneracyError`` at once.
"""

from __future__ import annotations

import math
import operator
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffVec
from .hypercross import assemble, refine
from .methods import MethodSpec, NumericalDegeneracyError, _advance
from .problems import NoisyData, Problem, _error_norms, _noisy_data
from .stopping import BalancingWindow, balancing_stop_index

__all__ = [
    "ConfigError",
    "CapExceededError",
    "RunParams",
    "RunReport",
    "Solution",
    "admissibility_threshold",
    "initial_level",
    "max_iter_count",
    "run_discrepancy",
    "run_balancing",
]


class ConfigError(ValueError):
    """Invalid run configuration (e.g. tau below the admissibility
    threshold)."""


class CapExceededError(RuntimeError):
    """A safety cap was hit; ``kind`` is "level" or "iterations"."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _check_integers(config, *names) -> None:
    """Raise ConfigError unless each named field of ``config`` is an integer
    (to ``operator.index``, so numpy integers pass)."""
    for name in names:
        try:
            operator.index(getattr(config, name))
        except TypeError:
            raise ConfigError(f"{name} must be an integer, "
                              f"got {getattr(config, name)!r}") from None


@dataclass(frozen=True)
class RunParams:
    """Control parameters of one adaptive run.

    delta      noise level (norm units of the scaled right-hand side)
    rho        source-set radius used by the budget rule
    gamma      discretization control parameter
    tau        discrepancy parameter (must exceed the admissibility
               threshold for discrepancy runs)
    r          operator smoothness class exponent
    k_sec      balancing look-ahead length
    seed       noise generator seed
    n_max      level safety cap
    k_abs_max  total-iteration safety cap
    noise_dim  ambient dimension the data perturbation lives in; fixed per
               run so that refinement reveals more coefficients of one and
               the same perturbed right-hand side
    """

    delta: float
    rho: float = 1.0
    gamma: float = 0.5
    tau: float = 2.0
    r: float = 2.0
    k_sec: int = 20
    seed: int = 0
    n_max: int = 12
    k_abs_max: int = 10 ** 6
    noise_dim: int = 2 ** 20

    def __post_init__(self):
        _check_integers(self, "k_sec", "seed", "n_max", "k_abs_max", "noise_dim")
        if not all(map(math.isfinite, (self.delta, self.rho, self.gamma,
                                       self.tau, self.r))):
            raise ConfigError("delta, rho, gamma, tau and r must be finite")
        if min(self.delta, self.rho, self.gamma, self.r) <= 0:
            raise ConfigError("delta, rho, gamma and r must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if min(self.k_sec, self.n_max, self.k_abs_max, self.noise_dim) < 1:
            raise ConfigError("k_sec, n_max, k_abs_max and noise_dim must be >= 1")
        if self.r * self.n_max >= 512:  # 2^(2 r n) must be a float
            raise ConfigError("r * n_max must be below 512")
        for n in (1, self.n_max):  # the budget bound's log is convex in n
            max_iter_count(n, self)


@dataclass(frozen=True, eq=False)
class Solution:
    """A coefficient vector of length ``dim`` held on its support: coefficient
    ``indices[i] + 1`` is ``values[i]`` and every other one is zero.
    ``indices`` is sorted, and both arrays are read-only."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        self.indices.flags.writeable = self.values.flags.writeable = False

    def __reduce__(self):  # copies go through __init__: their arrays are read-only too
        return Solution, (self.indices, self.values, self.dim)

    def dense(self) -> np.ndarray:
        """All ``dim`` coefficients, as a new array."""
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out


@dataclass(frozen=True, eq=False)
class RunReport:
    """Record of one adaptive run with the ``MethodSpec`` and ``RunParams`` it
    ran with. ``solution`` is the stop iterate on the final level's nonzero
    operator columns: on p1/p2 at level 12, 4,096 values (64 KiB) of
    16,777,216 coefficients (128 MiB as ``dense()``). ``residual_norms`` is a
    read-only float64 array, one norm per step of the run, across its levels.

    Derived attributes: ``delta`` and ``seed`` (of ``params``),
    ``final_level`` (the last of ``levels``), ``budgets`` (K_n per level),
    ``total_iterations`` (the steps run) and ``rel_error`` (abs_error /
    exact_norm, NaN for a zero exact solution); ``diagnostics(mu)`` computes
    the a-priori bounds on request."""

    algorithm: int
    method: MethodSpec
    params: RunParams
    levels: tuple
    stop_index: int
    solution: Solution
    residual_norms: np.ndarray
    info_count: int
    rhs_norm: float
    abs_error: float
    exact_norm: float

    delta = property(lambda self: self.params.delta)
    seed = property(lambda self: self.params.seed)
    final_level = property(lambda self: self.levels[-1])
    budgets = property(lambda self: tuple(max_iter_count(n, self.params) for n in self.levels))
    total_iterations = property(lambda self: len(self.residual_norms))
    rel_error = property(lambda self: self.abs_error / self.exact_norm
                         if self.exact_norm > 0.0 else math.nan)

    def __post_init__(self):
        self.residual_norms.flags.writeable = False

    def __reduce__(self):  # copies go through __init__: their arrays are read-only too
        return RunReport, tuple(vars(self).values())

    def diagnostics(self, mu: float) -> dict:
        """``_diagnostics(method, params, mu, levels)`` of this run."""
        return _diagnostics(self.method, self.params, mu, self.levels)


def admissibility_threshold(spec: MethodSpec, gamma: float) -> float:
    """Smallest admissible discrepancy parameter,
    kappa0 (1 + sqrt(1/2 + kappa_mu(2)/kappa0) gamma)."""
    return spec.kappa0 * (
        1.0 + math.sqrt(0.5 + spec.kappa_mu(2.0) / spec.kappa0) * gamma
    )


def initial_level(p: RunParams) -> int:
    """Smallest level n >= 1 with (1+2^{r+3}) 2^{-2rn} n < gamma delta/(2 rho):
    the first level whose budget ``max_iter_count`` allows a step."""
    for n in range(1, p.n_max + 1):
        if max_iter_count(n, p) >= 1:
            return n
    raise CapExceededError(
        "level", f"no admissible start level up to n_max={p.n_max}"
    )


def max_iter_count(n: int, p: RunParams) -> int:
    """Largest K with (1+2^{r+3}) 2^{-2rn} n < gamma delta/(2 K rho);
    0 signals an inconsistent level (the caller must refine).

    The strict inequality is preserved exactly: an integral bound yields
    bound - 1. A bound that is not a finite float raises ConfigError.
    """
    bound = p.gamma * p.delta * 2.0 ** (2.0 * p.r * n) / (
        2.0 * p.rho * (1.0 + 2.0 ** (p.r + 3.0)) * n
    )
    if not math.isfinite(bound):
        raise ConfigError(f"the budget bound at level {n} is {bound}, not a finite float")
    return max(math.ceil(bound) - 1, 0)


def _diagnostics(spec: MethodSpec, p: RunParams, mu: float, levels) -> dict:
    """A-priori constants and bounds of a run over ``levels`` at smoothness mu.

    The constants are c1, c_alg2 (balancing-driver error constant), k_opt,
    tau_threshold, c2, c_alg1 (discrepancy-driver error constant) and the
    cost-bound constants c3, c4, c5, at the last of ``levels``; the bounds
    are error_bound_alg2, error_bound_alg1, k_bound, n_bound and info_bound.
    Each entry, with ``mu``, is None, an int or a float. The discrepancy
    analysis's entries (c2 to c5, c_alg1 and the bounds after
    error_bound_alg2) are None for tau at or below the threshold,
    qualification below 2 or mu above qualification - 1; n_bound and
    info_bound also for a run that never refined or a base
    1 + c4 + c5 log(rho/delta) <= 0. A mu outside (0, qualification] or a
    last level below 1 raises ConfigError, and a constant or bound past the
    float range OverflowError.
    """
    if not 0 < mu <= spec.qualification:
        raise ConfigError(f"mu must lie in (0, {spec.qualification}], got {mu}")
    n = levels[-1]
    if n < 1:
        raise ConfigError("n must be >= 1")
    k0 = spec.kappa0
    k2 = spec.kappa_mu(2.0)
    kmu = spec.kappa_mu(mu)
    thr = admissibility_threshold(spec, p.gamma)
    c1 = k0 + 2.0 + (math.sqrt(k0 * (k0 / 2.0 + k2)) + 1.0 / (2.0 * n)) * p.gamma
    c_alg2 = 12.0 * kmu ** (1.0 / (mu + 1.0)) * (
        2.0 * (1.0 + p.gamma) * k0
    ) ** (mu / (mu + 1.0))
    k_opt = math.ceil(
        (2.0 * (1.0 + p.gamma) * p.delta / (kmu * p.rho)) ** (-1.0 / (mu + 1.0))
    )
    rate = p.rho ** (1.0 / (mu + 1.0)) * p.delta ** (mu / (mu + 1.0))
    diag = {
        "c1": c1, "c_alg2": c_alg2, "k_opt": k_opt, "tau_threshold": thr,
        "c2": None, "c_alg1": None, "c3": None, "c4": None, "c5": None,
        "mu": mu, "error_bound_alg2": c_alg2 * rate, "error_bound_alg1": None,
        "k_bound": None, "n_bound": None, "info_bound": None,
    }
    if spec.qualification >= 2.0 and mu <= spec.qualification - 1.0 and p.tau > thr:
        c2 = max((kmu / (p.tau - thr)) ** (1.0 / (mu + 1.0)), 1.0)
        c_alg1 = k0 ** (1.0 / (mu + 1.0)) * (p.tau + c1) ** (mu / (mu + 1.0)) \
            + 2.0 * k0 * (1.0 + p.gamma) * c2
        big = 1.0 + 2.0 ** (p.r + 3.0)
        c4 = math.log(
            (c2 / p.gamma) * 2.0 ** (p.r + 1.0) * big / (2.0 ** p.r - 1.0)
        ) / (p.r * math.log(2.0))
        c5 = (mu + 2.0) / ((mu + 1.0) * p.r * math.log(2.0))
        c3 = ((c2 / p.gamma) * 2.0 ** (2.0 * p.r + 1.0) * big) ** (1.0 / p.r)
        diag.update(c2=c2, c_alg1=c_alg1, c3=c3, c4=c4, c5=c5,
                    error_bound_alg1=c_alg1 * rate)
        ratio = p.rho / p.delta
        diag["k_bound"] = c2 * ratio ** (1.0 / (mu + 1.0))
        logratio = math.log(ratio)
        base = 1.0 + c4 + c5 * logratio
        if len(levels) > 1 and base > 0:
            diag["n_bound"] = c4 + c5 * logratio
            diag["info_bound"] = c3 * ratio ** (
                (mu + 2.0) / (p.r * (mu + 1.0))) * base ** (1.0 + 1.0 / p.r)
    return diag


# ---------------------------------------------------------------------------
# the shared level loop
# ---------------------------------------------------------------------------


def _window(fdelta: CoeffVec, dim: int) -> CoeffVec:
    """Coefficients 1..dim of a full-length f_delta. The level loop reads
    ``NoisyData.window`` instead; perfbench's layer timings window a full
    ``perturb`` with this."""
    if dim <= fdelta.dim:
        return CoeffVec._wrap(fdelta.coeffs[:dim].copy())
    return CoeffVec._wrap(fdelta.extended(dim))


def _residual_norm(ax: CoeffVec, rhs: CoeffVec) -> float:
    """||A x - f|| on full-length vectors (the reference the support kernel
    reproduces)."""
    d = ax.coeffs - rhs.coeffs
    return float(np.sqrt(np.sum(d * d)))


class _SupportKernel:
    """The iteration of one level on the operator's support.

    Only the nonzero rows R and nonzero columns C of the level-n matrix take
    part: every iterate vanishes off C, and off R the residual is the data
    itself. The iteration therefore runs on length-|C| arrays with the block
    A[R][:, C], whose products ``op.block()`` hands over (equal to the full
    ones bit for bit), and the residual norm is
    sqrt(||A_RC x - f_R||^2 + off2), where off2 = sum over i not in R of
    f_i^2 is streamed from the off-R entries by ``NoisyData.window`` (not
    as ||f||^2 - ||f_R||^2, which cancels) in the block order of
    ``problems._block_sumsq``: a BLAS dot product of that length rounds
    differently with its threads.

    A level calls ``spec.steps()`` once and draws one pair of step
    coefficients per step, none past its last; a step advances through
    ``methods._advance`` with its pair and makes the two block products of
    ``op.block()``: one elementwise multiply each when the block is diagonal
    (every level of the shipped Green operator), a gather, scale and
    bincount otherwise, to the same bits. Past those it makes only numpy
    calls and one ``math.sqrt``.
    """

    def __init__(self, op, data: NoisyData, residuals: array, cap: int):
        """Read ``data`` on the level window: f_delta on R and off2."""
        rows, self.cols, self.forward, self.adjoint = op.block()
        self.data, self.off2 = data.window(op.dim, rows)
        self.level, self.residuals, self.cap = op.level, residuals, cap

    def iterates(self, spec: MethodSpec, m: int, window=None):
        """Yield (k, x_k restricted to C, ||A x_k - f||) for k = 1..m, each
        step computed only when it is asked for, into row k - 1 of
        ``window`` (m x |C|) if given; a yielded iterate is never written to
        again. Each residual norm is appended to the run's ``residuals``;
        asking for a step past ``cap`` of them raises ``CapExceededError``,
        a non-finite residual norm ``NumericalDegeneracyError``."""
        forward, adjoint, f, off2 = self.forward, self.adjoint, self.data, self.off2
        residuals = self.residuals
        last = min(m, self.cap - len(residuals))
        x = x_prev = np.zeros(self.cols.size)
        r = f
        # the range first, so that no pair past step ``last`` is drawn
        for k, (mu_k, two_omega_k) in zip(range(last + 1), spec.steps()):
            update = adjoint(r)
            out = None if window is None or not k else window[k - 1]
            x_prev, x = x, _advance(mu_k, two_omega_k, x, x_prev, update, out)
            r = forward(x)
            np.subtract(f, r, out=r)
            if k:
                res = math.sqrt(float(r @ r) + off2)
                if not math.isfinite(res):
                    raise NumericalDegeneracyError(
                        f"non-finite residual norm at level {self.level}, step {k}")
                residuals.append(res)
                yield k, x, res
        if last < m:
            raise CapExceededError(
                "iterations", f"total iteration cap k_abs_max={self.cap} exceeded")


def _discrepancy_stop(kernel, k_n: int, p: RunParams, spec: MethodSpec):
    """First of the iterates 1..K_n whose residual norm is at most tau delta."""
    bound = p.tau * p.delta
    for k, x, res in kernel.iterates(spec, k_n):
        if res <= bound:
            return k, x
    return None


def _balancing_stop(kernel, k_n: int, p: RunParams, spec: MethodSpec):
    """Smallest admissible index of the K_n + k_sec iterates with bound
    8 (1 + gamma) kappa0 j delta. The iterates are computed straight into
    the rows of one (K_n + k_sec) x |C| array, which the scan reads in place."""
    window = np.empty((k_n + p.k_sec, kernel.cols.size))
    for _ in kernel.iterates(spec, len(window), window):
        pass
    stop = balancing_stop_index(BalancingWindow(
        iterates=window, k_n=k_n, k_sec=p.k_sec,
        bound_factor=8.0 * (1.0 + p.gamma) * spec.kappa0 * p.delta,
    ))
    return None if stop is None else (stop, window[stop - 1].copy())


def _level_loop(problem: Problem, spec: MethodSpec, p: RunParams,
                algorithm: int, stop_rule) -> RunReport:
    """The run both drivers share, from its data to its report. It is called
    by a driver, so a warning's stacklevel of 3 names the driver's caller.

    Per level it computes the budget K_n and, when K_n >= 1, hands
    ``stop_rule(kernel, K_n, p, spec)`` the level's ``_SupportKernel``; the
    rule steps it as far as it needs and returns ``(k, x_k)`` to stop or
    None to refine. The report holds x_k on the support columns and reads
    the exact solution only up to the last of them for the error.
    """
    if not getattr(problem, "scaled", True):
        warnings.warn(
            "running on the unscaled operator; the smoothness-class "
            "constants behind the level and budget rules are not sharp",
            stacklevel=3,
        )
    data, rhs_norm = _noisy_data(problem, p.noise_dim, p.delta, p.seed)
    if p.delta >= rhs_norm:
        warnings.warn(
            f"noise level delta={p.delta:g} is not below ||f||={rhs_norm:g}; "
            "the stopping-index and error bounds are not guaranteed",
            stacklevel=3,
        )
    src = problem.fresh_source()
    first = n = initial_level(p)
    op = assemble(src, n)
    residuals = array("d")
    while True:
        k_n = max_iter_count(n, p)
        if k_n >= 1:
            kernel = _SupportKernel(op, data, residuals, p.k_abs_max)
            # a budget past the iteration cap reaches the cap all the same,
            # and the balancing window has a row per step of the budget
            hit = stop_rule(kernel, min(k_n, p.k_abs_max + 1), p, spec)
            if hit is not None:
                break
        if n >= p.n_max:
            raise CapExceededError(
                "level", f"level cap n_max={p.n_max} reached without stopping"
            )
        op = refine(op, src)
        n += 1
    stop_index, x = hit
    abs_error, exact_norm = _error_norms(problem, kernel.cols, x, max(op.dim, p.noise_dim))
    return RunReport(
        algorithm=algorithm,
        method=spec,
        params=p,
        levels=tuple(range(first, n + 1)),
        stop_index=stop_index,
        solution=Solution(kernel.cols, x, op.dim),
        residual_norms=np.frombuffer(residuals),
        info_count=src.eval_count,
        rhs_norm=rhs_norm,
        abs_error=abs_error,
        exact_norm=exact_norm,
    )


def _check_discrepancy(spec: MethodSpec, p: RunParams) -> None:
    """Raise ConfigError unless the discrepancy driver admits the method
    (qualification >= 2) and tau (above the admissibility threshold)."""
    if spec.qualification < 2.0:
        raise ConfigError(
            f"discrepancy driver needs qualification >= 2, got {spec.qualification}"
        )
    thr = admissibility_threshold(spec, p.gamma)
    if p.tau <= thr:
        raise ConfigError(
            f"tau={p.tau} must exceed the admissibility threshold {thr:.6g}"
        )


def run_discrepancy(problem: Problem, spec: MethodSpec, p: RunParams) -> RunReport:
    """Adaptive run stopped by the residual discrepancy test.

    Requires a method of qualification >= 2 and tau above the admissibility
    threshold. Per level, iterates k = 1..K_n are tested in order against
    the data truncated to the level window; the first residual norm at or
    below tau delta stops the run. The report's ``diagnostics(mu)`` gives
    the a-priori bounds.
    """
    _check_discrepancy(spec, p)
    return _level_loop(problem, spec, p, 1, _discrepancy_stop)


def run_balancing(problem: Problem, spec: MethodSpec, p: RunParams) -> RunReport:
    """Adaptive run stopped by the balancing principle.

    Per level, K_n + k_sec iterates are computed and the admissible set with
    bound 8 (1 + gamma) kappa0 j delta is evaluated; an empty set triggers
    refinement, otherwise the smallest admissible index is returned. The
    iterate window holds the iterates on the operator's nonzero column
    support (every iterate vanishes off it), which bounds memory without
    changing any norm; the report's ``diagnostics(mu)`` gives the bounds.
    """
    return _level_loop(problem, spec, p, 2, _balancing_stop)
