"""Stopping rules: residual discrepancy test and look-ahead balancing set.

Both inequalities are inclusive, so ties stop the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "discrepancy_met",
    "BalancingWindow",
    "balancing_admissible_set",
    "balancing_stop_index",
]


def discrepancy_met(residual_norm: float, tau: float, delta: float) -> bool:
    """True once the residual norm has dropped to tau * delta or below."""
    if tau <= 0 or delta <= 0:
        raise ValueError("tau and delta must be positive")
    if residual_norm < 0:
        raise ValueError("residual_norm must be nonnegative")
    return residual_norm <= tau * delta


@dataclass(frozen=True)
class BalancingWindow:
    """Iterates 1..K_n + K_sec of one discretization level plus the bound
    scale of the admissibility test.

    ``bound_factor`` is 8 (1 + gamma) kappa0 delta; index k is admissible
    when every later iterate j stays within bound_factor * j.
    """

    iterates: tuple
    k_n: int
    k_sec: int
    bound_factor: float

    def __post_init__(self):
        if self.k_n < 1 or self.k_sec < 1:
            raise ValueError("k_n and k_sec must be positive")
        if len(self.iterates) != self.k_n + self.k_sec:
            raise ValueError(
                f"expected {self.k_n + self.k_sec} iterates, got {len(self.iterates)}"
            )
        if self.bound_factor < 0:
            raise ValueError("bound_factor must be nonnegative")


def _admissible(w: BalancingWindow):
    """The admissible k <= K_n in increasing order, each candidate tested
    only when it is asked for (vectorized over its trailing iterates)."""
    m = len(w.iterates)
    dim = max(v.dim for v in w.iterates)
    stack = np.stack([v.extended(dim) for v in w.iterates])
    for k in range(1, w.k_n + 1):
        diffs = stack[k:] - stack[k - 1]
        dists = np.sqrt(np.sum(diffs * diffs, axis=1))
        bounds = w.bound_factor * np.arange(k + 1, m + 1, dtype=float)
        if np.all(dists <= bounds):
            yield k


def balancing_admissible_set(w: BalancingWindow) -> set:
    """All k <= K_n with ||x_k - x_j|| <= bound_factor * j for every j in
    (k, K_n + K_sec]; an empty result signals that the discretization level
    is too coarse."""
    return set(_admissible(w))


def balancing_stop_index(w: BalancingWindow):
    """Smallest admissible index, or None when the set is empty (the caller
    must then refine the discretization); candidates above it are never
    tested."""
    return next(_admissible(w), None)
