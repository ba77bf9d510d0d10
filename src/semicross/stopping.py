"""The balancing principle: look-ahead window and admissible set.

The bound is inclusive, so a tie is admissible. The other stopping rule,
the residual discrepancy test, is one comparison that the discrepancy
driver makes inline (``driver._discrepancy_stop``); it is inclusive too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BalancingWindow",
    "balancing_admissible_set",
    "balancing_stop_index",
]


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


#: trailing iterates tested in a candidate's first block; each later block
#: is twice as long
_FIRST_BLOCK = 4


def _admissible(w: BalancingWindow):
    """The admissible k <= K_n in increasing order, each candidate tested
    only when it is asked for. A candidate's trailing iterates are compared
    in blocks of doubling length, starting next to it, and the first
    violated bound rejects it (most candidates fail close to k)."""
    m = len(w.iterates)
    dim = max(v.dim for v in w.iterates)
    stack = np.stack([v.extended(dim) for v in w.iterates])
    for k in range(1, w.k_n + 1):
        lo, size = k, _FIRST_BLOCK
        while lo < m:
            hi = min(lo + size, m)
            diffs = stack[lo:hi] - stack[k - 1]
            dists = np.sqrt(np.sum(diffs * diffs, axis=1))
            bounds = w.bound_factor * np.arange(lo + 1, hi + 1, dtype=float)
            if not np.all(dists <= bounds):
                break
            lo, size = hi, 2 * size
        else:
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
