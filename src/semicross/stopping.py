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


@dataclass(frozen=True, eq=False)
class BalancingWindow:
    """Iterates 1..K_n + K_sec of one discretization level plus the bound
    scale of the admissibility test.

    ``iterates`` is a (K_n + K_sec) x d array whose row j - 1 holds iterate
    j; a sequence of ``CoeffVec``s is stacked into one (each zero-extended to
    the longest). ``bound_factor`` is 8 (1 + gamma) kappa0 delta; index k is
    admissible when every later iterate j stays within bound_factor * j.
    """

    iterates: np.ndarray
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
        if not isinstance(self.iterates, np.ndarray):
            dim = max(v.dim for v in self.iterates)
            object.__setattr__(self, "iterates",
                               np.stack([v.extended(dim) for v in self.iterates]))


#: trailing iterates tested in a candidate's first block; each later block
#: is twice as long, up to 1/32 of the window
_FIRST_BLOCK = 4


def _admissible(w: BalancingWindow):
    """The admissible k <= K_n in increasing order, each candidate tested
    only when it is asked for, on the window's array in place. A candidate's
    trailing iterates are compared in blocks of doubling length, starting
    next to it, and the first violated bound rejects it (most candidates
    fail close to k). A block holds at most 1/32 of the window's rows (or
    ``_FIRST_BLOCK``), and so do the scan's temporaries."""
    stack = w.iterates
    m = len(stack)
    bounds = w.bound_factor * np.arange(1, m + 1, dtype=float)
    largest = max(_FIRST_BLOCK, m // 32)
    for k in range(1, w.k_n + 1):
        x_k = stack[k - 1]
        lo, size = k, _FIRST_BLOCK
        while lo < m:
            hi = min(lo + size, m)
            diffs = stack[lo:hi] - x_k
            diffs *= diffs
            dists = np.add.reduce(diffs, axis=1)
            np.sqrt(dists, out=dists)
            if not (dists <= bounds[lo:hi]).all():
                break
            lo, size = hi, min(2 * size, largest)
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
