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


#: trailing iterates tested in a scan's first block; each later block is
#: twice as long, up to 1/32 of the window
_FIRST_BLOCK = 4


def _admissible(w: BalancingWindow):
    """The admissible k <= K_n in increasing order, each candidate tested
    only when it is asked for, on the window's array in place. Candidate k
    is tested from the row that rejected candidate k - 1 to the end, and
    only then on the rows before (most candidates fail at once). Rows are
    compared in blocks of doubling length, at most 1/32 of the window (or
    ``_FIRST_BLOCK``); a NaN distance is a violation."""
    stack = w.iterates
    m = len(stack)
    bounds = w.bound_factor * np.arange(1, m + 1, dtype=float)
    largest = max(_FIRST_BLOCK, m // 32)
    def violation(x, lo, hi):
        """First row in [lo, hi) farther from x than its bound, or None."""
        size = _FIRST_BLOCK
        while lo < hi:
            top = min(lo + size, hi)
            diffs = stack[lo:top] - x
            diffs *= diffs
            dists = np.add.reduce(diffs, axis=1)
            np.sqrt(dists, out=dists)
            bad = ~(dists <= bounds[lo:top])
            if bad.any():
                return lo + int(bad.argmax())
            lo, size = top, min(2 * size, largest)

    last = 0  # the row that rejected the previous candidate, never row 0
    for k in range(1, w.k_n + 1):
        start = max(last, k)
        last = violation(stack[k - 1], start, m) or violation(stack[k - 1], k, start)
        if last is None:
            yield k
            last = k  # nothing rejected k: candidate k + 1 scans from its own next row


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
