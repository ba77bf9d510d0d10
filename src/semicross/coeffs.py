"""Coefficient-space model of the underlying Hilbert space.

Every element is represented by its coefficient sequence with respect to a
fixed orthonormal basis. Component ``k`` (1-based in all documentation and
file formats) is the coefficient of the k-th basis element; internally the
coefficients live in a 0-based float64 array. Coefficients beyond a vector's
ambient length are semantically zero, so vectors of different lengths are
freely combinable: the shorter operand is zero-extended.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CoeffVec"]


class CoeffVec:
    """Immutable coefficient vector of a fixed ambient dimension."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.float64, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a coefficient vector needs at least one entry")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        self.coeffs = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "CoeffVec":
        # fast path for arithmetic results: float64, 1-D, freshly allocated
        v = object.__new__(cls)
        arr.flags.writeable = False
        v.coeffs = arr
        return v

    @classmethod
    def zeros(cls, dim: int) -> "CoeffVec":
        if dim < 1:
            raise ValueError("dim must be positive")
        return cls._wrap(np.zeros(int(dim)))

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def extended(self, dim: int) -> np.ndarray:
        """Raw coefficients zero-extended (or identical) to length ``dim``."""
        if dim < self.dim:
            raise ValueError("extension may not truncate")
        if dim == self.dim:
            return self.coeffs
        out = np.zeros(dim)
        out[: self.dim] = self.coeffs
        return out

    def __add__(self, other: "CoeffVec") -> "CoeffVec":
        n = max(self.dim, other.dim)
        return CoeffVec._wrap(self.extended(n) + other.extended(n))

    def __sub__(self, other: "CoeffVec") -> "CoeffVec":
        n = max(self.dim, other.dim)
        return CoeffVec._wrap(self.extended(n) - other.extended(n))

    def __mul__(self, scalar: float) -> "CoeffVec":
        return CoeffVec._wrap(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "CoeffVec":
        return CoeffVec._wrap(-self.coeffs)

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6)
        tail = ", ..." if self.dim > 4 else ""
        return f"CoeffVec(dim={self.dim}, {head}{tail})"
