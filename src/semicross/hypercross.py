"""Hyperbolic-cross index sets and the sparse Galerkin operators they carry.

The level-n cross is the union of dyadic strips with a full first row,

    strips:  (2^{k-1}, 2^k] x [1, 2^{2n-k}],   k = 1..2n,
    row 1:   {1} x [1, 2^{2n}],

holding 2^{2n}(n+1) index pairs out of the 2^{4n} of the square
[1, 2^{2n}]^2. The first coordinate of a pair is the output (row) index of
the assembled operator, the second the input (column) index; an information
source's ``entry(i, j)`` is read as the matrix element coupling input
component j to output component i (for the self-adjoint operators shipped
with this package the orientation is immaterial).

Assembly queries the source exactly once per retained pair and refinement
queries only the difference set of two consecutive levels, so the total
number of entry evaluations after reaching level n is 2^{2n}(n+1) no matter
how many refinement steps were taken.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .coeffs import CoeffVec

__all__ = [
    "gamma_count",
    "gamma_pairs",
    "gamma_delta_pairs",
    "gamma_set",
    "gamma_delta",
    "export_gamma",
    "GalerkinInfoSource",
    "DiagonalSource",
    "GalerkinOperator",
    "assemble",
    "refine",
    "discretization_bounds",
]


def gamma_count(n: int) -> int:
    """Cardinality 2^{2n}(n+1) of the level-n cross."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return (1 << (2 * n)) * (n + 1)


def _strip(rows_lo: int, rows_hi: int, cols_lo: int, cols_hi: int):
    """All pairs of (rows_lo, rows_hi] x (cols_lo, cols_hi] as flat arrays."""
    rr = np.arange(rows_lo + 1, rows_hi + 1, dtype=np.int64)
    cc = np.arange(cols_lo + 1, cols_hi + 1, dtype=np.int64)
    return (
        np.repeat(rr, cc.size),
        np.tile(cc, rr.size),
    )


def _sorted_rowmajor(rows: np.ndarray, cols: np.ndarray):
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def gamma_pairs(n: int) -> np.ndarray:
    """Level-n cross as an (m, 2) array of (row, column) pairs, sorted
    row-major. The strips and the first-row block are pairwise disjoint, so
    no deduplication is involved."""
    if n < 0:
        raise ValueError("level must be >= 0")
    parts_r = []
    parts_c = []
    r, c = _strip(0, 1, 0, 1 << (2 * n))  # {1} x [1, 2^{2n}]
    parts_r.append(r)
    parts_c.append(c)
    for k in range(1, 2 * n + 1):
        r, c = _strip(1 << (k - 1), 1 << k, 0, 1 << (2 * n - k))
        parts_r.append(r)
        parts_c.append(c)
    rows = np.concatenate(parts_r)
    cols = np.concatenate(parts_c)
    rows, cols = _sorted_rowmajor(rows, cols)
    return np.column_stack((rows, cols))


def gamma_delta_pairs(n: int) -> np.ndarray:
    """The difference set of levels n and n-1 (n >= 1), built strip by strip
    without materializing either full cross."""
    if n < 1:
        raise ValueError("level must be >= 1 for a difference set")
    m = n - 1
    parts_r = []
    parts_c = []
    # first-row block widens from 2^{2m} to 2^{2n}
    r, c = _strip(0, 1, 1 << (2 * m), 1 << (2 * n))
    parts_r.append(r)
    parts_c.append(c)
    # existing strips widen from 2^{2m-k} to 2^{2n-k} columns
    for k in range(1, 2 * m + 1):
        r, c = _strip(1 << (k - 1), 1 << k, 1 << (2 * m - k), 1 << (2 * n - k))
        parts_r.append(r)
        parts_c.append(c)
    # two entirely new strips k = 2n-1, 2n
    for k in (2 * n - 1, 2 * n):
        r, c = _strip(1 << (k - 1), 1 << k, 0, 1 << (2 * n - k))
        parts_r.append(r)
        parts_c.append(c)
    rows = np.concatenate(parts_r)
    cols = np.concatenate(parts_c)
    rows, cols = _sorted_rowmajor(rows, cols)
    return np.column_stack((rows, cols))


def gamma_set(n: int) -> set:
    """Level-n cross as a set of (row, column) tuples."""
    return {(int(i), int(j)) for i, j in gamma_pairs(n)}


def gamma_delta(n: int) -> set:
    """Difference set of levels n and n-1 as tuples (n >= 1)."""
    return {(int(i), int(j)) for i, j in gamma_delta_pairs(n)}


def export_gamma(n: int, path) -> None:
    """Write the level-n cross to a two-column text file.

    Each line holds one pair as ``<column> <row>`` (input index first, so
    columns plot on the horizontal axis); lines are sorted lexicographically
    by that order.
    """
    pairs = gamma_pairs(n)
    flipped = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
    with open(path, "w") as fh:
        for i, j in flipped:
            fh.write(f"{j} {i}\n")


class GalerkinInfoSource:
    """Provider of the discrete information about an operator equation.

    ``entry(i, j)`` returns the Galerkin coefficient at output index i and
    input index j, deterministically, and increments the evaluation counter
    by one; ``entry_many`` is the vectorized form counting one per element.
    ``r`` declares the smoothness-class exponent of the operator (projection
    tails decay like m^{-r}).

    Subclasses implement ``_value``; vectorized subclasses may override
    ``_values``.
    """

    def __init__(self, r: float):
        if r <= 0:
            raise ValueError("smoothness exponent r must be positive")
        self.r = float(r)
        self._count = 0

    # -- information accounting ------------------------------------------
    @property
    def eval_count(self) -> int:
        """Total number of entry evaluations so far."""
        return self._count

    # -- entries -----------------------------------------------------------
    def _value(self, i: int, j: int) -> float:
        raise NotImplementedError

    def _values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.array([self._value(int(i), int(j)) for i, j in zip(rows, cols)])

    def entry(self, i: int, j: int) -> float:
        if i < 1 or j < 1:
            raise ValueError("indices are 1-based")
        self._count += 1
        return float(self._value(i, j))

    def entry_many(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        if rows.shape != cols.shape:
            raise ValueError("row/column index arrays must align")
        self._count += rows.size
        return np.asarray(self._values(rows, cols), dtype=float)


class DiagonalSource(GalerkinInfoSource):
    """Information source of an operator that is diagonal in the basis.

    ``diag`` maps a 1-based integer index array to the diagonal values;
    off-diagonal entries are exactly zero.
    """

    def __init__(self, diag, r: float, dim_hint: int | None = None):
        super().__init__(r)
        self._diag = diag
        self.dim_hint = dim_hint

    def _value(self, i: int, j: int) -> float:
        if i != j:
            return 0.0
        return float(self._diag(np.asarray([i], dtype=np.int64))[0])

    def _values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        vals = np.zeros(rows.size)
        on_diag = rows == cols
        if np.any(on_diag):
            vals[on_diag] = self._diag(rows[on_diag].astype(np.int64))
        return vals

    def diagonal(self, indices: np.ndarray) -> np.ndarray:
        """Diagnostic access to diagonal values; does not count as
        Galerkin information."""
        return np.asarray(self._diag(np.asarray(indices, dtype=np.int64)), dtype=float)


class GalerkinOperator:
    """The discretized operator of one cross level: a sparse matrix over the
    retained index pairs, acting on coefficient vectors of dimension 2^{2n}.

    The retained-entry table keeps every pair of the cross (zero values
    included) in sorted row-major order, which pins the information count and
    makes construction reproducible; the matrix-vector products run on the
    nonzero entries only.
    """

    __slots__ = ("level", "dim", "rows", "cols", "vals", "_mat", "_mat_t")

    def __init__(self, level: int, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray):
        self.level = int(level)
        self.dim = 1 << (2 * self.level)
        for arr in (rows, cols, vals):
            arr.flags.writeable = False
        self.rows = rows
        self.cols = cols
        self.vals = vals
        nz = vals != 0.0
        mat = scipy.sparse.csr_matrix(
            (vals[nz], (rows[nz] - 1, cols[nz] - 1)), shape=(self.dim, self.dim)
        )
        self._mat = mat
        self._mat_t = mat.T.tocsr()

    @property
    def entry_count(self) -> int:
        return self.vals.size

    def entry_map(self) -> dict:
        """Retained entries as a dict keyed by (row, column); intended for
        inspection at small levels."""
        return {
            (int(i), int(j)): float(v)
            for i, j, v in zip(self.rows, self.cols, self.vals)
        }

    def column_support(self) -> np.ndarray:
        """Sorted 1-based column indices carrying a nonzero entry. Every
        iterate of the two-step recursion lives in their span."""
        return np.flatnonzero(np.diff(self._mat_t.indptr)) + 1

    def support_block(self):
        """The operator restricted to its nonzero rows R and nonzero columns
        C: ``(rows, cols, block, block_t)`` with the sorted 0-based index
        arrays of R and C, the CSR matrix A[R][:, C] and its transpose.

        Every nonzero entry lies in the block, and each row of either matrix
        keeps the entry order of the full CSR, so block products equal the
        full products on R (resp. C) bit for bit.
        """
        rows = np.flatnonzero(np.diff(self._mat.indptr))
        cols = np.flatnonzero(np.diff(self._mat_t.indptr))
        return rows, cols, self._mat[rows][:, cols], self._mat_t[cols][:, rows]

    def apply(self, v: CoeffVec) -> CoeffVec:
        if v.dim > self.dim:
            raise ValueError(f"vector dimension {v.dim} exceeds operator dimension {self.dim}")
        return CoeffVec._wrap(self._mat.dot(v.extended(self.dim)))

    def apply_adjoint(self, w: CoeffVec) -> CoeffVec:
        if w.dim > self.dim:
            raise ValueError(f"vector dimension {w.dim} exceeds operator dimension {self.dim}")
        return CoeffVec._wrap(self._mat_t.dot(w.extended(self.dim)))


def assemble(src: GalerkinInfoSource, n: int) -> GalerkinOperator:
    """Assemble the level-n operator, querying ``src.entry`` exactly once per
    pair of the level-n cross."""
    pairs = gamma_pairs(n)
    rows = pairs[:, 0]
    cols = pairs[:, 1]
    vals = src.entry_many(rows, cols)
    return GalerkinOperator(n, rows, cols, vals)


def refine(op: GalerkinOperator, src: GalerkinInfoSource) -> GalerkinOperator:
    """Level n -> n+1, querying only the difference set of the two crosses.

    ``src`` must be the source ``op`` was assembled from (unchecked caller
    contract); retained entries are identical to a from-scratch assembly.
    """
    n_new = op.level + 1
    delta = gamma_delta_pairs(n_new)
    d_vals = src.entry_many(delta[:, 0], delta[:, 1])
    rows = np.concatenate((op.rows, delta[:, 0]))
    cols = np.concatenate((op.cols, delta[:, 1]))
    vals = np.concatenate((op.vals, d_vals))
    order = np.lexsort((cols, rows))
    return GalerkinOperator(n_new, rows[order], cols[order], vals[order])


def discretization_bounds(r: float, n: int) -> tuple:
    """Worst-case discretization error bounds of the level-n cross for an
    operator of smoothness class exponent r:

        ||A*A - A_n* A_n||   <= (1 + 2^{r+3}) 2^{-2rn} n,
        ||A_n* (A - A_n)||   <= 3 * 2^{-2rn+r} n,
        ||A - A P_{2^{2n}}|| <= 2^{-2rn}.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    b1 = (1.0 + 2.0 ** (r + 3.0)) * 2.0 ** (-2.0 * r * n) * n
    b2 = 3.0 * 2.0 ** (-2.0 * r * n + r) * n
    b3 = 2.0 ** (-2.0 * r * n)
    return (b1, b2, b3)
