"""Hyperbolic-cross index sets and the sparse Galerkin operators they carry.

The level-n cross is the union of dyadic rectangles with a full first row,

    row 1:   {1} x [1, 2^{2n}],
    strips:  (2^{k-1}, 2^k] x [1, 2^{2n-k}],   k = 1..2n,

holding 2^{2n}(n+1) index pairs out of the 2^{4n} of the square
[1, 2^{2n}]^2. The first coordinate of a pair is the output (row) index of
the assembled operator, the second the input (column) index; the entry an
information source returns at (i, j) is read as the matrix element coupling
input component j to output component i (for the self-adjoint operators
shipped with this package the orientation is immaterial).

The cross of level n minus the cross of any lower level m is again a list
of rectangles, one per row band, so both assembly and refinement put
``entry_block`` queries to the source, one per rectangle. Each query counts
every pair of its rectangle as one evaluation and returns only the nonzero
entries. Assembly thus spends exactly one evaluation per pair of the cross,
and refinement only those of the difference set of two consecutive levels,
so the total number of evaluations after reaching level n is 2^{2n}(n+1) no
matter how many refinement steps were taken; the operator stores the
nonzero entries alone.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .coeffs import CoeffVec

__all__ = [
    "gamma_count",
    "gamma_pairs",
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


def _rectangles(n: int, m: int | None = None):
    """The level-n cross minus the level-m cross (m < n; the whole cross
    when m is None) as half-open rectangles ``(rows_lo, rows_hi, cols_lo,
    cols_hi)``, one per row band, in ascending row order.

    Row band k (rows (2^{k-1}, 2^k], band 0 being row 1) spans the columns
    (0, 2^{2n-k}] at level n; the level-m cross already holds its first
    2^{2m-k} of them when k <= 2m.
    """
    for k in range(2 * n + 1):
        cols_lo = 0 if m is None or k > 2 * m else 1 << (2 * m - k)
        yield (1 << k) >> 1, 1 << k, cols_lo, 1 << (2 * n - k)


def _block_pairs(rows_lo: int, rows_hi: int, cols_lo: int, cols_hi: int):
    """All pairs of (rows_lo, rows_hi] x (cols_lo, cols_hi] as flat arrays,
    row-major."""
    rr = np.arange(rows_lo + 1, rows_hi + 1, dtype=np.int64)
    cc = np.arange(cols_lo + 1, cols_hi + 1, dtype=np.int64)
    return np.repeat(rr, cc.size), np.tile(cc, rr.size)


def gamma_pairs(n: int) -> np.ndarray:
    """Level-n cross as an (m, 2) array of (row, column) pairs, sorted
    row-major: the rectangles are disjoint and come in ascending row order,
    so concatenating their row-major pairs needs neither a sort nor
    deduplication."""
    if n < 0:
        raise ValueError("level must be >= 0")
    blocks = [_block_pairs(*rect) for rect in _rectangles(n)]
    return np.column_stack([np.concatenate(axis) for axis in zip(*blocks)])


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

    ``entry_block`` answers a rectangle of index pairs with the Galerkin
    coefficients at output index i and input index j, deterministically,
    and increments the evaluation counter by one per pair of it.

    Subclasses implement ``_values``, the entries at aligned 1-based index
    arrays; a subclass that knows where its nonzeros lie may also override
    ``entry_block``.
    """

    def __init__(self):
        self._count = 0

    # -- information accounting ------------------------------------------
    @property
    def eval_count(self) -> int:
        """Total number of entry evaluations so far."""
        return self._count

    # -- entries -----------------------------------------------------------
    def _values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def entry_block(self, rows_lo: int, rows_hi: int, cols_lo: int,
                    cols_hi: int):
        """The nonzero entries of the rectangle (rows_lo, rows_hi] x
        (cols_lo, cols_hi] as row-major ``(rows, cols, vals)``; every pair
        of the rectangle counts as one evaluation."""
        rows, cols = _block_pairs(rows_lo, rows_hi, cols_lo, cols_hi)
        self._count += rows.size
        vals = np.asarray(self._values(rows, cols), dtype=float)
        nz = vals != 0.0
        return rows[nz], cols[nz], vals[nz]


class DiagonalSource(GalerkinInfoSource):
    """Information source of an operator that is diagonal in the basis.

    ``diag`` maps a 1-based integer index array to the diagonal values;
    off-diagonal entries are exactly zero, so a rectangle is answered from
    its stretch of the diagonal alone (its whole area still counts).
    """

    def __init__(self, diag, dim_hint: int | None = None):
        super().__init__()
        self._diag = diag
        self.dim_hint = dim_hint

    def _values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        vals = np.zeros(rows.size)
        on_diag = rows == cols
        if np.any(on_diag):
            vals[on_diag] = self._diag(rows[on_diag].astype(np.int64))
        return vals

    def entry_block(self, rows_lo: int, rows_hi: int, cols_lo: int,
                    cols_hi: int):
        self._count += max(rows_hi - rows_lo, 0) * max(cols_hi - cols_lo, 0)
        idx = np.arange(max(rows_lo, cols_lo) + 1, min(rows_hi, cols_hi) + 1,
                        dtype=np.int64)
        vals = np.asarray(self._diag(idx), dtype=float)
        nz = vals != 0.0
        return idx[nz], idx[nz], vals[nz]


class GalerkinOperator:
    """The discretized operator of one cross level: a sparse matrix over the
    nonzero entries of the cross, acting on coefficient vectors of dimension
    2^{2n}.

    ``rows``/``cols``/``vals`` hold the nonzero entries alone (1-based
    indices), sorted row-major, which makes construction reproducible; the
    zero entries of the cross were counted as information when queried but
    are not stored.
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
        mat = scipy.sparse.csr_matrix(
            (vals, (rows - 1, cols - 1)), shape=(self.dim, self.dim)
        )
        self._mat = mat
        self._mat_t = mat.T.tocsr()

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


def _grow(src: GalerkinInfoSource, n: int,
          op: GalerkinOperator | None = None) -> GalerkinOperator:
    """The level-n operator: the nonzeros of ``op`` (a lower level built from
    ``src``, or nothing) plus the answers to one ``entry_block`` query per
    rectangle of the level-n cross that ``op`` does not cover."""
    parts = [] if op is None else [(op.rows, op.cols, op.vals)]
    parts += [src.entry_block(*rect)
              for rect in _rectangles(n, None if op is None else op.level)]
    rows, cols, vals = (np.concatenate(axis) for axis in zip(*parts))
    order = np.lexsort((cols, rows))
    return GalerkinOperator(n, rows[order], cols[order], vals[order])


def assemble(src: GalerkinInfoSource, n: int) -> GalerkinOperator:
    """Assemble the level-n operator, counting exactly one evaluation of
    ``src`` per pair of the level-n cross."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return _grow(src, n)


def refine(op: GalerkinOperator, src: GalerkinInfoSource) -> GalerkinOperator:
    """Level n -> n+1, querying only the difference set of the two crosses.

    ``src`` must be the source ``op`` was assembled from (unchecked caller
    contract); the result is identical to a from-scratch assembly.
    """
    return _grow(src, op.level + 1, op)


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
