import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from semicross.coeffs import CoeffVec
from semicross.hypercross import (
    DiagonalSource,
    GalerkinInfoSource,
    _rectangles,
    assemble,
    discretization_bounds,
    export_gamma,
    gamma_count,
    refine,
)
from semicross.problems import green_operator

from helpers import HashSource, dense_cross_assembly, gamma_pairs, green_spectrum, norm


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

def test_cardinality_formula():
    for n in range(0, 9):
        pairs = gamma_pairs(n)
        assert pairs.shape[0] == gamma_count(n) == (1 << (2 * n)) * (n + 1)
        # strips and first-row block are disjoint: no duplicates
        encoded = pairs[:, 0] * (1 << 40) + pairs[:, 1]
        assert np.unique(encoded).size == pairs.shape[0]


def _gamma_set(n):
    return {(int(i), int(j)) for i, j in gamma_pairs(n)}


def _rectangle_set(n, m):
    """Pairs of the rectangles of the level-n cross minus the level-m one."""
    return {(i, j) for r_lo, r_hi, c_lo, c_hi in _rectangles(n, m)
            for i in range(r_lo + 1, r_hi + 1) for j in range(c_lo + 1, c_hi + 1)}


class _RecordingSource(HashSource):
    """HashSource that records every pair its blocks evaluate."""

    def __init__(self, salt=0):
        super().__init__(salt=salt)
        self.seen = []

    def _values(self, rows, cols):
        self.seen += zip(rows.tolist(), cols.tolist())
        return super()._values(rows, cols)


def test_level_two_has_48_elements():
    assert len(_gamma_set(2)) == 48


def test_level_zero_is_single_pair():
    assert _gamma_set(0) == {(1, 1)}


@pytest.mark.parametrize("n", range(1, 7))
def test_nesting(n):
    assert _gamma_set(n - 1) <= _gamma_set(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_delta_is_literal_set_difference(n):
    # refine evaluates each pair of the difference set exactly once, and
    # since HashSource has no zero entry it stores the whole level-n cross
    src = _RecordingSource(salt=n)
    op = assemble(src, n - 1)
    src.seen.clear()
    op = refine(op, src)
    assert len(src.seen) == len(set(src.seen)) == gamma_count(n) - gamma_count(n - 1)
    assert set(src.seen) == _gamma_set(n) - _gamma_set(n - 1)
    assert src.eval_count == gamma_count(n)
    fresh = assemble(HashSource(salt=n), n)
    for got, want in ((op.rows, fresh.rows), (op.cols, fresh.cols), (op.vals, fresh.vals)):
        assert np.array_equal(got, want)


def test_delta_partitions_level_one():
    assert _rectangle_set(1, 0) | _gamma_set(0) == _gamma_set(1)
    assert _rectangle_set(2, 1) & _gamma_set(1) == set()


def test_delta_cardinality():
    # counted without building a pair array: the diagonal source answers
    # each rectangle from its stretch of the diagonal
    src = DiagonalSource(lambda kk: 1.0 / kk)
    op = assemble(src, 0)
    for n in range(1, 6):
        before = src.eval_count
        op = refine(op, src)
        assert src.eval_count - before == gamma_count(n) - gamma_count(n - 1)
        assert op.vals.size == 1 << n


def _triplets(block):
    return tuple(np.asarray(a).tolist() for a in block)


class _PairwiseDiagonal(GalerkinInfoSource):
    """A diagonal operator answered by the base path, pair by pair."""

    def __init__(self, diag):
        super().__init__()
        self.diag = diag

    def _values(self, rows, cols):
        return np.where(rows == cols, self.diag(rows), 0.0)


@pytest.mark.parametrize("n", range(0, 5))
def test_diagonal_block_query_matches_base_path(n):
    # zeros on the diagonal too, so the nonzero filter is exercised
    def diag(kk):
        return np.where(kk % 3 == 0, 0.0, -1.0 / kk)

    src, base = DiagonalSource(diag), _PairwiseDiagonal(diag)
    rects = list(_rectangles(n)) + (list(_rectangles(n, n - 1)) if n else [])
    missed = 0
    for rect in rects:
        before = src.eval_count
        fast = src.entry_block(*rect)
        slow = base.entry_block(*rect)
        area = (rect[1] - rect[0]) * (rect[3] - rect[2])
        assert src.eval_count - before == base.eval_count - before == area
        assert _triplets(fast) == _triplets(slow)
        if rect[2] >= rect[1] or rect[0] >= rect[3]:  # misses the diagonal
            assert all(a.size == 0 for a in fast)
            missed += 1
    assert missed > 0 or n == 0


def test_refine_peak_memory_is_nonzero_only():
    # the zero-retaining table peaked at 191 MB here (5.2M pairs at n = 9),
    # and dimension-length CSR row pointers at 2.6 MB
    src = green_operator()
    tracemalloc.start()
    try:
        op = refine(assemble(src, 8), src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert src.eval_count == gamma_count(9)
    assert op.vals.size == 1 << 9
    assert peak < 2 ** 20


def test_export_format(tmp_path):
    path = tmp_path / "gamma2.txt"
    export_gamma(2, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 48
    parsed = [tuple(map(int, ln.split())) for ln in lines]
    assert parsed == sorted(parsed)  # sorted by (column, row)
    assert {(i, j) for j, i in parsed} == _gamma_set(2)
    # byte for byte the oracle's pairs sorted by (column, row)
    for n in range(9):
        pairs = gamma_pairs(n)
        flipped = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
        export_gamma(n, path)
        assert path.read_text() == "".join(f"{j} {i}\n" for i, j in flipped.tolist())


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_queries_once_per_pair():
    src = HashSource()
    assemble(src, 2)
    assert src.eval_count == 48


def test_a_source_without_values_cannot_answer_a_block():
    class Bare(GalerkinInfoSource):
        pass

    with pytest.raises(NotImplementedError):
        Bare().entry_block(0, 2, 0, 2)


def test_refine_queries_only_the_difference():
    src = HashSource()
    op1 = assemble(src, 1)
    assert src.eval_count == 8
    refine(op1, src)
    assert src.eval_count == 48


def test_refine_equals_fresh_assembly():
    src_a = HashSource(salt=5)
    src_b = HashSource(salt=5)
    op = assemble(src_a, 1)
    for n in (2, 3):
        op = refine(op, src_a)
        fresh = assemble(src_b, n)
        assert np.array_equal(op.rows, fresh.rows)
        assert np.array_equal(op.cols, fresh.cols)
        assert np.array_equal(op.vals, fresh.vals)
        assert op.dim == fresh.dim == 1 << (2 * n)


def test_refine_quadruples_dimension():
    src = HashSource()
    op = assemble(src, 1)
    assert refine(op, src).dim == 4 * op.dim


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_assembly_matches_dense_projector_oracle(n):
    src = HashSource(salt=n)
    op = assemble(HashSource(salt=n), n)
    dense = np.zeros((op.dim, op.dim))
    dense[op.rows - 1, op.cols - 1] = op.vals
    oracle = dense_cross_assembly(src, n)
    assert np.allclose(dense, oracle, atol=1e-15)


def test_diagonal_source_action_is_truncated_diagonal():
    for n in (1, 2, 3, 4):
        src = DiagonalSource(lambda kk: 1.0 / kk)
        op = assemble(src, n)
        rng = np.random.default_rng(n)
        v = rng.standard_normal(op.dim)
        out = op.apply(CoeffVec(v))
        keep = 1 << n
        expect = np.zeros(op.dim)
        expect[:keep] = v[:keep] / np.arange(1, keep + 1)
        assert np.allclose(out.coeffs, expect, atol=1e-15)
        support = op.column_support()
        assert np.array_equal(support, np.arange(1, keep + 1))


def test_zero_source_gives_zero_operator():
    src = DiagonalSource(lambda kk: np.zeros(kk.size))
    op = assemble(src, 2)
    v = CoeffVec(np.ones(op.dim))
    assert norm(op.apply(v)) == 0.0
    assert src.eval_count == 48  # zero values still count as information
    assert op.vals.size == 0


def test_apply_zero_vector():
    op = assemble(HashSource(), 2)
    assert norm(op.apply(CoeffVec.zeros(op.dim))) == 0.0


def test_adjoint_is_transpose():
    op = assemble(HashSource(salt=9), 2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = CoeffVec(rng.standard_normal(op.dim))
        w = CoeffVec(rng.standard_normal(op.dim))
        a = float(op.apply(v).coeffs @ w.coeffs)
        b = float(v.coeffs @ op.apply_adjoint(w).coeffs)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_products_sum_each_output_in_entry_order(n):
    # the dense HashSource cross sums up to 2^{2n} terms per output, so a
    # change of summation order shows in the last bits; CSR sums each row of
    # A and of A^T in ascending column (resp. row) order
    op = assemble(HashSource(salt=n), n)
    x = np.random.default_rng(n).standard_normal(op.dim)
    csr = scipy.sparse.csr_matrix((op.vals, (op.rows - 1, op.cols - 1)),
                                  shape=(op.dim, op.dim))
    ax = op.apply(CoeffVec(x)).coeffs
    atx = op.apply_adjoint(CoeffVec(x)).coeffs
    assert np.array_equal(ax, csr @ x)
    assert np.array_equal(atx, csr.T.tocsr() @ x)
    rows, cols, forward, adjoint = op.block()
    assert np.array_equal(rows, np.unique(op.rows) - 1)
    assert np.array_equal(cols, np.unique(op.cols) - 1)
    assert np.array_equal(forward(x[cols]), ax[rows])
    assert np.array_equal(adjoint(x[rows]), atx[cols])


def test_apply_zero_extends_shorter_vectors():
    op = assemble(HashSource(salt=2), 2)
    short = CoeffVec([1.0, -1.0, 0.5])
    long = CoeffVec(short.extended(op.dim))
    assert np.array_equal(op.apply(short).coeffs, op.apply(long).coeffs)
    with pytest.raises(ValueError):
        op.apply(CoeffVec(np.ones(op.dim + 1)))
    with pytest.raises(ValueError, match="exceeds operator dimension"):
        op.apply_adjoint(CoeffVec(np.ones(op.dim + 1)))


# ---------------------------------------------------------------------------
# discretization bounds
# ---------------------------------------------------------------------------

def test_bound_values():
    b1, b2, b3 = discretization_bounds(2.0, 1)
    assert b1 == pytest.approx(33.0 / 16.0, rel=1e-15)
    assert b2 == pytest.approx(3.0 * 2.0 ** (-2.0), rel=1e-15)
    assert b3 == pytest.approx(2.0 ** (-4.0), rel=1e-15)
    b1_6, _, _ = discretization_bounds(2.0, 6)
    assert b1_6 == pytest.approx(33.0 * 6.0 / 2.0 ** 24, rel=1e-15)


@pytest.mark.parametrize("call, match", [
    (lambda path: gamma_count(-1), "level must be >= 0"),
    (lambda path: export_gamma(-1, path), "level must be >= 0"),
    (lambda path: assemble(HashSource(salt=2), -1), "level must be >= 0"),
    (lambda path: discretization_bounds(0, 1), "r must be positive"),
    (lambda path: discretization_bounds(2, 0), "n must be >= 1"),
])
def test_levels_and_class_exponents_are_checked(call, match, tmp_path):
    path = tmp_path / "gamma.txt"
    with pytest.raises(ValueError, match=match):
        call(path)
    assert not path.exists()


def test_bounds_decrease_in_level():
    for r in (1.0, 2.0, 3.5):
        prev = discretization_bounds(r, 1)
        for n in range(2, 9):
            cur = discretization_bounds(r, n)
            assert all(c < p for c, p in zip(cur, prev))
            prev = cur


def test_bounds_realized_by_shipped_operator():
    # diagonal spectrum -k^{-2}: all three norms are exactly computable
    for n in range(1, 7):
        src = green_operator(scaled=True)
        op = assemble(src, n)
        keep = 1 << n
        diag = green_spectrum(op.dim)
        retained = np.zeros(op.dim)
        retained[:keep] = diag[:keep]
        # sup over the whole spectrum: the tail beyond the window is
        # monotone, so the sup sits at the first dropped index
        norm_a2 = max(np.max(np.abs(diag ** 2 - retained ** 2)),
                      (1.0 / (op.dim + 1) ** 2) ** 2)
        norm_mixed = np.max(np.abs(retained * (diag - retained)))
        b1, b2, _ = discretization_bounds(2.0, n)
        assert norm_a2 == (1.0 / (keep + 1) ** 2) ** 2
        assert norm_a2 <= b1
        assert norm_mixed == 0.0 <= b2
