"""Shared test fixtures: tiny operators and reference oracles."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from semicross.coeffs import CoeffVec
from semicross.hypercross import GalerkinInfoSource
from semicross.methods import NumericalDegeneracyError
from semicross.problems import green_operator


def gamma_pairs(n: int) -> np.ndarray:
    """Oracle: the level-n cross, the pairs (i, j) of [1, 2^{2n}]^2 with
    ceil(log2 i) + ceil(log2 j) <= 2n, as an (m, 2) array of (row, column)
    pairs, sorted row-major."""
    rows = np.arange(1, (1 << (2 * n)) + 1)
    widths = 1 << (2 * n - np.frexp(rows - 1)[1])  # frexp: bit lengths
    starts = np.cumsum(widths) - widths
    cols = np.arange(widths.sum()) - np.repeat(starts, widths) + 1
    return np.column_stack([np.repeat(rows, widths), cols])


def entry_positions(op):
    """Oracle: ``(R, C, ri, ci)``, the sorted 0-based nonzero rows R and
    columns C of an operator, and each entry's position in R and in C."""
    rows, ri = np.unique(op.rows - 1, return_inverse=True)
    cols, ci = np.unique(op.cols - 1, return_inverse=True)
    return rows, cols, ri, ci


def norm(v: CoeffVec) -> float:
    """The coefficient-space norm sqrt((v, v)), summed by one ``np.sum``."""
    return float(np.sqrt(np.sum(v.coeffs * v.coeffs)))


def block_sumsq(v: np.ndarray, first: int) -> float:
    """Oracle: the sum of squares of the whole array ``v`` in the block
    order of ``problems._block_sumsq``. The blocks are [0, b), [b, 2b),
    [2b, 4b), ... with b = ``first``, cut at v.size; each block's sum is
    0.0 plus np.sum(w * w) of its leaves w, the pieces of at most 2^13
    entries from its start, in order; the total is math.fsum of the
    block sums."""
    ends = [min(first << i, v.size) for i in range(((v.size - 1) // first).bit_length() + 1)]
    sums = []
    for block in np.split(v, ends[:-1]):
        s = 0.0
        for w in np.split(block, range(2 ** 13, block.size, 2 ** 13)):
            s += np.sum(w * w)
        sums.append(s)
    return math.fsum(sums)


#: run parameters at the edges of what ``RunParams`` takes: delta, rho and
#: gamma from a subnormal to 1e300, r from 1e-3 to 40, up to level 8 and
#: noise_dim 2^12
_WIDE = st.sampled_from([1e-320, 1e-300, 1e-12, 2.0 ** -8, 0.5, 1.0, 1e6,
                         1e150, 1e300])
EDGE_RUNS = st.fixed_dictionaries({
    "pid": st.sampled_from(["p1", "p2"]),
    "algorithm": st.sampled_from([1, 2]),
    "delta": _WIDE,
    "rho": _WIDE,
    "gamma": _WIDE,
    "r": st.sampled_from([1e-3, 0.5, 2.0, 8.0, 40.0]),
    "tau": st.sampled_from([1.0, 2.5, 1e6]),
    "k_sec": st.sampled_from([1, 20]),
    "seed": st.integers(0, 3),
    "n_max": st.integers(1, 8),
    "k_abs_max": st.sampled_from([1, 30, 300]),
    "noise_dim": st.sampled_from([1, 7, 64, 4096]),
})


class HeldData:
    """Data held as one full-length array, read the way the support kernel
    reads ``NoisyData.window``: the entries at the sorted 0-based rows, and
    the sum of squares of the others, summed as one ``np.sum``."""

    def __init__(self, data):
        self.data = np.asarray(data, dtype=float)

    def window(self, dim: int, rows: np.ndarray):
        assert dim == self.data.size
        off = np.delete(self.data, rows)
        return self.data[rows], float(np.sum(off * off))


class DiagonalOperator:
    """Plain diagonal operator on a fixed dimension (self-adjoint for real
    diagonals, which is all the tests need)."""

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=float)
        self.dim = self.diag.size

    def apply(self, v: CoeffVec) -> CoeffVec:
        if v.dim > self.dim:
            raise ValueError("dimension mismatch")
        return CoeffVec(self.diag * v.extended(self.dim))

    apply_adjoint = apply


class ZeroOperator:
    def __init__(self, dim):
        self.dim = dim

    def apply(self, v: CoeffVec) -> CoeffVec:
        return CoeffVec.zeros(self.dim)

    apply_adjoint = apply


class HashSource(GalerkinInfoSource):
    """Deterministic dense pseudo-random information source: the entry at
    (i, j) is a fixed function of the indices. Used to exercise assembly
    against the dense projector-composition oracle."""

    def __init__(self, salt=0):
        super().__init__()
        self.salt = salt

    def _values(self, rows, cols):
        mixed = (rows.astype(np.int64) * 2654435761 + cols.astype(np.int64) * 40503
                 + self.salt) % 1000003
        return (mixed.astype(float) / 1000003.0) - 0.5


def recurrence_steps(alpha, beta):
    """Oracle: a ``MethodSpec.steps`` for the monic recurrence with
    coefficients ``alpha(k)`` and ``beta(k)``, by the omega recursion

        omega_0 = 1/(1 - alpha_0),
        omega_k = 1/(1 - alpha_k - beta_k omega_{k-1}),   k >= 1,
        mu_k = (1 - alpha_k) omega_k - 1,

    run in the number type that ``alpha`` and ``beta`` return (fractions
    give exact values, rounded once into the float64 arrays). A denominator
    below 1e-14 in size raises ``NumericalDegeneracyError`` naming its k;
    ``alpha`` and ``beta`` run once per k of each call."""

    def steps(m: int):
        mu, two_omega, omega = [], [], 0
        for k in range(m + 1):
            alpha_k = alpha(k)
            den = 1 - alpha_k if k == 0 else 1 - alpha_k - beta(k) * omega
            if abs(den) < 1e-14:
                raise NumericalDegeneracyError(
                    f"omega recursion denominator {float(den):.3e} at k={k}")
            omega = 1 / den
            mu.append((1 - alpha_k) * omega - 1)
            two_omega.append(2 * omega)
        return np.array(mu, dtype=float), np.array(two_omega, dtype=float)

    return steps


def jacobi_recurrence(nu, exact: bool = False):
    """The nu-method's monic Jacobi recurrence, parameters (a, b) =
    (2 nu - 1/2, -1/2): ``(alpha, beta)`` with

        alpha_0 = (b - a)/(a + b + 2),
        alpha_k = (b^2 - a^2)/((2k+a+b)(2k+a+b+2)),       k >= 1,
        beta_k  = 4k(k+a)(k+b)(k+a+b)
                  / ((2k+a+b)^2 (2k+a+b+1)(2k+a+b-1)),    k >= 1,

    in floats, or in fractions with ``exact``. The k = 0 case is split out
    because the generic alpha formula is 0/0 when a + b = 0 (nu = 1/2)."""
    num = Fraction if exact else float
    a, b = 2 * num(nu) - num(1) / 2, -num(1) / 2

    def alpha(k: int):
        if k == 0:
            return (b - a) / (a + b + 2)
        s = 2 * k + a + b
        return (b * b - a * a) / (s * (s + 2))

    def beta(k: int):
        s = 2 * k + a + b
        return 4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1))

    return alpha, beta


def cheb4_residual(k: int, lam):
    """Closed-form fourth-kind Chebyshev residual for the nu = 1/2 method:
    W_k(1 - 2 lam)/(2k + 1) with W_k(cos t) = sin((k + 1/2) t)/sin(t/2)."""
    lam = np.asarray(lam, dtype=float)
    out = np.ones_like(lam)
    pos = lam > 0
    theta = np.arccos(np.clip(1.0 - 2.0 * lam[pos], -1.0, 1.0))
    out[pos] = np.sin((k + 0.5) * theta) / np.sin(theta / 2.0) / (2 * k + 1)
    return out


def monomial_sine_coeffs(powers: dict, kk) -> np.ndarray:
    """Oracle: sine coefficients of a polynomial sum(c_m t^m) through the
    antiderivative recurrence

        I_0 = (1 - (-1)^k)/a,  J_0 = 0,  a = pi k,
        I_m = -(-1)^k/a + (m/a) J_{m-1},   J_m = -(m/a) I_{m-1},

    with I_m/J_m the integrals of t^m sin(a t) / t^m cos(a t) over [0, 1].
    Accurate to ~1e-12 relative for k up to a few hundred."""
    kk = np.asarray(kk, dtype=np.int64)
    a = np.pi * kk.astype(float)
    sgn = np.where(kk % 2 == 0, 1.0, -1.0)
    ii = [(1.0 - sgn) / a]
    jj = [np.zeros_like(a)]
    for m in range(1, max(powers) + 1):
        ii.append(-sgn / a + (m / a) * jj[m - 1])
        jj.append(-(m / a) * ii[m - 1])
    total = np.zeros(kk.size)
    for m, c in powers.items():
        total += c * ii[m]
    return np.sqrt(2.0) * total


def green_spectrum(dim: int, scaled: bool = True) -> np.ndarray:
    """Eigenvalues 1..dim of the shipped Green operator: the diagonal of
    one ``entry_block`` query over [1, dim]^2 (none of them is zero)."""
    _, _, vals = green_operator(scaled=scaled).entry_block(0, dim, 0, dim)
    assert vals.size == dim
    return vals


def smoothness_envelope(x: CoeffVec, lam: np.ndarray, mu: float) -> float:
    """Oracle: minimal source-set radius of x at its truncation, the norm
    of v with v_k = x_k / |lambda_k|^mu for the eigenvalues ``lam``. Grows
    without bound in the truncation dimension once mu exceeds the
    solution's smoothness."""
    v = x.coeffs / np.abs(lam[:x.dim]) ** mu
    return float(np.sqrt(np.sum(v * v)))


def dense_cross_assembly(src, n: int) -> np.ndarray:
    """Reference dense assembly: literally compose the projector sum

        sum_{k=1}^{2n} (P_{2^k} - P_{2^{k-1}}) A P_{2^{2n-k}}  +  P_1 A P_{2^{2n}}

    on the full matrix of source entries. Independent of the index-set
    generator; n <= 4 keeps it cheap."""
    dim = 1 << (2 * n)
    ii = np.arange(1, dim + 1)
    full = src._values(np.repeat(ii, dim), np.tile(ii, dim)).reshape(dim, dim)

    def proj(m):
        p = np.zeros((dim, dim))
        d = min(m, dim)
        p[:d, :d] = np.eye(d)
        return p

    total = proj(1) @ full @ proj(dim)
    for k in range(1, 2 * n + 1):
        band = proj(1 << k) - proj(1 << (k - 1))
        total += band @ full @ proj(1 << (2 * n - k))
    return total


class BandSource(GalerkinInfoSource):
    """Off-diagonal information source: for even i the entries (i, i+1) and
    (i, i+3) are nonzero, every other entry is zero. The nonzero rows (even)
    and columns (odd, from 3) of an assembled level differ and neither is a
    leading block; the singular values lie in [0.4, 0.8]."""

    def __init__(self):
        super().__init__()

    def _values(self, rows, cols):
        even = rows % 2 == 0
        return (np.where(even & (cols == rows + 1), 0.6, 0.0)
                + np.where(even & (cols == rows + 3), 0.2, 0.0))


class BlockSource(GalerkinInfoSource):
    """Information source with one dense block: the entries (i, j) with i
    even in [2, 16] and j odd in [3, 15] are nonzero, every other entry is
    zero. From level 4 on the cross holds the whole block, so every nonzero
    row has 7 entries and every nonzero column 8; the nonzero rows and
    columns differ and neither is a leading block, and the norm is below
    0.75."""

    def _values(self, rows, cols):
        inside = ((rows % 2 == 0) & (rows <= 16)
                  & (cols % 2 == 1) & (cols >= 3) & (cols <= 15))
        return np.where(inside, 0.02 + 0.08 * ((7 * rows + 13 * cols) % 17) / 17.0, 0.0)


class SwapSource(GalerkinInfoSource):
    """Information source with one entry per row and per column off the
    diagonal: 0.6 at (2i-1, 2i) and 0.3 at (2i, 2i-1), every other entry
    zero. The support block is a permutation, so its entries do not sit at
    the positions 0..nnz-1 of both R and C; the singular values are 0.6 and
    0.3."""

    def _values(self, rows, cols):
        odd = rows % 2 == 1
        return (np.where(odd & (cols == rows + 1), 0.6, 0.0)
                + np.where(~odd & (cols == rows - 1), 0.3, 0.0))
