import numpy as np
import pytest
from hypothesis import given, strategies as st

from semicross.coeffs import CoeffVec, norm

finite_vecs = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=40,
)


def test_norm_examples():
    assert norm(CoeffVec.zeros(5)) == 0.0
    assert norm(CoeffVec([3, 4])) == 5.0


@given(finite_vecs, st.floats(min_value=-100, max_value=100))
def test_norm_homogeneous(coeffs, scale):
    v = CoeffVec(coeffs)
    assert norm(scale * v) == pytest.approx(abs(scale) * norm(v), rel=1e-12, abs=1e-12)


@given(finite_vecs, st.data())
def test_pythagoras(coeffs, data):
    v = CoeffVec(coeffs)
    m = data.draw(st.integers(min_value=1, max_value=v.dim))
    head = CoeffVec(coeffs[:m])  # zero-extended by the subtraction
    tail = v - head
    lhs = norm(v) ** 2
    rhs = norm(head) ** 2 + norm(tail) ** 2
    assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)


def test_mixed_dim_arithmetic_zero_extends():
    a = CoeffVec([1, 2])
    b = CoeffVec([10, 20, 30])
    assert np.array_equal((a + b).coeffs, [11, 22, 30])
    assert np.array_equal((b - a).coeffs, [9, 18, 30])


def test_vectors_are_immutable():
    v = CoeffVec([1.0, 2.0])
    with pytest.raises(ValueError):
        v.coeffs[0] = 7.0


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        CoeffVec([])
    with pytest.raises(ValueError):
        CoeffVec([1.0, np.inf])
    with pytest.raises(ValueError):
        CoeffVec.zeros(0)
