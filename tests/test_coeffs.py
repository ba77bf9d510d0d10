import numpy as np
import pytest
from hypothesis import given, strategies as st

from semicross.coeffs import CoeffVec

from helpers import norm

finite_vecs = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=40,
)


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
    with pytest.raises(ValueError, match="may not truncate"):
        b.extended(2)


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


def test_scaling_and_negation_make_new_vectors():
    v = CoeffVec([1.0, -2.5, 0.0])
    for w in (2.0 * v, v * 2.0, v * 2):
        assert isinstance(w, CoeffVec) and w.coeffs.tolist() == [2.0, -5.0, 0.0]
        assert not w.coeffs.flags.writeable
    neg = -v
    assert neg.coeffs.tobytes() == np.array([-1.0, 2.5, -0.0]).tobytes()
    assert not neg.coeffs.flags.writeable
    assert v.coeffs.tolist() == [1.0, -2.5, 0.0]


def test_repr_shows_the_dim_and_at_most_four_coefficients():
    assert repr(CoeffVec([1.0, -2.5, 1 / 3])) == (
        "CoeffVec(dim=3, [ 1.       -2.5       0.333333])")
    assert repr(CoeffVec([1.0, -2.5, 1 / 3, 4.0, 5.0])) == (
        "CoeffVec(dim=5, [ 1.       -2.5       0.333333  4.      ], ...)")
