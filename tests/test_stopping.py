import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semicross.coeffs import CoeffVec, norm
from semicross.driver import ConfigError, RunParams, _discrepancy_stop, run_discrepancy
from semicross.methods import nu_method
from semicross.problems import get_problem
from semicross.stopping import (
    BalancingWindow,
    balancing_admissible_set,
    balancing_stop_index,
)


def _discrepancy(residuals, tau, delta, k_n=None):
    """Stop index of the discrepancy rule on one level whose iterates carry
    the given residual norms (budget K_n = all of them by default), or None
    to refine."""
    steps = ((k, np.array([float(k)]), res) for k, res in enumerate(residuals, 1))
    p = RunParams(delta=delta, tau=tau)
    hit = _discrepancy_stop(steps, k_n or len(residuals), p, None)
    if hit is None:
        return None
    assert hit[1][0] == hit[0]  # the stopping iterate comes with its index
    return hit[0]


def test_discrepancy_examples():
    assert _discrepancy([2.1, 0.5, 0.1], 2.0, 1.0) == 2
    assert _discrepancy([2.1], 2.0, 1.0) is None
    # iterates past the level budget are not tested
    assert _discrepancy([2.1, 0.5], 2.0, 1.0, k_n=1) is None


def test_discrepancy_boundary_is_inclusive():
    tau, delta = 1.7, 0.3
    bound = tau * delta
    assert _discrepancy([bound], tau, delta) == 1
    assert _discrepancy([np.nextafter(bound, np.inf)], tau, delta) is None


def test_discrepancy_validates_inputs():
    # the rule itself compares only; its inputs are checked where a run is
    # configured
    with pytest.raises(ConfigError):
        RunParams(delta=0.0)
    with pytest.raises(ConfigError):
        RunParams(delta=-1.0)
    with pytest.raises(ConfigError):
        run_discrepancy(get_problem("p1"), nu_method(1.5),
                        RunParams(delta=0.1, tau=0.0))


def _window(values, k_n, k_sec, bound):
    iterates = tuple(CoeffVec([v]) for v in values)
    return BalancingWindow(iterates=iterates, k_n=k_n, k_sec=k_sec,
                           bound_factor=bound)


def test_synthetic_window():
    # k=1 fails at j=2 (10 > 2), k=2 passes at j=3 (0.5 <= 3)
    w = _window([0.0, 10.0, 10.5], k_n=2, k_sec=1, bound=1.0)
    assert balancing_admissible_set(w) == {2}


def test_identical_iterates_all_admissible():
    w = _window([3.0] * 7, k_n=4, k_sec=3, bound=1e-9)
    assert balancing_admissible_set(w) == {1, 2, 3, 4}


def test_zero_bound_distinct_iterates_empty():
    w = _window([1.0, 2.0, 3.0, 4.0], k_n=2, k_sec=2, bound=0.0)
    assert balancing_admissible_set(w) == set()


def test_stop_index():
    assert balancing_stop_index(_window([0.0, 10.0, 10.5], 2, 1, 1.0)) == 2
    assert balancing_stop_index(_window([3.0] * 7, 4, 3, 1e-9)) == 1
    assert balancing_stop_index(_window([1.0, 2.0, 3.0, 4.0], 2, 2, 0.0)) is None
    # a tie at the bound is admissible: |0 - 2| = 1.0 * 2
    assert balancing_stop_index(_window([0.0, 2.0, 2.0], 2, 1, 1.0)) == 1


def test_window_validation():
    with pytest.raises(ValueError):
        _window([1.0, 2.0], k_n=2, k_sec=1, bound=1.0)  # wrong length
    with pytest.raises(ValueError):
        _window([1.0, 2.0, 3.0], k_n=2, k_sec=1, bound=-1.0)


def test_one_far_iterate_rejects_every_earlier_candidate():
    # candidates compare their trailing iterates block by block; an outlier
    # at any position, first or last of a block included, must be seen
    m, k_n = 40, 30
    for p in range(1, m + 1):
        values = [0.0] * m
        values[p - 1] = 1.0
        w = _window(values, k_n=k_n, k_sec=m - k_n, bound=1e-3)
        assert balancing_admissible_set(w) == set(range(p + 1, k_n + 1)), p
        assert balancing_stop_index(w) == (p + 1 if p < k_n else None), p


# up to 40 iterates, so that candidates' trailing iterates span several
# comparison blocks
windows = st.integers(min_value=2, max_value=40).flatmap(
    lambda m: st.tuples(
        st.lists(
            st.lists(st.floats(-100, 100), min_size=2, max_size=4),
            min_size=m, max_size=m,
        ),
        st.integers(min_value=1, max_value=m - 1),
        st.floats(min_value=0.0, max_value=50.0),
    )
)


@settings(max_examples=150, deadline=None)
@given(windows)
def test_matches_bruteforce_double_loop(data):
    vec_lists, k_n, bound = data
    m = len(vec_lists)
    k_sec = m - k_n
    iterates = tuple(CoeffVec(v) for v in vec_lists)
    w = BalancingWindow(iterates=iterates, k_n=k_n, k_sec=k_sec,
                        bound_factor=bound)
    brute = set()
    for k in range(1, k_n + 1):
        ok = True
        for j in range(k + 1, m + 1):
            if norm(iterates[k - 1] - iterates[j - 1]) > bound * j:
                ok = False
                break
        if ok:
            brute.add(k)
    assert balancing_admissible_set(w) == brute


@settings(max_examples=100, deadline=None)
@given(windows, st.floats(min_value=1.0, max_value=10.0))
def test_admissible_set_monotone_in_bound(data, factor):
    vec_lists, k_n, bound = data
    m = len(vec_lists)
    iterates = tuple(CoeffVec(v) for v in vec_lists)
    small = BalancingWindow(iterates=iterates, k_n=k_n, k_sec=m - k_n,
                            bound_factor=bound)
    large = BalancingWindow(iterates=iterates, k_n=k_n, k_sec=m - k_n,
                            bound_factor=bound * factor)
    assert balancing_admissible_set(small) <= balancing_admissible_set(large)


# integer iterates and bounds, so that distances often equal the bound exactly
tied_windows = st.integers(min_value=2, max_value=40).flatmap(
    lambda m: st.tuples(
        st.lists(
            st.lists(st.integers(-12, 12).map(float), min_size=1, max_size=2),
            min_size=m, max_size=m,
        ),
        st.integers(min_value=1, max_value=m - 1),
        st.integers(min_value=0, max_value=4).map(float),
    )
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(windows, tied_windows))
def test_stop_index_is_smallest_admissible(data):
    vec_lists, k_n, bound = data
    w = BalancingWindow(iterates=tuple(CoeffVec(v) for v in vec_lists),
                        k_n=k_n, k_sec=len(vec_lists) - k_n,
                        bound_factor=bound)
    assert balancing_stop_index(w) == min(balancing_admissible_set(w),
                                          default=None)
