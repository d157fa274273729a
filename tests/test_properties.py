import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import svd_factors

from kerneltri import (
    StandardSet,
    build_space,
    check_increasing_spectrum,
    densify,
    kernel_operator,
    modulus,
    trace,
    trace_power,
)

finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def square(n):
    return arrays(np.float64, (n, n), elements=finite)


def atomic_operator(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return kernel_operator(build_space(0, range(2, matrix.shape[0] + 2)), matrix)


@given(square(4))
@settings(max_examples=60, deadline=None)
def test_modulus_is_idempotent_and_entrywise(mat):
    K = atomic_operator(mat)
    m1 = modulus(K)
    np.testing.assert_array_equal(m1.kernel_values, np.abs(mat))
    np.testing.assert_array_equal(modulus(m1).kernel_values, m1.kernel_values)


@given(square(4), st.permutations(list(range(4))))
@settings(max_examples=40, deadline=None)
def test_verdict_is_permutation_invariant(mat, perm):
    permuted = mat[np.ix_(perm, perm)]
    a = check_increasing_spectrum(atomic_operator(mat), tol=1e-6)
    b = check_increasing_spectrum(atomic_operator(permuted), tol=1e-6)
    assert a.verdict == b.verdict


@given(square(5), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_trace_power_matches_eigenvalue_sum(mat, n):
    K = atomic_operator(mat)
    eig = np.linalg.eigvals(mat)
    scale = max(1.0, np.abs(eig).max()) ** n
    assert abs(trace_power(K, n) - (eig**n).sum()) <= 1e-8 * scale


@given(square(4))
@settings(max_examples=60, deadline=None)
def test_factor_densify_round_trip(mat):
    K = atomic_operator(mat)
    again = densify(svd_factors(K))
    assert np.abs(again.kernel_values - mat).max() <= 1e-9 * max(1.0, np.abs(mat).max())


@given(square(4))
@settings(max_examples=60, deadline=None)
def test_trace_is_weighted_diagonal(mat):
    K = atomic_operator(mat)
    assert abs(trace(K) - np.trace(mat)) <= 1e-12 * max(1.0, np.abs(mat).max())


point_sets = st.integers(min_value=1, max_value=70).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.frozensets(st.integers(0, p - 1)),
        st.frozensets(st.integers(0, p - 1)),
    )
)


@given(point_sets)
@settings(max_examples=100, deadline=None)
def test_standard_set_algebra_matches_python_sets(case):
    p, a, b = case
    space = build_space(p)
    sa = StandardSet.from_indices(space, a)
    sb = StandardSet.from_indices(space, b)
    everything = frozenset(range(p))
    assert sa.indices() == tuple(sorted(a))
    assert sa.size == len(a)
    assert sa.complement().indices() == tuple(sorted(everything - a))
    assert sa.issubset(sb) == (a <= b)
