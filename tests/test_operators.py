import dataclasses
import warnings

import numpy as np
import pytest

from conftest import (
    kernel_operator_from_function,
    random_hybrid_instance,
    random_nilpotent_instance,
    svd_factors,
)

from kerneltri import (
    DimensionMismatchError,
    FiniteRankOperator,
    MeasureSpace,
    Operator,
    PreconditionError,
    StandardSet,
    build_space,
    compress,
    densify,
    kernel_operator,
    moment_identities,
    modulus,
    numerical_rank,
    sharpness_example,
    sharpness_example_factors,
    trace,
    trace_power,
    volterra_linear,
)
from kerneltri.operators import ZERO_TOL, magnitude

EXAMPLE_5x5 = np.array(
    [
        [0, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0],
    ],
    dtype=complex,
)


def atomic_operator(matrix):
    matrix = np.asarray(matrix)
    p = matrix.shape[0]
    return kernel_operator(build_space(0, range(2, p + 2)), np.asarray(matrix, dtype=complex))


class TestDensify:
    def test_rank_one_all_ones(self):
        space = build_space(0, [2, 3])
        ones = np.ones((2, 1), dtype=complex)
        K = densify(FiniteRankOperator(space=space, F=ones, G=ones))
        np.testing.assert_allclose(K.kernel_values, np.ones((2, 2)))

    def test_sharpness_example_matrix(self):
        K = sharpness_example(2)
        np.testing.assert_allclose(K.kernel_values, EXAMPLE_5x5)
        # operator on atoms: entries equal the kernel
        np.testing.assert_allclose(K.entries, EXAMPLE_5x5)

    def test_random_rank_two_singular_values(self):
        rng = np.random.default_rng(7)
        space = build_space(0, range(2, 8))
        F = rng.standard_normal((6, 2)) + 0j
        G = rng.standard_normal((6, 2)) + 0j
        K = densify(FiniteRankOperator(space=space, F=F, G=G))
        s = np.linalg.svd(K.kernel_values, compute_uv=False)
        assert np.all(s[2:] < 1e-10)
        assert numerical_rank(K) == 2

    def test_factor_round_trip(self):
        rng = np.random.default_rng(3)
        space = build_space(4, [2, 3])
        F = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        G = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        K = densify(FiniteRankOperator(space=space, F=F, G=G))
        again = densify(svd_factors(K))
        np.testing.assert_allclose(again.kernel_values, K.kernel_values, atol=1e-10)

    def test_dense_operator_is_returned_unchanged(self):
        for K in (volterra_linear(8), sharpness_example(2)):
            assert densify(K) is K

    def test_dimension_mismatch(self):
        space = build_space(0, [2, 3])
        with pytest.raises(DimensionMismatchError):
            FiniteRankOperator(space=space, F=np.ones((2, 1)), G=np.ones((3, 1)))


class TestOperatorConstruction:
    def test_kernel_alone_builds_the_operator(self):
        init = [f.name for f in dataclasses.fields(Operator) if f.init]
        assert init == ["space", "kernel_values"]

    @pytest.mark.parametrize("seed", range(6))
    def test_entries_are_the_weighted_kernel_on_every_path(self, seed):
        K, _ = random_hybrid_instance(np.random.default_rng(seed))
        kfr, _ = random_nilpotent_instance(np.random.default_rng(seed))
        half = StandardSet.from_indices(K.space, range(0, K.size, 2))
        for op in (K, compress(K, half), densify(svd_factors(K)), densify(kfr), modulus(K)):
            weighted = op.kernel_values * op.space.weights
            assert op.entries.tobytes() == weighted.tobytes()
            assert not op.entries.flags.writeable and not op.kernel_values.flags.writeable

    def test_kernel_shape_must_match_the_points(self):
        with pytest.raises(DimensionMismatchError, match=r"kernel shape \(2, 3\) does not match 2 points"):
            kernel_operator(build_space(0, [2, 3]), np.ones((2, 3)))

    def test_overflowing_weight_is_named_without_warnings(self):
        # a finite kernel times a finite cell weight that overflows
        space = MeasureSpace((0.5,), (1e300,), (2,))
        kernel = np.array([[1e10, 0], [0, 1]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="non-finite operator entries"):
                kernel_operator(space, kernel)

    @pytest.mark.parametrize("cells", [0, 1], ids=["atom", "cell"])
    def test_overflowing_kernel_modulus_is_refused_without_warnings(self, cells):
        # finite parts whose modulus, about 2.4e308, exceeds the float range
        space = build_space(cells, range(2, 4 - cells))
        kernel = np.array([[complex(1.7e308, 1.7e308), 1], [1, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="^kernel values whose modulus overflows$"):
                kernel_operator(space, kernel)

    def test_overflowing_entry_modulus_is_refused_without_warnings(self):
        # a kernel of modulus 1.56e308 times a cell weight of 1.5: finite
        # parts of 1.65e308, a modulus of 2.3e308
        space = MeasureSpace((0.5,), (1.5,), (2,))
        kernel = np.array([[complex(1.1e308, 1.1e308), 0], [0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="^operator entries whose modulus overflows$"):
                kernel_operator(space, kernel)

    def test_largest_finite_modulus_is_accepted(self):
        space = MeasureSpace((0.5,), (1.0,), (2,))
        K = kernel_operator(space, np.array([[complex(1.2e308, 1.2e308), 0], [0, 1]]))
        assert K.zero_threshold == ZERO_TOL * abs(complex(1.2e308, 1.2e308))
        assert K.scale == abs(complex(1.2e308, 1.2e308))

    def test_overflowing_factors_are_refused_by_every_reader(self):
        space = build_space(0, [2, 3])
        kfr = FiniteRankOperator(space=space, F=np.array([[1e200], [1.0]]), G=np.array([[1e200], [0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for read in (densify, FiniteRankOperator.kernel_matrix, lambda k: moment_identities(k, [])):
                with pytest.raises(PreconditionError, match="non-finite kernel values"):
                    read(kfr)


class TestStructuralZeroRule:
    def test_magnitude_is_max_of_one_and_largest_entry(self):
        assert magnitude(np.array([[5e-11, 0.1], [0.0, 0.0]])) == 1.0
        assert magnitude(np.array([[5e-8, -100.0]])) == 100.0
        assert magnitude(np.empty((0, 0))) == 1.0

    def test_zero_threshold_is_taken_on_the_kernel_not_the_entries(self):
        # two cells of weight 1/2: the entries are half the kernel
        K = kernel_operator(build_space(2), np.array([[0, 40], [0, 0]], dtype=complex))
        assert K.scale == 20.0
        assert K.zero_threshold == ZERO_TOL * 40.0

    def test_support_is_the_read_only_structural_nonzeros(self):
        kernel = np.array([[0, 40, 3e-9], [5e-9, 1e-3, 0], [0, 0, 0]], dtype=complex)
        K = kernel_operator(build_space(1, [2, 3]), kernel)
        assert K.support.tolist() == [[False, True, False], [True, True, False], [False] * 3]
        assert K.support is K.support  # computed once per operator
        with pytest.raises(ValueError, match="read-only"):
            K.support[0, 0] = True
        assert not K.support[0, 0]


class TestCompress:
    def test_full_set_is_identity(self):
        K = atomic_operator(EXAMPLE_5x5)
        full = compress(K, StandardSet.full(K.space))
        np.testing.assert_array_equal(full.entries, K.entries)

    def test_empty_set(self):
        K = atomic_operator(EXAMPLE_5x5)
        empty = compress(K, StandardSet(K.space, 0))
        assert empty.size == 0
        assert empty.entries.shape == (0, 0)

    def test_leading_two_corner(self):
        K = sharpness_example(2)
        sub = compress(K, StandardSet.from_indices(K.space, [0, 1]))
        np.testing.assert_allclose(sub.kernel_values, [[0, 1], [0, 1]])
        eig = np.sort(np.linalg.eigvals(sub.entries).real)
        np.testing.assert_allclose(eig, [0.0, 1.0], atol=1e-12)

    def test_compress_twice(self):
        K = atomic_operator(np.arange(25).reshape(5, 5).astype(complex))
        F = StandardSet.from_indices(K.space, [0, 2, 3, 4])
        once = compress(K, F)
        sub_E = StandardSet.from_indices(once.space, [0, 1, 2])  # points 0,2,3
        twice = compress(once, sub_E)
        direct = compress(K, StandardSet.from_indices(K.space, [0, 2, 3]))
        np.testing.assert_array_equal(twice.entries, direct.entries)

    def test_mismatched_space(self):
        K = atomic_operator(EXAMPLE_5x5)
        other = StandardSet.full(build_space(5))
        with pytest.raises(DimensionMismatchError):
            compress(K, other)


class TestModulus:
    def test_sign_flip(self):
        K = atomic_operator([[0, -1], [1, 0]])
        np.testing.assert_allclose(modulus(K).kernel_values, [[0, 1], [1, 0]])

    def test_nonnegative_unchanged(self):
        K = atomic_operator([[0.5, 2], [1, 0]])
        np.testing.assert_array_equal(modulus(K).kernel_values, K.kernel_values)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        K = atomic_operator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        m1 = modulus(K)
        m2 = modulus(m1)
        np.testing.assert_array_equal(m1.kernel_values, m2.kernel_values)


class TestTrace:
    def test_sharpness_example_trace(self):
        assert trace(sharpness_example(2)) == pytest.approx(2.0)

    def test_strictly_lower_triangular(self):
        K = atomic_operator(np.tril(np.ones((4, 4)), -1))
        assert trace(K) == pytest.approx(0.0)

    def test_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        K = atomic_operator(mat)
        assert trace(K) == pytest.approx(np.linalg.eigvals(mat).sum(), abs=1e-8)

    def test_splits_over_cells_and_atoms(self):
        space = build_space(3, [2, 4])
        rng = np.random.default_rng(9)
        K = kernel_operator(space, rng.standard_normal((5, 5)).astype(complex))
        atoms = StandardSet.from_indices(space, range(space.num_cells, space.size))
        c = trace(compress(K, atoms.complement()))
        a = trace(compress(K, atoms))
        assert c + a == pytest.approx(trace(K))

    def test_trace_respects_weights(self):
        space = build_space(2)  # weights 0.5
        K = kernel_operator(space, np.array([[2, 0], [0, 4]], dtype=complex))
        assert trace(K) == pytest.approx(3.0)  # 2*0.5 + 4*0.5


class TestTracePower:
    def test_nilpotent_square(self):
        K = atomic_operator([[0, 1], [0, 0]])
        assert trace_power(K, 2) == pytest.approx(0.0)

    def test_sharpness_example_square(self):
        # direct matrix-power oracle
        expected = np.trace(np.linalg.matrix_power(EXAMPLE_5x5, 2))
        assert trace_power(sharpness_example(2), 2) == pytest.approx(expected) == pytest.approx(2.0)

    def test_power_one_is_trace(self):
        rng = np.random.default_rng(2)
        K = atomic_operator(rng.standard_normal((5, 5)).astype(complex))
        assert trace_power(K, 1) == pytest.approx(trace(K))

    def test_matches_eigenvalue_powers(self):
        rng = np.random.default_rng(13)
        for p in (3, 8, 16):
            mat = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
            K = atomic_operator(mat)
            eig = np.linalg.eigvals(mat)
            for n in range(1, 7):
                assert trace_power(K, n) == pytest.approx((eig**n).sum(), abs=1e-8 * p)

    def test_compression_matches_matrix_power_oracle(self):
        # the sum over all words of tr(P_1 K P_2 K P_3 K) for disjoint P_i is
        # the trace of the third power of the compression to their union
        rng = np.random.default_rng(14)
        space = build_space(3, [2, 4, 9])
        kernel = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        K = kernel_operator(space, kernel)
        idx = [0, 1, 3, 4, 5]
        sub = K.entries[np.ix_(idx, idx)]
        oracle = np.trace(np.linalg.matrix_power(sub, 3))
        E = StandardSet.from_indices(space, idx)
        assert trace_power(compress(K, E), 3) == pytest.approx(oracle, abs=1e-10)

    def test_diagonal_atoms_give_power_sums(self):
        space = build_space(0, [2, 3])
        K = kernel_operator(space, np.diag([2.0, 3.0]).astype(complex))
        assert trace_power(K, 2) == pytest.approx(2.0**2 + 3.0**2)

    def test_nilpotent_compressions_vanish(self):
        rng = np.random.default_rng(40)
        kfr, blocks = random_nilpotent_instance(rng)
        K = densify(kfr)
        E = StandardSet.from_indices(K.space, [i for b in blocks[:3] for i in b])
        for n in (1, 2, 3):
            assert abs(trace_power(compress(K, E), n)) < 1e-8 * K.scale**n

    def test_cyclic_invariance(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        assert np.trace(a @ b) == pytest.approx(np.trace(b @ a))


class TestExhaustiveTraceCompress:
    def test_trace_of_compressions(self):
        # trace(compress(K, E)) equals the partial weighted diagonal sum
        rng = np.random.default_rng(21)
        space = build_space(3, [2, 4, 7])
        kernel = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        K = kernel_operator(space, kernel)
        w = space.weights
        for mask in range(1 << 6):
            idx = [i for i in range(6) if mask >> i & 1]
            E = StandardSet.from_indices(space, idx)
            expected = sum(kernel[i, i] * w[i] for i in idx)
            assert trace(compress(K, E)) == pytest.approx(expected)


def test_sharpness_example_factors_reproduce_matrix():
    for n in (1, 2, 3):
        kfr = sharpness_example_factors(n)
        assert kfr.rank == n
        K = densify(kfr)
        p = 2 * n + 1
        assert K.size == p
        # diagonal alternates 0,1,0,1,...,0
        diag = np.real(np.diag(K.kernel_values)).astype(int)
        assert list(diag) == [j % 2 for j in range(p)]
        # upper triangular 0/1 matrix
        assert np.all(np.tril(K.kernel_values, -1) == 0)
        assert set(np.unique(K.kernel_values.real)) <= {0.0, 1.0}


@pytest.mark.parametrize("n", [*range(1, 65), 512])
def test_volterra_linear_matches_the_sampled_kernel(n):
    expected = kernel_operator_from_function(build_space(n), lambda x, y: max(x - y, 0.0))
    K = volterra_linear(n)
    assert K.kernel_values.tobytes() == expected.kernel_values.tobytes()
    assert K.entries.tobytes() == expected.entries.tobytes()


_TWO_ATOMS = build_space(0, [2, 3])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: FiniteRankOperator(_TWO_ATOMS, np.ones(2), np.ones((2, 1))),
            DimensionMismatchError,
            "factors must be 2-d arrays",
        ),
        (
            lambda: FiniteRankOperator(_TWO_ATOMS, np.eye(2), np.ones((2, 1))),
            DimensionMismatchError,
            "factor count mismatch between F and G",
        ),
        (
            lambda: FiniteRankOperator(_TWO_ATOMS, np.ones((2, 2)), np.eye(2)),
            PreconditionError,
            "factor columns are not linearly independent",
        ),
        (lambda: trace_power(sharpness_example(1), 0), PreconditionError, "power must be >= 1"),
        (lambda: sharpness_example_factors(0), PreconditionError, "n must be >= 1"),
    ],
    ids=["factor-1-d", "factor-counts", "dependent-columns", "power-0", "sharpness-0"],
)
def test_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()
