import numpy as np
import pytest

from conftest import inclusion_witness

from kerneltri import (
    PreconditionError,
    StandardSet,
    build_space,
    compress,
    eigenvalues,
    kernel_operator,
    nonzero_eigen_match,
    sharpness_example,
)
from kerneltri.spectral import first_excluded


def atomic_operator(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return kernel_operator(build_space(0, range(2, matrix.shape[0] + 2)), matrix)


class TestEigenvalues:
    def test_sharpness_example_spectrum(self):
        # oracle: upper triangular, so the spectrum is the diagonal
        rep = eigenvalues(sharpness_example(2))
        vals = np.sort(np.real(rep.eigenvalues))
        np.testing.assert_allclose(vals, [0, 0, 0, 1, 1], atol=1e-12)
        assert rep.radius == pytest.approx(1.0)
        assert not rep.quasinilpotent
        assert len(rep.eigenvalues) == 5

    def test_diagonal(self):
        rep = eigenvalues(atomic_operator(np.diag([3.0, -1.0])))
        assert sorted(z.real for z in rep.eigenvalues) == [-1.0, 3.0]

    def test_nilpotent(self):
        rep = eigenvalues(atomic_operator([[0, 1], [0, 0]]))
        assert rep.radius == pytest.approx(0.0, abs=1e-12)
        assert rep.quasinilpotent

    def test_empty_operator(self):
        K = atomic_operator(np.diag([1.0, 2.0]))
        empty = compress(K, StandardSet.empty(K.space))
        rep = eigenvalues(empty)
        assert len(rep.eigenvalues) == 0
        assert rep.radius == 0.0
        assert rep.quasinilpotent

    def test_size_limit(self):
        space = build_space(513)
        K = kernel_operator(space, np.zeros((513, 513), dtype=complex))
        with pytest.raises(PreconditionError):
            eigenvalues(K)

    def test_triangular_matrix_diagonal(self):
        rng = np.random.default_rng(4)
        mat = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        rep = eigenvalues(atomic_operator(mat))
        got = np.array(sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(np.diag(mat), key=lambda z: (z.real, z.imag)))
        np.testing.assert_allclose(got, want, atol=1e-8)


def excluded(inner, outer, tol):
    """First eigenvalue of the report `inner` that no eigenvalue of the
    report `outer` is within tol of, or None."""
    return inclusion_witness(np.array(inner.eigenvalues), np.array(outer.eigenvalues), tol)


class TestSpectrumInclusion:
    def test_subset_holds(self):
        inner = eigenvalues(atomic_operator(np.diag([0.0])))
        outer = eigenvalues(atomic_operator(np.diag([0.0, 1.0])))
        assert excluded(inner, outer, 1e-8) is None

    def test_witness_on_failure(self):
        inner = eigenvalues(atomic_operator(np.diag([0.5])))
        outer = eigenvalues(atomic_operator(np.diag([0.0, 1.0])))
        assert excluded(inner, outer, 1e-8) == pytest.approx(0.5)

    def test_leading_compression_of_sharpness_example(self):
        K = sharpness_example(2)
        inner = eigenvalues(compress(K, StandardSet.from_indices(K.space, [0, 1, 2, 3])))
        outer = eigenvalues(K)
        assert excluded(inner, outer, 1e-8) is None

    def test_reflexive(self):
        rng = np.random.default_rng(8)
        rep = eigenvalues(atomic_operator(rng.standard_normal((5, 5))))
        assert excluded(rep, rep, 1e-10) is None

    def test_set_semantics_ignores_multiplicity(self):
        inner = eigenvalues(atomic_operator(np.diag([1.0, 1.0, 1.0])))
        outer = eigenvalues(atomic_operator(np.diag([1.0, 0.0])))
        # inner has eigenvalue 1 three times, outer once: still included
        assert excluded(inner, outer, 1e-8) is None
        assert excluded(outer, inner, 1e-8) == 0.0  # 0 is missing


class TestFirstExcluded:
    @pytest.mark.parametrize("seed", range(20))
    def test_padded_batches_match_a_plain_loop(self, seed):
        rng = np.random.default_rng(seed)
        rows, a, b = rng.integers(1, 6, size=3)
        inner = np.round(rng.standard_normal((rows, a)) + 1j * rng.standard_normal((rows, a)))
        outer = np.round(rng.standard_normal((rows, b)) + 1j * rng.standard_normal((rows, b)))
        inner[rng.random((rows, a)) < 0.3] = np.nan
        outer[rng.random((rows, b)) < 0.3] = np.nan
        expected = None
        for r in range(rows):
            values = [y for y in outer[r] if not np.isnan(y)]
            for c in range(a):
                z = inner[r, c]
                if expected is None and not np.isnan(z) and all(abs(z - y) > 0.5 for y in values):
                    expected = r * a + c
        assert first_excluded(inner, outer, 0.5) == expected

    def test_empty_outer_excludes_every_value(self):
        assert first_excluded(np.array([2.0, 3.0]), np.empty(0), 1.0) == 0
        assert first_excluded(np.array([[np.nan, 2.0]]), np.full((1, 3), np.nan), 1.0) == 1
        assert inclusion_witness(np.array([2.0]), np.empty(0), 1.0) == 2.0

    def test_empty_inner_is_included(self):
        assert first_excluded(np.empty(0), np.array([1.0]), 1.0) is None
        assert first_excluded(np.full((2, 2), np.nan), np.ones((2, 1)), 1.0) is None


class TestNonzeroEigenMatch:
    def test_self_match(self):
        K = atomic_operator(np.diag([1.0, 2.0, 0.0]))
        assert nonzero_eigen_match(K, K, 1e-8)

    def test_zero_padding_ignored(self):
        K1 = atomic_operator(np.diag([1.0, 0.0]))
        K2 = atomic_operator(np.diag([1.0]))
        assert nonzero_eigen_match(K1, K2, 1e-8)

    def test_multiplicity_is_respected(self):
        K1 = atomic_operator(np.diag([1.0, 1.0]))
        K2 = atomic_operator(np.diag([1.0]))
        res = nonzero_eigen_match(K1, K2, 1e-8)
        assert not res

    def test_hybrid_vs_atom_compression(self):
        # strictly triangular cell block, atom diagonal (2, 3), no coupling
        space = build_space(2, [2, 3])
        kernel = np.zeros((4, 4), dtype=complex)
        kernel[0, 1] = 1.0  # nilpotent cell block
        kernel[2, 2] = 2.0
        kernel[3, 3] = 3.0
        K = kernel_operator(space, kernel)
        atoms = StandardSet.from_indices(space, [2, 3])
        assert nonzero_eigen_match(K, compress(K, atoms), 1e-8)

    def test_cell_spectrum_breaks_the_match(self):
        # the cell block is 2/w times the identity: its spectrum is not in
        # the atom compression's, and the cells are not quasinilpotent
        space = build_space(2, [2])
        kernel = np.zeros((3, 3), dtype=complex)
        kernel[0, 0] = kernel[1, 1] = 2.0
        kernel[2, 2] = 1.0
        K = kernel_operator(space, kernel)
        atoms = StandardSet.from_indices(space, [2])
        assert not nonzero_eigen_match(K, compress(K, atoms), 1e-8)
        assert not eigenvalues(compress(K, atoms.complement())).quasinilpotent

    def test_mismatch_reports_values(self):
        K1 = atomic_operator(np.diag([1.0, 5.0]))
        K2 = atomic_operator(np.diag([1.0, 7.0]))
        res = nonzero_eigen_match(K1, K2, 1e-8)
        assert not res
        assert res.unmatched_left and res.unmatched_right


def test_permutation_similarity_invariance():
    rng = np.random.default_rng(19)
    for p in (2, 5, 9, 16):
        mat = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        perm = rng.permutation(p)
        permuted = mat[np.ix_(perm, perm)]
        a = np.array(sorted(np.linalg.eigvals(mat), key=lambda z: (z.real, z.imag)))
        b = np.array(sorted(np.linalg.eigvals(permuted), key=lambda z: (z.real, z.imag)))
        np.testing.assert_allclose(a, b, atol=1e-8 * p)
