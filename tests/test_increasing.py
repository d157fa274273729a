import numpy as np
import pytest

from conftest import brute_increasing_oracle

from kerneltri import (
    PreconditionError,
    StandardSet,
    atomic_vs_full_spectrum,
    build_space,
    check_increasing_spectrum,
    compress,
    kernel_operator,
    nested_chain,
    ones_kernel,
    quasinilpotence_dichotomy,
    radius_profile,
    sharpness_example,
    volterra_linear,
)


def atomic_operator(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return kernel_operator(build_space(0, range(2, matrix.shape[0] + 2)), matrix)


class TestCheckIncreasingSpectrum:
    def test_sharpness_example_passes_exhaustively(self):
        report = check_increasing_spectrum(sharpness_example(2))
        assert report.verdict
        assert report.exhaustive
        assert report.pairs_checked == 3**5

    def test_diag_plus_minus_one(self):
        mat = np.diag([1.0, -1.0])
        report = check_increasing_spectrum(atomic_operator(mat))
        assert report.verdict == brute_increasing_oracle(mat)

    def test_swap_matrix_fails(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = check_increasing_spectrum(atomic_operator(mat))
        assert not report.verdict
        assert not brute_increasing_oracle(mat)
        e, f, witness = report.witness
        # a singleton has spectrum {0}, the full matrix {1,-1}
        assert len(e) == 1 and witness == pytest.approx(0.0)

    def test_witness_is_lexicographically_first(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = check_increasing_spectrum(atomic_operator(mat))
        e, f, _ = report.witness
        # first violating pair in enumeration order (per-point state
        # out < F-only < both, point 0 most significant)
        assert (e, f) == ((1,), (0, 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_oracle_on_random_sign_matrices(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(-1, 2, size=(3, 3)).astype(float)
        assert check_increasing_spectrum(atomic_operator(mat)).verdict == \
            brute_increasing_oracle(mat)

    def test_triangular_matrices_pass(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = int(rng.integers(2, 7))
            mat = np.triu(rng.standard_normal((p, p)))
            perm = rng.permutation(p)
            permuted = mat[np.ix_(perm, perm)]
            assert check_increasing_spectrum(atomic_operator(permuted)).verdict

    def test_monotone_under_restriction(self):
        # if K passes, so does every compression
        K = sharpness_example(2)
        assert check_increasing_spectrum(K).verdict
        for mask in range(1, 1 << 5):
            idx = [i for i in range(5) if mask >> i & 1]
            sub = compress(K, StandardSet.from_indices(K.space, idx))
            assert check_increasing_spectrum(sub).verdict

    def test_sampled_mode_labels_report(self):
        K = volterra_linear(16)
        report = check_increasing_spectrum(K, max_points=12, samples=200, seed=1)
        assert not report.exhaustive
        assert report.verdict  # strictly lower triangular: all spectra are {0}

    def test_sampled_mode_beyond_63_points(self):
        # masks of more than 63 points must not wrap as int64; witness
        # recorded from the list-of-pairs implementation
        K = atomic_operator(np.ones((70, 70)))
        report = check_increasing_spectrum(K, samples=20, seed=0)
        assert not report.verdict and not report.exhaustive
        assert report.pairs_checked == 1
        e, f, z = report.witness
        assert e == (
            10, 11, 14, 15, 16, 18, 21, 25, 29, 35, 45, 46, 50, 54, 57, 58, 60, 61, 62, 64, 68,
        )
        assert f == (
            0, 1, 2, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 25, 26, 28, 29, 30,
            33, 35, 45, 46, 47, 49, 50, 53, 54, 55, 57, 58, 59, 60, 61, 62, 64, 66, 67, 68, 69,
        )
        assert z == pytest.approx(21.0)

    def test_positive_quasinilpotent_compressions(self):
        # positive K with radius ~ 0: every compression stays quasinilpotent
        K = volterra_linear(10)
        for mask in range(1, 1 << 10, 37):
            idx = [i for i in range(10) if mask >> i & 1]
            sub = compress(K, StandardSet.from_indices(K.space, idx))
            assert np.abs(np.linalg.eigvals(sub.entries)).max() <= 1e-8


class TestRadiusProfile:
    def test_strictly_lower_triangular_kernel(self):
        K = volterra_linear(16)
        profile = radius_profile(K, nested_chain(K.space, 4))
        assert profile == pytest.approx([0.0] * 5, abs=1e-10)

    def test_diagonal_kernel_jumps(self):
        space = build_space(4)
        K = kernel_operator(space, np.eye(4, dtype=complex) * 4.0)  # entries = identity
        profile = radius_profile(K, nested_chain(space, 4))
        assert profile[0] == 0.0
        assert profile[1:] == pytest.approx([1.0] * 4)

    def test_rank_one_positive_kernel_profile_is_t(self):
        # analytic: r(P_t K P_t) = t for the averaging kernel k = 1
        num = 64
        K = ones_kernel(num)
        steps = 8
        profile = radius_profile(K, nested_chain(K.space, steps))
        for s, r in enumerate(profile):
            assert r == pytest.approx(s / steps, abs=1.0 / num)

    def test_rejects_non_increasing_chain(self):
        space = build_space(4)
        chain = nested_chain(space, 4)
        with pytest.raises(PreconditionError):
            radius_profile(kernel_operator(space, np.zeros((4, 4), dtype=complex)),
                           [chain[2], chain[1]])


class TestQuasinilpotenceDichotomy:
    def test_volterra_consistent(self):
        K = volterra_linear(64)
        report = quasinilpotence_dichotomy(K, nested_chain(K.space, 16))
        assert report.inclusion_holds
        assert report.radius <= 1e-8
        assert report.consistent

    def test_rank_one_kernel_breaks_inclusion(self):
        K = ones_kernel(64)
        report = quasinilpotence_dichotomy(K, nested_chain(K.space, 16))
        assert not report.inclusion_holds  # r(P_t K P_t) = t is not in sigma(K)
        assert report.consistent

    def test_zero_operator_trivially_consistent(self):
        space = build_space(8)
        K = kernel_operator(space, np.zeros((8, 8), dtype=complex))
        report = quasinilpotence_dichotomy(K, nested_chain(space, 4))
        assert report.inclusion_holds and report.consistent

    def test_rejects_atoms(self):
        space = build_space(2, [2])
        K = kernel_operator(space, np.zeros((3, 3), dtype=complex))
        with pytest.raises(PreconditionError):
            quasinilpotence_dichotomy(K, [StandardSet.empty(space)])


class TestAtomicVsFullSpectrum:
    def test_purely_atomic_trivial(self):
        K = atomic_operator(np.diag([1.0, 2.0]))
        report = atomic_vs_full_spectrum(K)
        assert report.passed
        assert report.cells_report is None

    def test_triangular_cells_with_atom_diagonal(self):
        space = build_space(2, [2, 3])
        kernel = np.zeros((4, 4), dtype=complex)
        kernel[0, 1] = 1.0
        kernel[0, 2] = 0.5  # coupling above the diagonal is fine
        kernel[2, 2] = 2.0
        kernel[3, 3] = 3.0
        K = kernel_operator(space, kernel)
        report = atomic_vs_full_spectrum(K)
        assert report.passed
        assert report.cells_report.quasinilpotent

    def test_planted_violation_in_cells(self):
        space = build_space(2, [2])
        kernel = np.zeros((3, 3), dtype=complex)
        kernel[0, 0] = kernel[1, 1] = 2.0  # cell block is the identity * 2/w
        kernel[2, 2] = 1.0
        K = kernel_operator(space, kernel)
        report = atomic_vs_full_spectrum(K)
        assert not report.passed
        assert not report.cells_report.quasinilpotent
