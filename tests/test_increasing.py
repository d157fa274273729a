import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_increasing_oracle,
    forbid_eigenvalues,
    found_sampled_instance,
    near_tolerance_instance,
    random_hybrid_instance,
    random_nilpotent_instance,
    reference_increasing_check,
    reference_radius_profile,
    reference_sampled_check,
    worst_covering_margin,
)

from kerneltri import (
    DimensionMismatchError,
    PreconditionError,
    PropertyReport,
    StandardSet,
    build_space,
    check_increasing_spectrum,
    compress,
    densify,
    find_nondegenerate_cycle,
    kernel_operator,
    nested_chain,
    ones_kernel,
    operator_from_dict,
    radius_profile,
    sharpness_example,
    volterra_linear,
)
from kerneltri.spectral import BLOCK_ENTRIES, block_ranges, block_size


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


def decision(report):
    return report.verdict, report.pairs_checked, report.witness


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestLevelByLevelAgainstReference:
    """The level-by-level exhaustive check decides exactly what the plain
    per-pair loop decides: same verdict, pairs_checked and witness."""

    @given(seeds, st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_random_complex_matrices(self, seed, p):
        rng = np.random.default_rng(seed)
        cells = int(rng.integers(0, p + 1))
        mat = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        mat[rng.random((p, p)) < 0.4] = 0.0
        K = kernel_operator(build_space(cells, range(2, p - cells + 2)), mat)
        assert decision(check_increasing_spectrum(K)) == decision(reference_increasing_check(K))

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_nilpotent_family(self, seed):
        rng = np.random.default_rng(seed)
        kfr, _ = random_nilpotent_instance(rng)
        K = densify(kfr)
        if K.size > 7:
            K = compress(K, StandardSet.from_indices(K.space, range(7)))
        report = check_increasing_spectrum(K)
        assert report.verdict
        assert decision(report) == decision(reference_increasing_check(K))

    @given(seeds, st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_paper_examples_permuted_and_scaled(self, seed, n):
        rng = np.random.default_rng(seed)
        K = sharpness_example(n)
        perm = rng.permutation(K.size)
        scale = complex(rng.standard_normal(), rng.standard_normal())
        K = atomic_operator(scale * np.asarray(K.entries)[np.ix_(perm, perm)])
        assert decision(check_increasing_spectrum(K)) == decision(reference_increasing_check(K))

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_hybrid_family(self, seed):
        K, _ = random_hybrid_instance(np.random.default_rng(seed))
        report = check_increasing_spectrum(K)
        assert report.verdict
        assert decision(report) == decision(reference_increasing_check(K))

    @given(seeds, st.integers(min_value=1, max_value=7), st.sampled_from([1e-8, 0.0]))
    @settings(max_examples=60, deadline=None)
    def test_exact_acyclic_supports(self, seed, p, tol):
        # upper triangular with complex entries in a random point order, so
        # the whole support is acyclic; on half the draws one entry against
        # that order, which leaves an acyclic suffix of fewer points
        rng = np.random.default_rng(seed)
        cells = int(rng.integers(0, p + 1))
        mat = np.triu(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
        mat *= rng.random((p, p)) < 0.6
        if p > 1 and rng.random() < 0.5:
            i, j = sorted(rng.choice(p, size=2, replace=False))
            mat[j, i] = rng.standard_normal()
        perm = rng.permutation(p)
        K = kernel_operator(build_space(cells, range(2, p - cells + 2)), mat[np.ix_(perm, perm)])
        report = check_increasing_spectrum(K, tol)
        assert report == reference_increasing_check(K, tol)

    @given(seeds, st.integers(min_value=5, max_value=7), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_margins_between_tol_over_p_and_tol(self, seed, p, u):
        # the entry against the triangular order closes a cycle, so the
        # pairs above the acyclic suffix are scanned exactly; p * w > tol,
        # so no bound summed over covering pairs could prove them, while
        # each single margin stays below tol, so all pairs hold
        ratio = (1.0 + (p - 1) * (0.1 + 0.8 * u)) / p
        K = near_tolerance_instance(np.random.default_rng(seed), p, ratio)
        assert p * worst_covering_margin(np.asarray(K.entries)) > 1e-8 * K.scale
        report = check_increasing_spectrum(K)
        assert report.verdict
        assert decision(report) == decision(reference_increasing_check(K))

    @given(seeds, st.integers(min_value=5, max_value=7), st.floats(min_value=1.1, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_margins_beyond_tol(self, seed, p, ratio):
        K = near_tolerance_instance(np.random.default_rng(seed), p, ratio)
        report = check_increasing_spectrum(K)
        assert not report.verdict
        assert decision(report) == decision(reference_increasing_check(K))

    @pytest.mark.parametrize("p", [5, 6, 7])
    def test_drift_along_a_chain_is_not_proven(self, p):
        # arrowhead: each point i > 0 moves the eigenvalue of point 0 by
        # 0.6 tol, so every covering margin is within tol, while E = {0}
        # and F = {0, i, j} are 1.2 tol apart; the arcs to and from point 0
        # form cycles, so the exact scan finds that pair
        mu = np.arange(1.0, p)
        kernel = np.diag(np.concatenate(([0.0], mu))).astype(complex)
        shift = 0.6e-8 * (p - 1)
        kernel[0, 1:] = 1.0
        kernel[1:, 0] = -shift * mu
        K = atomic_operator(kernel)
        assert worst_covering_margin(np.asarray(K.entries)) < 1e-8 * K.scale
        report = check_increasing_spectrum(K)
        assert not report.verdict
        assert decision(report) == decision(reference_increasing_check(K))

    @pytest.mark.parametrize("p", [3, 5, 7, 9, 12])
    def test_late_violator_position(self, p):
        # a 2-cycle on points 0 and 1, block diagonal with a holding
        # triangular block on the rest: the first violating pair is
        # E = {1}, F = {0, 1}, pair number 5 * 3^(p-2) in enumeration order
        rng = np.random.default_rng(p)
        kernel = np.zeros((p, p), dtype=complex)
        kernel[0, 1], kernel[1, 0] = 1.5, -0.75
        kernel[2:, 2:] = np.triu(rng.standard_normal((p - 2, p - 2)))
        K = kernel_operator(build_space(p // 4, range(2, p - p // 4 + 2)), kernel)
        report = check_increasing_spectrum(K)
        assert not report.verdict and report.exhaustive
        assert report.pairs_checked == 5 * 3 ** (p - 2) + 1
        e, f, z = report.witness
        assert (e, f) == ((1,), (0, 1))
        assert z == 0

    def test_witness_inside_a_chunk_and_a_spectrum(self):
        # 9 points, diagonal but for a 2-cycle on points 4 and 7 (it moves
        # their eigenvalues by 0.6 tol, with tol * K.scale = 1e-7 here) and
        # a 3-cycle 0 -> 4 -> 7 -> 0 that moves the one near kernel[7, 7]
        # by about 1.3 tol more: E = {7} against F = {0, 4, 7} holds at
        # about 0.7 tol, and E = {4, 7} fails there on its second
        # eigenvalue; level 9 starts at pair 3^8, so its 729-pair chunks
        # are aligned and the witness is row 168 of one
        kernel = np.diag([0.0, 3, 5, 7, 10, 2, 4, 0.1, 6]).astype(complex)
        kernel[0, 4] = kernel[4, 7] = 1.0
        kernel[7, 4] = 0.6e-7 * 9.9
        kernel[7, 0] = -1.3e-7
        K = kernel_operator(build_space(0, range(2, 11)), kernel)
        report = check_increasing_spectrum(K)
        assert decision(report) == decision(reference_increasing_check(K))
        e, f, z = report.witness
        assert (e, f) == ((4, 7), (0, 4, 7))
        assert (report.pairs_checked - 1) % 729 == 168
        assert np.flatnonzero(np.linalg.eigvals(K.entries[np.ix_(e, e)]) == z).tolist() == [1]

    def test_early_violator_among_64_points(self):
        # found at level 2; the check must not touch the 2^64 subsets
        K = ones_kernel(64)
        report = check_increasing_spectrum(K, max_points=64)
        assert report.pairs_checked == 6
        assert decision(report) == decision(reference_increasing_check(K))

    def test_violator_at_level_seven_of_64_points(self):
        # triangular but for a 2-cycle on points 57 and 58, so the acyclic
        # suffix holds the last 6 points and the scan starts at level 7
        rng = np.random.default_rng(64)
        kernel = np.triu(rng.standard_normal((64, 64))).astype(complex)
        kernel[57, 58], kernel[58, 57] = 1.5, -0.75
        K = atomic_operator(kernel)
        report = check_increasing_spectrum(K, max_points=64)
        assert not report.verdict
        assert decision(report) == decision(reference_increasing_check(K))

    def test_empty_space_has_one_pair(self):
        K = sharpness_example(1)
        report = check_increasing_spectrum(compress(K, StandardSet.empty(K.space)))
        assert decision(report) == (True, 1, None)

    def test_no_runtime_warning(self):
        K = atomic_operator(np.triu(np.ones((6, 6))) + np.diag(np.arange(6.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_increasing_spectrum(K).verdict
            assert not check_increasing_spectrum(atomic_operator(np.ones((6, 6)))).verdict


def triangular_hybrid(seed: int, p: int):
    """A hybrid-space operator, strictly upper triangular in a random point
    order plus a nonzero diagonal on its atoms: an acyclic support."""
    rng = np.random.default_rng(seed)
    cells = p // 3
    mat = np.triu(rng.standard_normal((p, p)) * (rng.random((p, p)) < 0.5), 1)
    mat[np.arange(cells, p), np.arange(cells, p)] = 1.0 + rng.random(p - cells)
    perm = rng.permutation(p)
    return kernel_operator(build_space(cells, range(2, p - cells + 2)), mat[np.ix_(perm, perm)])


class TestStructuralProof:
    """A support that is acyclic at exact zeros decides the check without
    one eigen-decomposition."""

    def test_exhaustive_path(self, monkeypatch):
        K = triangular_hybrid(12, 12)
        forbid_eigenvalues(monkeypatch)
        report = check_increasing_spectrum(K)
        assert report == PropertyReport(True, 3**12, True, 1e-8)

    def test_sampled_path(self, monkeypatch):
        K = triangular_hybrid(14, 14)
        expected = reference_sampled_check(K, samples=500, seed=3)
        assert expected.pairs_checked == math.comb(K.space.num_cells + 1, 2) + 500
        forbid_eigenvalues(monkeypatch)
        assert check_increasing_spectrum(K, samples=500, seed=3) == expected

    def test_cycle_below_the_structural_zero_is_scanned(self):
        # a 12-atom shift with a 5e-11 corner: at zero_threshold the corner
        # is a structural zero and the support digraph is acyclic, yet the
        # corner closes a 12-cycle and the spectral radius is 0.139
        kernel = np.eye(12, k=1)
        kernel[11, 0] = 5e-11
        K = atomic_operator(kernel)
        assert find_nondegenerate_cycle(K) is None
        report = check_increasing_spectrum(K)
        assert decision(report) == (False, 265_722, ((11,), tuple(range(12)), 0j))

    def test_cycle_within_tol_holds(self):
        # a 2-cycle whose eigenvalues ±1e-9 lie within tol of the
        # singletons' 0: scanned, and every pair holds
        K = atomic_operator([[0, 1e-9], [1e-9, 0]])
        assert find_nondegenerate_cycle(K) == (0, 1)
        assert decision(check_increasing_spectrum(K)) == (True, 9, None)


def sampled_instance(seed: int, kind: str):
    """An operator on 13 to 18 points with at least one cell, so the nested
    chain contributes pairs: "hold" is upper triangular (every compression
    keeps its diagonal as spectrum), "dense" violates within a few pairs
    and "cycle" isolates a cycle through 5 to 7 atoms, so only pairs whose
    F holds the whole cycle can violate and the witness comes late."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(13, 19))
    cells = int(rng.integers(1, p // 2 + 1))
    mat = np.triu(rng.standard_normal((p, p)) * (rng.random((p, p)) < 0.5), 1)
    mat += np.diag(rng.standard_normal(p))
    if kind == "dense":
        mat = rng.standard_normal((p, p))
    elif kind == "cycle":
        k = min(int(rng.integers(5, 8)), p - cells)
        pts = np.sort(rng.choice(np.arange(cells, p), size=k, replace=False))
        diag = mat[pts, pts]
        mat[pts, :] = 0.0
        mat[:, pts] = 0.0
        mat[pts, pts] = diag
        mat[np.roll(pts, 1), pts] = 1.0
    return kernel_operator(build_space(cells, range(2, p - cells + 2)), mat)


def volterra_back_arc(cells: int, k: int):
    """`volterra_linear(cells)` plus the arc 0 -> k-1 against its order,
    which closes the 2-cycle {0, k-1} (k >= 2), and two atoms carrying a
    2-cycle and a diagonal: the first set of the nested cell chain that
    holds a cycle is the one of the first k cells."""
    space = build_space(cells, [2, 3])
    kernel = np.zeros((cells + 2, cells + 2), dtype=complex)
    kernel[:cells, :cells] = volterra_linear(cells).kernel_values
    kernel[0, k - 1] = 0.5
    kernel[cells:, cells:] = [[1.0, 2.0], [-1.0, 0.5j]]
    return kernel_operator(space, kernel)


class TestSampledCheck:
    """The block-wise sampled path against the per-pair loop it replaced."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("samples", [0, 1, 300, 1000])
    @pytest.mark.parametrize("kind", ["hold", "dense", "cycle"])
    def test_matches_per_pair_loop(self, kind, samples, seed):
        for instance in range(3):
            K = sampled_instance(100 * seed + instance, kind)
            report = check_increasing_spectrum(K, max_points=12, samples=samples, seed=seed)
            assert report == reference_sampled_check(K, samples=samples, seed=seed)
            if kind == "hold" or samples == 0 and kind == "cycle":
                assert report.verdict  # the chain holds no atom of the cycle
            elif samples >= 300 and kind == "dense":
                assert not report.verdict

    @pytest.mark.parametrize("cells", [13, 16, 40])
    @pytest.mark.parametrize("samples", [0, 300])
    def test_chain_pairs_off_the_cycle(self, cells, samples):
        K = found_sampled_instance(cells)
        report = check_increasing_spectrum(K, max_points=12, samples=samples, seed=cells)
        assert report == reference_sampled_check(K, samples=samples, seed=cells)

    @pytest.mark.parametrize("k", [2, 3, 7, 14])
    @pytest.mark.parametrize("samples", [0, 200])
    def test_cycle_first_in_chain_set_k(self, k, samples):
        # the chain pairs whose F holds the first k cells or more are
        # scanned, the others hold; the pair numbers count them all
        K = volterra_back_arc(14, k)
        report = check_increasing_spectrum(K, max_points=12, samples=samples, seed=k)
        assert report == reference_sampled_check(K, samples=samples, seed=k)
        if samples == 0:
            assert not report.verdict
            assert len(report.witness[1]) >= k

    def test_found_reproduction_needs_no_eigenvalues(self, monkeypatch):
        # 128 cells plus two atoms with a 2-cycle: none of the 8,256 chain
        # pairs touches the cycle
        K = found_sampled_instance(128)
        forbid_eigenvalues(monkeypatch)
        report = check_increasing_spectrum(K, samples=0)
        assert report == PropertyReport(True, math.comb(129, 2), False, 1e-8)

    def test_late_witnesses_cross_block_boundaries(self):
        # every witness lies past the first block (the chain pairs, or one
        # sample when there are none), and some lie in a block of full size
        full_blocks = []
        for seed in range(8):
            K = sampled_instance(seed, "cycle")
            report = check_increasing_spectrum(K, max_points=12, samples=1000, seed=seed)
            assert not report.verdict
            assert report == reference_sampled_check(K, samples=1000, seed=seed)
            chain = math.comb(K.space.num_cells + 1, 2)
            ranges = list(block_ranges(chain + 1000, K.size, max(1, chain)))
            block = next(i for i, (lo, hi) in enumerate(ranges) if report.pairs_checked <= hi)
            assert block > 0
            full_blocks.append(ranges[block][1] - ranges[block][0] == block_size(K.size))
        assert any(full_blocks)

    @pytest.mark.parametrize(
        "shape",
        # the sampled check's pairs (F's bits, then E's), drawn in blocks
        [(300, 2, p) for p in (1, 2, 7, 8, 13, 31, 32, 33, 62, 63, 64, 65, 79)]
        # the subsets of the sampled nilpotence check, drawn in blocks
        + [(2048, p) for p in (13, 16, 64, 65)],
    )
    def test_block_draw_equals_per_sample_draws(self, shape):
        n, row, p = shape[0], shape[1:], shape[-1]
        if len(row) == 2:
            ranges = list(block_ranges(n, p, 1))
        else:  # each block draws what is left after the p + 1 fixed subsets
            ranges = [
                (max(lo, p + 1) - p - 1, hi - p - 1)
                for lo, hi in block_ranges(p + 1 + n, p, p + 1)
                if hi > p + 1
            ]
        for seed in (0, 1, 12345):
            blocks = np.random.default_rng(seed)
            drawn = np.concatenate(
                [blocks.integers(0, 2, size=(hi - lo, *row)) for lo, hi in ranges]
            )
            single = np.random.default_rng(seed)
            expected = [single.integers(0, 2, size=p) for _ in range(drawn.size // p)]
            np.testing.assert_array_equal(drawn, np.reshape(expected, shape))

    def test_memory_does_not_grow_with_samples(self):
        K = sampled_instance(3, "hold")
        peaks = {}
        for samples in (1_000, 100_000):
            tracemalloc.start()
            try:
                assert check_increasing_spectrum(K, max_points=12, samples=samples).verdict
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[100_000] < 1.5 * peaks[1_000]
        assert peaks[100_000] < 16 * BLOCK_ENTRIES * 4  # a few complex block tables


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

    @pytest.mark.parametrize(
        "n, steps", [(1, 1), (2, 16), (7, 3), (7, 10**12), (64, 16), (64, 10**12), (200, 16)]
    )
    def test_named_operators_match_reference(self, n, steps):
        for K in (volterra_linear(n), ones_kernel(n)):
            chain = nested_chain(K.space, steps)
            assert radius_profile(K, chain) == reference_radius_profile(K, chain)

    @pytest.mark.parametrize("k", [2, 3, 5, 12, 24])
    def test_cycle_first_in_chain_set_k(self, k):
        # the sets before the k-th read the diagonal, the others LAPACK
        K = volterra_back_arc(24, k)
        chain = nested_chain(K.space, 24)
        expected = reference_radius_profile(K, chain)
        assert radius_profile(K, chain) == expected
        assert max(expected[:k]) == 0.0 and min(expected[k:]) > 0.0

    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_dense_descriptors_on_random_chains(self, seed):
        # forward arcs in a random point order, up to two arcs against it,
        # complex entries and a diagonal on some points; the chain grows
        # in another random order, so its sets are no prefixes
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 30))
        cells = int(rng.integers(0, p + 1))
        rank = rng.permutation(p)
        kernel = np.where(
            (rank[:, None] < rank[None, :]) & (rng.random((p, p)) < 0.3),
            rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)),
            0.0,
        )
        kernel[np.diag_indices(p)] = np.where(rng.random(p) < 0.5, rng.standard_normal(p), 0.0)
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(0, p, size=2)
            kernel[i, j] = 1.5
        desc = {
            "kind": "dense",
            "space": {"cells": cells, "atoms": list(range(2, p - cells + 2))},
            "kernel": [[[z.real, z.imag] for z in row.tolist()] for row in kernel],
        }
        K = operator_from_dict(desc)
        growth = rng.permutation(p)
        sizes = np.sort(rng.choice(p + 1, size=int(rng.integers(1, p + 2)), replace=False))
        chain = [StandardSet.from_indices(K.space, growth[:n].tolist()) for n in sizes]
        assert radius_profile(K, chain) == reference_radius_profile(K, chain)

    def test_needs_no_eigenvalues_on_an_acyclic_support(self, monkeypatch):
        K = volterra_linear(512)
        chain = nested_chain(K.space, 10**12)
        forbid_eigenvalues(monkeypatch)
        assert radius_profile(K, chain) == [0.0] * 513

    def test_empty_chain(self):
        assert radius_profile(volterra_linear(4), []) == []

    def test_rejects_a_chain_over_another_space(self):
        with pytest.raises(DimensionMismatchError):
            radius_profile(volterra_linear(4), nested_chain(build_space(5), 4))

    def test_refuses_a_set_beyond_the_dense_limit(self):
        space = build_space(600)
        K = kernel_operator(space, np.zeros((600, 600), dtype=complex))
        chain = [StandardSet(space, (1 << n) - 1) for n in (0, 100, 513, 600)]
        with pytest.raises(PreconditionError, match="operator size 513 exceeds dense limit 512"):
            radius_profile(K, chain)

    def test_rejects_non_increasing_chain(self):
        space = build_space(4)
        chain = nested_chain(space, 4)
        with pytest.raises(PreconditionError):
            radius_profile(kernel_operator(space, np.zeros((4, 4), dtype=complex)),
                           [chain[2], chain[1]])
