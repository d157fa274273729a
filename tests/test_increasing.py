import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_increasing_oracle,
    count_decompositions,
    figure_eight,
    forbid_eigenvalues,
    near_tolerance_instance,
    planted_cycles,
    random_hybrid_instance,
    random_nilpotent_instance,
    reference_acyclic_suffix,
    reference_increasing_check,
    reference_nilpotent_failure,
    reference_radius_profile,
    reference_shortest_cycle,
    reference_structural_check,
    volterra_and_two_cycle,
    witness_violates,
    worst_covering_margin,
    worst_margin,
)

from kerneltri import (
    DimensionMismatchError,
    PreconditionError,
    PropertyReport,
    StandardSet,
    assert_nilpotent_compressions,
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
from kerneltri.cycles import SubsetCycles
from kerneltri.spaces import mask_indices, standard_pair_masks


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

    def test_structural_mode_labels_report(self):
        K = volterra_linear(16)
        report = check_increasing_spectrum(K, max_points=12)
        assert not report.exhaustive
        assert report.verdict  # strictly lower triangular: all spectra are {0}

    def test_positive_quasinilpotent_compressions(self):
        # positive K with radius ~ 0: every compression stays quasinilpotent
        K = volterra_linear(10)
        for mask in range(1, 1 << 10, 37):
            idx = [i for i in range(10) if mask >> i & 1]
            sub = compress(K, StandardSet.from_indices(K.space, idx))
            assert np.abs(np.linalg.eigvals(sub.entries)).max() <= 1e-8


def cycles_through_one_point(rng, p, top, ratios):
    """Atomic operator, upper triangular with random complex entries and
    diagonal, but for two arcs back from later points j to the point
    `top`, beside forward arcs top -> j, each sized so that its 2-cycle
    moves the eigenvalues near a_tt and a_jj by about r x tol x scale to
    first order, for one r drawn from `ratios` per arc. The two shifts add
    up on a_tt, and the paths through the points between add terms of the
    same order, so the pairs over the points from `top` on are scanned and
    decided either way; points before `top` only add their diagonal."""
    mat = np.triu(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)), 1)
    mat *= rng.random((p, p)) < 0.5
    mat += np.diag(rng.standard_normal(p) + 1j * rng.standard_normal(p))
    tol_eff = 1e-8 * max(1.0, float(np.abs(mat).max()))
    for j in rng.choice(np.arange(top + 1, p), size=2, replace=False):
        mat[top, j] = mat[top, j] or 1.0
        mat[j, top] = rng.uniform(*ratios) * tol_eff * (mat[top, top] - mat[j, j]) / mat[top, j]
    return atomic_operator(mat)


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
    @example(seed=228, p=7, u=1.0)  # a pair margin of 1.06 tol under first-order sizing
    @settings(max_examples=20, deadline=None)
    def test_margins_between_tol_over_p_and_tol(self, seed, p, u):
        # the entry against the triangular order closes a cycle, so the
        # pairs above the acyclic suffix are scanned exactly; p * w > tol,
        # so no bound summed over covering pairs could prove them, while
        # each single margin stays below tol, so all pairs hold
        ratio = (1.0 + (p - 1) * (0.1 + 0.8 * u)) / p
        K = near_tolerance_instance(np.random.default_rng(seed), p, ratio)
        assert p * worst_covering_margin(np.asarray(K.entries)) > 1e-8 * K.scale
        assert worst_margin(np.asarray(K.entries)) < 1e-8 * K.scale
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

    @given(
        seeds,
        st.integers(min_value=7, max_value=10),
        st.integers(min_value=0, max_value=1),
        st.sampled_from([(0.05, 0.4), (0.3, 1.2)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_levels_of_several_pair_blocks(self, seed, p, top, ratios):
        # from 7 points on, the last levels split into several pair blocks,
        # and the later blocks have points of E among their high digits;
        # cycles through point 0 or 1 reach those levels; the small shifts
        # hold in about 60% of the draws, and about a fifth of the larger
        # ones first fail with `top`, a high digit, in E
        K = cycles_through_one_point(np.random.default_rng(seed), p, top, ratios)
        report = check_increasing_spectrum(K)
        assert decision(report) == decision(reference_increasing_check(K))

    @given(seeds, st.sampled_from([13, 14]), st.integers(min_value=7, max_value=9))
    @settings(max_examples=10, deadline=None)
    def test_max_points_13_and_14(self, seed, p, level):
        # exhaustive at 13 and 14 points: the cycles lie among the last
        # `level` points, so a failing operator has its first witness among
        # the first 3^level pairs, as far as the reference loop goes (a
        # holding one would take it through all 3^p pairs)
        K = cycles_through_one_point(np.random.default_rng(seed), p, p - level, (0.6, 1.0))
        report = check_increasing_spectrum(K, max_points=p)
        assume(not report.verdict)
        assert report.exhaustive and report.pairs_checked <= 3**level
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
        report = check_increasing_spectrum(compress(K, StandardSet(K.space, 0)))
        assert decision(report) == (True, 1, None)

    def test_no_runtime_warning(self):
        K = atomic_operator(np.triu(np.ones((6, 6))) + np.diag(np.arange(6.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_increasing_spectrum(K).verdict
            assert not check_increasing_spectrum(atomic_operator(np.ones((6, 6)))).verdict
            for K, verdict in ((volterra_linear(4), True), (ones_kernel(3), False)):
                report = check_increasing_spectrum(K)
                assert report.verdict is bool(report) is verdict


def planted_operator(seed: int):
    """`planted_cycles` on 3 to 8 points (by seed) over a hybrid space."""
    p = 3 + seed % 6
    mat = planted_cycles(np.random.default_rng(seed), p)
    return kernel_operator(build_space(p // 3, range(2, p - p // 3 + 2)), mat)


def reference_cyclic_subsets(entries: np.ndarray) -> list[bool]:
    """Per level mask (bit j is point p-1-j), whether the compression to
    its points has a cycle of exactly nonzero off-diagonal entries:
    `reference_acyclic_suffix` of the compression falls short of its size."""
    p = entries.shape[0]
    flags = []
    for lmask in range(1 << p):
        idx = [i for i in range(p) if lmask >> (p - 1 - i) & 1]
        flags.append(reference_acyclic_suffix(entries[np.ix_(idx, idx)]) < len(idx))
    return flags


class TestSubsetTableAgainstBruteForce:
    """The table of cyclic subsets, the pair rules built on it (an acyclic
    F holds, an acyclic E is decided by far[F], a cyclic E is measured)
    and the nilpotence scan, against plain loops on operators with cycles
    planted on random point subsets; levels of 7 and 8 points span several
    pair blocks."""

    SEEDS = range(30)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_report_table_and_nilpotence(self, seed):
        K = planted_operator(seed)
        p = K.size
        assert check_increasing_spectrum(K) == reference_increasing_check(K)

        table = SubsetCycles(K.entries)
        assert table.suffix == reference_acyclic_suffix(K.entries)
        assert table.grow(p).tolist() == reference_cyclic_subsets(K.entries)

        # a zero diagonal but on one point, if any: the scan then reaches
        # the cyclic subsets of the points before it
        kernel = np.array(K.kernel_values)
        np.fill_diagonal(kernel, 0.0)
        top = seed % (p + 1)
        if top < p:
            kernel[top, top] = 1.0
        N = kernel_operator(K.space, kernel)
        expected = reference_nilpotent_failure(N)
        if expected is None:
            assert_nilpotent_compressions(N)
        else:
            with pytest.raises(PreconditionError) as exc:
                assert_nilpotent_compressions(N)
            assert str(exc.value) == expected

    def test_the_operators_mix_the_pair_kinds(self):
        # over the seeds above: both verdicts, witnesses with an acyclic E
        # and a cyclic F, and pairs with both sets cyclic before a witness
        # (a cyclic E first fails in test_levels_of_several_pair_blocks and
        # test_witness_inside_a_chunk_and_a_spectrum)
        seen = set()
        for seed in self.SEEDS:
            K = planted_operator(seed)
            p = K.size
            report = check_increasing_spectrum(K)
            seen.add(report.verdict)
            if report.verdict:
                continue
            cyclic = reference_cyclic_subsets(K.entries)

            def lmask(points):
                return sum(1 << (p - 1 - i) for i in points)

            e, f, _ = report.witness
            seen.add(("witness E", cyclic[lmask(e)], "witness F", cyclic[lmask(f)]))
            for e_mask, f_mask in itertools.islice(
                standard_pair_masks(p), report.pairs_checked - 1
            ):
                e_points = mask_indices(e_mask, p)
                if cyclic[lmask(e_points)]:
                    seen.add("both cyclic before the witness")
                    break
        assert {
            True,
            False,
            ("witness E", False, "witness F", True),
            "both cyclic before the witness",
        } <= seen


class TestDecompositionsSaved:
    """Only cyclic subsets are eigen-decomposed."""

    def test_late_violator_decomposes_the_subsets_of_its_cycle(self, monkeypatch):
        # a 2-cycle on points 0 and 1, triangular elsewhere: the acyclic
        # suffix holds points 1 to 8, and of the 256 new subsets of level 9
        # only the 2^7 that hold both points are cyclic, one call per size
        p = 9
        rng = np.random.default_rng(p)
        kernel = np.zeros((p, p), dtype=complex)
        kernel[0, 1], kernel[1, 0] = 1.5, -0.75
        kernel[2:, 2:] = np.triu(rng.standard_normal((p - 2, p - 2)))
        K = kernel_operator(build_space(p // 4, range(2, p - p // 4 + 2)), kernel)
        counts = count_decompositions(monkeypatch)
        report = check_increasing_spectrum(K)
        assert counts == [(s, math.comb(p - 2, s - 2)) for s in range(2, p + 1)]
        assert report == PropertyReport(False, 5 * 3 ** (p - 2) + 1, True, 1e-8, ((1,), (0, 1), 0j))
        monkeypatch.undo()
        assert report == reference_increasing_check(K)

    @pytest.mark.parametrize("p", [3, 6, 9])
    def test_two_cycle_on_the_last_points_decomposes_only_them(self, monkeypatch, p):
        # triangular with the 2-cycle on points p-2 and p-1: level 2 holds
        # the only cyclic subset, and ({p-1}, {p-2, p-1}) violates there
        rng = np.random.default_rng(p)
        kernel = np.triu(rng.standard_normal((p, p))).astype(complex)
        kernel[p - 2, p - 2] = kernel[p - 1, p - 1] = 0.0
        kernel[p - 2, p - 1], kernel[p - 1, p - 2] = 1.5, -0.75
        K = atomic_operator(kernel)
        counts = count_decompositions(monkeypatch)
        report = check_increasing_spectrum(K)
        assert counts == [(2, 1)]
        assert report == PropertyReport(False, 6, True, 1e-8, ((p - 1,), (p - 2, p - 1), 0j))

    def test_nilpotence_scan_decomposes_only_cyclic_subsets(self, monkeypatch):
        # a zero diagonal, arcs of 1 from each point to every later one and
        # arcs of 1e-30 back inside the pairs {0, 1}, {2, 3} and {4, 5}: the
        # 2^7 - 3^3 * 2 = 74 subsets that hold a whole pair are cyclic, and
        # each compression has radius at most 1e-15, so the scan decomposes
        # each of them once and no other
        p = 7
        kernel = np.triu(np.ones((p, p)), 1)
        for i in (0, 2, 4):
            kernel[i + 1, i] = 1e-30
        K = atomic_operator(kernel)
        assert reference_nilpotent_failure(K) is None
        counts = count_decompositions(monkeypatch)
        assert_nilpotent_compressions(K)
        assert sum(n for _, n in counts) == sum(reference_cyclic_subsets(K.entries)) == 74
        assert all(s >= 2 for s, _ in counts)


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

    def test_structural_path(self, monkeypatch):
        K = triangular_hybrid(14, 14)
        forbid_eigenvalues(monkeypatch)
        report = check_increasing_spectrum(K)
        assert report == PropertyReport(True, 3**14, False, 1e-8)

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


def cyclic_shift(p: int):
    """a[i, i+1] = 1 and a[p-1, 0] = 1 on p atoms, zero diagonal: one
    p-cycle, whose compression has the p-th roots of unity as spectrum."""
    kernel = np.eye(p, k=1)
    kernel[p - 1, 0] = 1.0
    return atomic_operator(kernel)


def seeded_13_points(seed: int, kind: str):
    """A 13-point operator: "acyclic" is `triangular_hybrid`, "dense" is
    standard normal and "hybrid" is `triangular_hybrid` with a cycle of
    arcs 1 planted through 3 to 6 random points."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return atomic_operator(rng.standard_normal((13, 13)))
    K = triangular_hybrid(seed, 13)
    if kind == "acyclic":
        return K
    kernel = np.array(K.kernel_values)
    points = rng.choice(13, size=int(rng.integers(3, 7)), replace=False)
    kernel[points, np.roll(points, -1)] = 1.0
    return kernel_operator(K.space, kernel)


def chain_and_cycle_instance(seed: int, kind: str):
    """An operator on 13 to 18 points with at least one cell: "hold" is
    upper triangular with a diagonal (an acyclic support), "dense" is
    standard normal and "cycle" isolates a cycle through 5 to 7 atoms,
    each keeping its diagonal entry, beside an upper triangular rest."""
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


class TestStructuralCheck:
    """Above max_points an acyclic exact support holds, and on a cyclic one
    the shortest cycle C gives the witness ({v}, C), confirmed by one
    eigen-decomposition of the compression to C."""

    @pytest.mark.parametrize(
        "make, p",
        [(cyclic_shift, 16), (cyclic_shift, 20), (cyclic_shift, 24),
         (figure_eight, 19), (figure_eight, 27), (figure_eight, 39)],
    )
    def test_cyclic_supports_fail(self, make, p):
        # a violating pair must hold a whole cycle in F, which a seeded
        # draw of F almost never does
        K = make(p)
        cycle = tuple(range(p if make is cyclic_shift else (p + 1) // 2))
        report = check_increasing_spectrum(K)
        assert decision(report) == (False, 1, ((0,), cycle, 0j))
        assert not report.exhaustive
        assert witness_violates(K, report.witness)
        # σ(P_C K P_C) are the |C|-th roots of ±1: the margin is 1
        margin = np.abs(np.linalg.eigvals(K.entries[np.ix_(cycle, cycle)])).min()
        assert margin == pytest.approx(1.0)

    def test_beyond_63_points(self):
        K = atomic_operator(np.ones((70, 70)))
        report = check_increasing_spectrum(K)
        assert decision(report) == (False, 1, ((0,), (0, 1), 1 + 0j))
        assert witness_violates(K, report.witness)

    def test_witness_past_the_first_point_of_the_cycle(self):
        # the 3-cycle 0 -> 1 -> 2 -> 0 of product 1e-6 with diagonal 10, 0
        # and 1e-3: the eigenvalue near 10 moves by about 1e-8, within
        # tol * scale = 1e-7, and the one near 0 by about 1e-4
        kernel = np.zeros((13, 13))
        kernel[[0, 1, 2], [0, 1, 2]] = 10.0, 0.0, 1e-3
        kernel[[0, 1, 2], [1, 2, 0]] = 1.0, 1.0, 1e-6
        K = atomic_operator(kernel)
        report = check_increasing_spectrum(K)
        assert decision(report) == (False, 2, ((1,), (0, 1, 2), 0j))
        assert witness_violates(K, report.witness)
        assert not witness_violates(K, ((0,), (0, 1, 2), 10 + 0j))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["acyclic", "dense", "hybrid"])
    def test_agrees_with_the_exhaustive_check(self, kind, seed):
        K = seeded_13_points(seed, kind)
        report = check_increasing_spectrum(K)
        assert not report.exhaustive
        assert report.verdict == (kind == "acyclic")
        assert check_increasing_spectrum(K, max_points=13).verdict == report.verdict
        if not report.verdict:
            e, f, _ = report.witness
            assert f == tuple(sorted(reference_shortest_cycle(K, 0.0)))
            assert witness_violates(K, report.witness)

    def test_band_example_a_raises(self):
        # README Tolerances: the 2-cycle [[0, 1e-9], [1e-9, 0]] moves the
        # diagonal by 1e-9, within tol * scale = 1e-8, so the shortest
        # cycle proves neither verdict; the exhaustive check says `true`
        kernel = np.zeros((13, 13))
        kernel[0, 1] = kernel[1, 0] = 1e-9
        K = atomic_operator(kernel)
        with pytest.raises(
            PreconditionError,
            match=r"shortest cycle \[0, 1\] .* margin 1\.000e-09, at or below tol \* scale "
            r"= 1\.000e-08: .* tolerance band; max_points >= 13 decides it exhaustively",
        ):
            check_increasing_spectrum(K)
        assert decision(check_increasing_spectrum(K, max_points=13)) == (True, 3**13, None)

    def test_band_example_b_fails(self):
        # README Tolerances: the 12-atom shift with a 5e-11 corner, which is
        # a structural zero but an exact arc, so the 12-cycle is C
        kernel = np.zeros((13, 13))
        kernel[:12, :12] = np.eye(12, k=1)
        kernel[11, 0] = 5e-11
        K = atomic_operator(kernel)
        report = check_increasing_spectrum(K)
        assert decision(report) == (False, 1, ((0,), tuple(range(12)), 0j))
        assert witness_violates(K, report.witness)
        margin = np.abs(np.linalg.eigvals(K.entries[:12, :12])).min()
        assert margin == pytest.approx(5e-11 ** (1 / 12))
        assert round(margin, 3) == 0.139

    def test_found_reproduction_decomposes_one_2x2_compression(self, monkeypatch):
        # 128 Volterra cells plus two atoms carrying [[0, 1], [2, 0]]:
        # ({128}, {128, 129}) violates by √2
        K = volterra_and_two_cycle(128)
        counts = count_decompositions(monkeypatch)
        report = check_increasing_spectrum(K)
        assert counts == [(2, 1)]
        assert report == PropertyReport(False, 1, False, 1e-8, ((128,), (128, 129), 0j))
        monkeypatch.undo()
        assert witness_violates(K, report.witness)
        assert np.abs(np.linalg.eigvals(K.entries[128:, 128:])).min() == pytest.approx(2**0.5)

    def test_samples_is_ignored(self):
        for K in (cyclic_shift(16), triangular_hybrid(14, 14)):
            assert check_increasing_spectrum(K, samples=1000) == check_increasing_spectrum(K)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["hold", "dense", "cycle"])
    def test_matches_the_reference_loops(self, kind, seed):
        K = chain_and_cycle_instance(seed, kind)
        report = check_increasing_spectrum(K, max_points=12)
        assert report == reference_structural_check(K)
        assert report.verdict == (kind == "hold")
        if kind == "cycle":
            assert len(report.witness[1]) in (5, 6, 7)  # the isolated cycle
        if not report.verdict:
            assert witness_violates(K, report.witness)

    @pytest.mark.parametrize("cells", [13, 16, 40, 64])
    def test_two_cycle_beside_the_cells(self, cells, monkeypatch):
        # the cells are acyclic: only the 2x2 compression to the atoms is
        # decomposed, and ({cells}, both atoms) violates by √2
        K = volterra_and_two_cycle(cells)
        counts = count_decompositions(monkeypatch)
        report = check_increasing_spectrum(K, max_points=12)
        assert counts == [(2, 1)]
        monkeypatch.undo()
        assert report == reference_structural_check(K)
        assert report == PropertyReport(False, 1, False, 1e-8, ((cells,), (cells, cells + 1), 0j))

    @pytest.mark.parametrize("k", [2, 3, 7, 14])
    def test_back_arc_closes_a_two_cycle(self, k):
        # the back arc 0 -> k-1 and the atoms each close a 2-cycle; the
        # shortest cycle search takes the one through the smallest point
        K = volterra_back_arc(14, k)
        report = check_increasing_spectrum(K, max_points=12)
        assert report == reference_structural_check(K)
        assert not report.verdict
        assert report.witness[1] == (0, k - 1)
        assert witness_violates(K, report.witness)

    def test_acyclic_beyond_63_points(self, monkeypatch):
        K = volterra_linear(70)
        forbid_eigenvalues(monkeypatch)
        assert check_increasing_spectrum(K) == PropertyReport(True, 3**70, False, 1e-8)

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_tol_below_the_band_example_a_fails(self, tol):
        # README Tolerances, example A: the margin 1e-9 of the 2-cycle
        # exceeds tol * scale once tol is below 1e-9
        kernel = np.zeros((13, 13))
        kernel[0, 1] = kernel[1, 0] = 1e-9
        K = atomic_operator(kernel)
        report = check_increasing_spectrum(K, tol=tol)
        assert report == reference_structural_check(K, tol)
        assert report == PropertyReport(False, 1, False, tol, ((0,), (0, 1), 0j))


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
