import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mixed_component_digraph,
    moment_matrix,
    random_nilpotent_instance,
    reference_acyclic_suffix,
    reference_shortest_cycle,
    svd_factors,
)

from kerneltri import (
    PreconditionError,
    StandardSet,
    build_space,
    densify,
    find_nondegenerate_cycle,
    kernel_operator,
    moment_identities,
    sharpness_example,
    sharpness_example_factors,
    shortest_cycle,
    support_digraph,
    volterra_linear,
)
from kerneltri import cycles
from kerneltri.cycles import acyclic_suffix


def atomic_operator(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return kernel_operator(build_space(0, range(2, matrix.shape[0] + 2)), matrix)


class TestSupportDigraph:
    def test_sharpness_example_arcs(self):
        dg = support_digraph(sharpness_example(2))
        assert dg.successors == (
            (1, 2, 3, 4),
            (1, 2, 3, 4),
            (3, 4),
            (3, 4),
            (),
        )

    def test_threshold_cuts_small_entries(self):
        K = atomic_operator([[0.0, 1e-4], [2.0, 0.0]])
        dg = support_digraph(K, threshold=1e-3)
        assert dg.successors == ((), (0,))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([None, 0.0, 0.5, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_arcs_match_successors(self, seed, threshold):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 9))
        kernel = rng.standard_normal((p, p)) * (rng.random((p, p)) < 0.4)
        kernel *= 10.0 ** rng.integers(-12, 3, size=(p, p))  # some below the structural zero
        K = atomic_operator(kernel)
        dg = support_digraph(K, threshold)
        cut = K.zero_threshold if threshold is None else threshold
        assert dg.threshold == cut
        assert dg.size == p
        assert dg.arcs.tolist() == (np.abs(K.kernel_values) > cut).tolist()
        assert not dg.arcs.flags.writeable
        arcs = {(i, j) for i, succ in enumerate(dg.successors) for j in succ}
        assert arcs == set(zip(*map(np.ndarray.tolist, np.nonzero(dg.arcs))))
        assert all(list(succ) == sorted(succ) for succ in dg.successors)
        if threshold is None:
            assert dg.arcs is K.support

    def test_volterra_is_strictly_lower(self):
        dg = support_digraph(volterra_linear(8))
        for i, succ in enumerate(dg.successors):
            assert all(j < i for j in succ)


class TestFindNondegenerateCycle:
    def test_sharpness_example_is_acyclic(self):
        assert find_nondegenerate_cycle(sharpness_example(2)) is None

    def test_volterra_is_acyclic(self):
        assert find_nondegenerate_cycle(volterra_linear(32)) is None

    def test_swap_has_two_cycle(self):
        K = atomic_operator([[0.0, 1.0], [1.0, 0.0]])
        assert find_nondegenerate_cycle(K) == (0, 1)

    def test_loops_alone_do_not_count(self):
        K = atomic_operator(np.diag([1.0, 2.0, 3.0]))
        assert find_nondegenerate_cycle(K) is None

    def test_shortest_cycle_wins(self):
        # 0 -> 1 -> 2 -> 0 is a 3-cycle, but 1 <-> 2 is shorter
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 2] = mat[2, 0] = 1.0
        mat[2, 1] = 1.0
        cyc = find_nondegenerate_cycle(atomic_operator(mat))
        assert cyc == (1, 2)

    def test_lexicographic_tie_break(self):
        # two disjoint 2-cycles: (0,3) and (1,2); smallest start wins
        mat = np.zeros((4, 4))
        mat[0, 3] = mat[3, 0] = 1.0
        mat[1, 2] = mat[2, 1] = 1.0
        assert find_nondegenerate_cycle(atomic_operator(mat)) == (0, 3)

    def test_signed_three_cycle(self):
        # k(0, 1) k(1, 2) k(2, 0) = -1 * 2 * 5
        K = atomic_operator([[0, -1, 0], [0, 0, 2], [5, 0, 0]])
        cyc = find_nondegenerate_cycle(K)
        assert cyc == (0, 1, 2)
        arcs = list(zip(cyc, cyc[1:] + cyc[:1]))
        assert np.prod([K.kernel_values[a] for a in arcs]) == pytest.approx(-10.0)

    def test_found_cycle_has_nonzero_product(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mat = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.3)
            K = atomic_operator(mat)
            cyc = find_nondegenerate_cycle(K)
            if cyc is not None:
                # k(x_1, x_2) k(x_2, x_3) ... k(x_n, x_1) over distinct points
                assert len(set(cyc)) == len(cyc) >= 2
                arcs = list(zip(cyc, cyc[1:] + cyc[:1]))
                assert abs(np.prod([K.kernel_values[a] for a in arcs])) > 0


class TestShortestCycleAgainstReference:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=24),
        st.sampled_from([0.03, 0.1, 0.3, 1.0]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([None, 0.0, 0.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_backtracking_dfs(self, seed, p, density, loops, acyclic, threshold):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((p, p)) * (rng.random((p, p)) < density)
        if acyclic:  # strictly upper triangular in a random point order
            perm = rng.permutation(p)
            mat = np.triu(mat, 1)[np.ix_(perm, perm)]
        if loops:
            mat[np.diag_indices(p)] = rng.standard_normal(p)
        K = atomic_operator(mat)
        expected = reference_shortest_cycle(K, threshold)
        assert find_nondegenerate_cycle(K, threshold) == expected
        assert shortest_cycle(support_digraph(K, threshold)) == expected
        if acyclic:
            assert expected is None


    @pytest.mark.parametrize("seed", range(60))
    def test_matches_on_mixed_components(self, seed):
        rng = np.random.default_rng(seed)
        K = atomic_operator(mixed_component_digraph(rng, int(rng.integers(2, 48))))
        for threshold in (None, 0.5):
            expected = reference_shortest_cycle(K, threshold)
            assert shortest_cycle(support_digraph(K, threshold)) == expected


def suffix_entries(seed: int, p: int, density: float, back: int, loops: bool) -> np.ndarray:
    """Forward arcs in a random point order, `back` arcs against it (of
    any size, down to the smallest subnormal) and, when `loops`,
    self-loops, which never close a cycle."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(p)
    rank = np.empty(p, dtype=int)
    rank[order] = np.arange(p)
    mat = (rank[:, None] < rank[None, :]) * rng.standard_normal((p, p))
    mat *= rng.random((p, p)) < density
    for _ in range(back if p > 1 else 0):
        i, j = sorted(rng.choice(p, size=2, replace=False), key=lambda v: rank[v])
        mat[j, i] = [1.0, 1e-12, 5e-324][int(rng.integers(0, 3))]
    if loops:
        mat[np.diag_indices(p)] = rng.standard_normal(p)
    return mat.astype(complex)


suffix_draws = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    density=st.floats(min_value=0.0, max_value=0.8),
    back=st.integers(min_value=0, max_value=3),
    loops=st.booleans(),
)


class TestAcyclicSuffix:
    """Both paths of `acyclic_suffix` against `reference_acyclic_suffix`:
    the closure over all points at or below `cycles._CSGRAPH_CUTOFF`
    points, the one over the nontrivial strong components above it."""

    @given(
        p=st.integers(min_value=0, max_value=12),
        # the cutoff as it stands, then each path forced
        cutoff=st.sampled_from([cycles._CSGRAPH_CUTOFF, 0, 10**9]),
        **suffix_draws,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_level_peel(self, seed, p, cutoff, density, back, loops):
        entries = suffix_entries(seed, p, density, back, loops)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_CSGRAPH_CUTOFF", cutoff)
            assert acyclic_suffix(entries) == reference_acyclic_suffix(entries)

    @given(p=st.integers(min_value=13, max_value=80), **suffix_draws)
    @settings(max_examples=100, deadline=None)
    def test_across_the_cutoff(self, seed, p, density, back, loops):
        entries = suffix_entries(seed, p, density, back, loops)
        assert acyclic_suffix(entries) == reference_acyclic_suffix(entries)

    def test_fixed_supports(self):
        assert acyclic_suffix(np.zeros((0, 0))) == 0
        assert acyclic_suffix(np.ones((1, 1))) == 1
        assert acyclic_suffix(np.array([[0, 1], [1, 0]])) == 1
        assert acyclic_suffix(volterra_linear(64).entries) == 64
        # a cycle through points 0 and 2 only: the suffix {1, 2} is acyclic
        assert acyclic_suffix(np.array([[0, 0, 1], [0, 0, 0], [1j, 0, 0]])) == 2

    @pytest.mark.parametrize("pair, expected", [((0, 1), 511), ((510, 511), 1)])
    def test_volterra_512_with_one_two_cycle(self, pair, expected):
        # Volterra's arcs all run from a point to a smaller one, so the one
        # exact 2-cycle is the only cycle, and the suffix stops just above
        # its smaller point
        entries = volterra_linear(512).entries.copy()
        entries[pair, pair[::-1]] = 1.0
        assert acyclic_suffix(entries) == expected


class TestMomentMatrix:
    def test_additive_over_disjoint_sets(self):
        rng = np.random.default_rng(33)
        kfr, _ = random_nilpotent_instance(rng)
        space = kfr.space
        half = space.size // 2
        a = StandardSet.from_indices(space, range(half))
        b = StandardSet.from_indices(space, range(half, space.size))
        ma = moment_matrix(kfr, a)
        mb = moment_matrix(kfr, b)
        mab = moment_matrix(kfr, StandardSet(space, a.mask | b.mask))
        np.testing.assert_allclose(ma + mb, mab, atol=1e-12)

    def test_trace_vanishes_when_diagonal_does(self):
        rng = np.random.default_rng(34)
        kfr, _ = random_nilpotent_instance(rng)
        E = StandardSet.full(kfr.space)
        assert abs(np.trace(moment_matrix(kfr, E))) < 1e-10

    def test_precondition_on_planted_diagonal(self):
        space = build_space(0, [2, 3])
        F = np.array([[1.0], [0.0]], dtype=complex)
        G = np.array([[1.0], [0.0]], dtype=complex)  # kernel[0,0] = 1
        from kerneltri import FiniteRankOperator

        kfr = FiniteRankOperator(space=space, F=F, G=G)
        with pytest.raises(PreconditionError, match="diagonal"):
            moment_matrix(kfr, StandardSet.from_indices(space, [0]))
        # the clean point is still fine
        moment_matrix(kfr, StandardSet.from_indices(space, [1]))

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(35)
        kfr = svd_factors(sharpness_example(2))
        # diagonal of the example is nonzero at points 1 and 3
        E = StandardSet.from_indices(kfr.space, [0, 2, 4])
        m = moment_matrix(kfr, E)
        assert m.shape == (kfr.rank, kfr.rank)
        w = kfr.space.weights
        oracle = sum(np.outer(kfr.G[i], kfr.F[i]) * w[i] for i in (0, 2, 4))
        np.testing.assert_allclose(m, oracle, atol=1e-12)


class TestMomentIdentities:
    def test_nilpotent_instances_pass(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            kfr, blocks = random_nilpotent_instance(rng)
            sets = [StandardSet.from_indices(kfr.space, b) for b in blocks[:2]]
            report = moment_identities(kfr, sets)
            assert report.passed
            assert report.max_residual <= report.tol * report.scale

    def test_nonnilpotent_square_fails(self):
        # rank-one kernel with a genuine 2-cycle: tr(M(E)^2) != 0
        space = build_space(0, [2, 3])
        from kerneltri import FiniteRankOperator

        F = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        G = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # kernel [[0,1],[1,0]]
        kfr = FiniteRankOperator(space=space, F=F, G=G)
        report = moment_identities(kfr, [StandardSet.full(space)])
        assert not report.passed
        assert report.square_residuals[0] == pytest.approx(2.0)

    def test_rejects_overlap(self):
        rng = np.random.default_rng(51)
        kfr, _ = random_nilpotent_instance(rng)
        full = StandardSet.full(kfr.space)
        with pytest.raises(PreconditionError):
            moment_identities(kfr, [full, full])
        # the first and the last set share a point, the middle one neither
        kfr = sharpness_example_factors(2)
        sets = [StandardSet.from_indices(kfr.space, idx) for idx in ([0], [2], [4, 0])]
        with pytest.raises(PreconditionError, match="pairwise disjoint"):
            moment_identities(kfr, sets)

    @pytest.mark.parametrize("seed", range(12))
    def test_residuals_match_moment_matrix_oracle(self, seed):
        # random zero-diagonal kernels, factored, and a random partition of
        # most of their points: tr(M(E) M(F)) from the moment matrices
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 14))
        cells = int(rng.integers(0, p + 1))
        mat = (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))) * (
            rng.random((p, p)) < [0.2, 0.5, 1.0][seed % 3]
        )
        mat[np.diag_indices(p)] = 0.0
        kfr = svd_factors(kernel_operator(build_space(cells, range(2, p - cells + 2)), mat))
        points = rng.permutation(p)[: int(rng.integers(1, p + 1))]
        cuts = np.sort(rng.choice(np.arange(1, points.size + 1), size=2)) if points.size > 1 else []
        sets = [StandardSet.from_indices(kfr.space, part) for part in np.split(points, cuts)]
        report = moment_identities(kfr, sets)
        assert moment_identities(densify(kfr), sets) == report
        moments = [moment_matrix(kfr, s) for s in sets]
        squares = [abs(np.trace(m @ m)) for m in moments]
        crosses = [
            (i, j, abs(np.trace(moments[i] @ moments[j])))
            for i in range(len(sets))
            for j in range(i + 1, len(sets))
        ]
        # summed in another order: equal to rounding in the products of
        # entries of magnitude at most scale
        atol = 1e-12 * report.scale**2
        np.testing.assert_allclose(report.square_residuals, squares, rtol=1e-9, atol=atol)
        assert [(i, j) for i, j, _ in report.cross_residuals] == [(i, j) for i, j, _ in crosses]
        np.testing.assert_allclose(
            [r for _, _, r in report.cross_residuals],
            [r for _, _, r in crosses],
            rtol=1e-9,
            atol=atol,
        )
        assert report.max_residual == max(report.square_residuals + tuple(
            r for _, _, r in report.cross_residuals
        ))

    def test_rejects_planted_diagonal_like_the_oracle(self):
        # the first set whose diagonal does not vanish is named, at its
        # largest entry, in the words of the moment-matrix oracle
        space = build_space(0, [2, 3, 4, 5])
        from kerneltri import FiniteRankOperator

        F = np.array([[1.0], [0.0], [1.0], [2.0]], dtype=complex)
        G = np.array([[0.0], [1.0], [1.0], [1.0]], dtype=complex)  # diagonal 0, 0, 1, 2
        kfr = FiniteRankOperator(space=space, F=F, G=G)
        sets = [StandardSet.from_indices(space, idx) for idx in ([0, 1], [3, 2])]
        with pytest.raises(PreconditionError) as expected:
            moment_matrix(kfr, sets[1])
        assert str(expected.value).startswith("kernel diagonal does not vanish on the set")
        with pytest.raises(PreconditionError) as exc:
            moment_identities(kfr, sets)
        assert str(exc.value) == str(expected.value)
        assert moment_identities(kfr, sets[:1]).passed

    def test_rejects_set_over_another_space(self):
        kfr = sharpness_example_factors(1)
        other = StandardSet.from_indices(build_space(kfr.space.size), [0])
        with pytest.raises(PreconditionError, match="different space"):
            moment_identities(kfr, [other])

    def test_rejects_overflowing_factors_without_warnings(self):
        # finite factors whose product F @ G.T overflows to inf
        from kerneltri import FiniteRankOperator

        space = build_space(0, [2, 3])
        F = np.array([[1e200], [1.0]], dtype=complex)
        G = np.array([[1e200], [0.0]], dtype=complex)
        kfr = FiniteRankOperator(space=space, F=F, G=G)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="non-finite kernel values"):
                moment_identities(kfr, [StandardSet.from_indices(space, [1])])
            with pytest.raises(PreconditionError, match="non-finite kernel values"):
                moment_matrix(kfr, StandardSet.from_indices(space, [1]))
            with pytest.raises(PreconditionError, match="non-finite kernel values"):
                densify(kfr)
