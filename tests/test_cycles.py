import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mixed_component_digraph,
    random_nilpotent_instance,
    reference_shortest_cycle,
)

from kerneltri import (
    PreconditionError,
    StandardSet,
    build_space,
    compress,
    cycle_product,
    densify,
    factor,
    find_nondegenerate_cycle,
    kernel_operator,
    moment_identities,
    moment_matrix,
    ncycle_trace_sum,
    sharpness_example,
    sharpness_example_factors,
    shortest_cycle,
    support_digraph,
    trace_power,
    volterra_linear,
)


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
        assert dg.has_arc(0, 1)
        assert not dg.has_arc(1, 0)

    def test_threshold_cuts_small_entries(self):
        K = atomic_operator([[0.0, 1e-4], [2.0, 0.0]])
        dg = support_digraph(K, threshold=1e-3)
        assert dg.successors == ((), (0,))

    def test_volterra_is_strictly_lower(self):
        dg = support_digraph(volterra_linear(8))
        for i, succ in enumerate(dg.successors):
            assert all(j < i for j in succ)


class TestCycleProduct:
    def test_two_cycle(self):
        K = atomic_operator([[0.0, 2.0], [3.0, 0.0]])
        assert cycle_product(K, [0, 1]) == pytest.approx(6.0)

    def test_three_cycle_with_signs(self):
        K = atomic_operator([[0, -1, 0], [0, 0, 2], [5, 0, 0]])
        assert cycle_product(K, [0, 1, 2]) == pytest.approx(-10.0)

    def test_rejects_degenerate(self):
        K = atomic_operator(np.eye(2))
        with pytest.raises(PreconditionError):
            cycle_product(K, [0])
        with pytest.raises(PreconditionError):
            cycle_product(K, [0, 1, 0])


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

    def test_found_cycle_has_nonzero_product(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mat = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.3)
            K = atomic_operator(mat)
            cyc = find_nondegenerate_cycle(K)
            if cyc is not None:
                assert abs(cycle_product(K, list(cyc))) > 0


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


class TestNcycleTraceSum:
    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(14)
        space = build_space(3, [2, 4, 9])
        kernel = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        K = kernel_operator(space, kernel)
        sets = [
            StandardSet.from_indices(space, [0, 3]),
            StandardSet.from_indices(space, [1, 4]),
            StandardSet.from_indices(space, [5]),
        ]
        dec = ncycle_trace_sum(K, sets)
        idx = [0, 1, 3, 4, 5]
        sub = K.entries[np.ix_(idx, idx)]
        oracle = np.trace(np.linalg.matrix_power(sub, 3))
        assert dec.total == pytest.approx(oracle, abs=1e-10)
        assert dec.residual < 1e-10
        assert dec.total == pytest.approx(dec.atom_part + dec.remainder)

    def test_atom_part_on_diagonal_atoms(self):
        space = build_space(0, [2, 3])
        K = kernel_operator(space, np.diag([2.0, 3.0]).astype(complex))
        sets = [
            StandardSet.from_indices(space, [0]),
            StandardSet.from_indices(space, [1]),
        ]
        dec = ncycle_trace_sum(K, sets)
        assert dec.atom_part == pytest.approx(2.0**2 + 3.0**2)
        assert dec.remainder == pytest.approx(0.0, abs=1e-12)

    def test_nilpotent_instance_vanishes(self):
        rng = np.random.default_rng(40)
        kfr, blocks = random_nilpotent_instance(rng)
        K = densify(kfr)
        sets = [StandardSet.from_indices(K.space, b) for b in blocks[:3]]
        dec = ncycle_trace_sum(K, sets)
        assert abs(dec.total) < 1e-8 * K.scale**3
        assert dec.residual < 1e-8 * K.scale**3

    def test_rejects_overlapping_sets(self):
        K = sharpness_example(2)
        a = StandardSet.from_indices(K.space, [0, 1])
        b = StandardSet.from_indices(K.space, [1, 2])
        with pytest.raises(PreconditionError):
            ncycle_trace_sum(K, [a, b])

    def test_rejects_bad_length(self):
        K = sharpness_example(2)
        a = StandardSet.from_indices(K.space, [0])
        with pytest.raises(PreconditionError):
            ncycle_trace_sum(K, [a])


class TestMomentMatrix:
    def test_additive_over_disjoint_sets(self):
        rng = np.random.default_rng(33)
        kfr, _ = random_nilpotent_instance(rng)
        space = kfr.space
        half = space.size // 2
        a = StandardSet.from_indices(space, range(half))
        b = StandardSet.from_indices(space, range(half, space.size))
        ma = moment_matrix(kfr, a).values
        mb = moment_matrix(kfr, b).values
        mab = moment_matrix(kfr, a.union(b)).values
        np.testing.assert_allclose(ma + mb, mab, atol=1e-12)

    def test_trace_vanishes_when_diagonal_does(self):
        rng = np.random.default_rng(34)
        kfr, _ = random_nilpotent_instance(rng)
        E = StandardSet.full(kfr.space)
        assert abs(moment_matrix(kfr, E).trace()) < 1e-10

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
        kfr = factor(densify(sharpness_example_factors(2)))
        # diagonal of the example is nonzero at points 1 and 3
        E = StandardSet.from_indices(kfr.space, [0, 2, 4])
        m = moment_matrix(kfr, E).values
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
