import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_decompositions,
    figure_eight,
    forbid_eigenvalues,
    mixed_component_digraph,
    random_hybrid_instance,
    random_nilpotent_instance,
    reference_certificate,
    reference_chain_invariant,
    reference_increasing_blocks,
    reference_nilpotent_failure,
    reference_nilpotent_structural_failure,
    reference_peel_zero_columns,
    reference_scc_blocks,
)

from kerneltri import (
    FiniteRankOperator,
    PreconditionError,
    TheoremViolationError,
    TriangularizationCertificate,
    assert_nilpotent_compressions,
    build_space,
    canonical_dumps,
    densify,
    eigenatom_peel,
    factor,
    increasing_spectrum_block_form,
    kernel_operator,
    max_kernel_projection,
    nilpotent_block_form,
    ones_kernel,
    scc_triangularize,
    sharpness_example,
    sharpness_example_factors,
    verify_certificate,
    volterra_linear,
)
from kerneltri import cycles
from kerneltri.operators import ZERO_TOL, magnitude
from kerneltri.triangular import BlockDiagnosis, _certificate, _peel_zero_columns

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def atomic_operator(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return kernel_operator(build_space(0, range(2, matrix.shape[0] + 2)), matrix)


def finite_rank(matrix):
    return factor(atomic_operator(matrix))


class TestSccTriangularize:
    def test_already_triangular_gives_singletons(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = 1.0
        mat[2, 2] = 5.0
        cert = scc_triangularize(atomic_operator(mat))
        assert cert.kind == "scc"
        assert all(len(b) == 1 for b in cert.blocks)
        assert cert.num_blocks == 3
        assert cert.residual == 0.0
        assert cert.multiplicity_free

    def test_all_ones_is_one_block(self):
        cert = scc_triangularize(atomic_operator(np.ones((3, 3))))
        assert cert.blocks == ((0, 1, 2),)
        assert cert.diagonal[0].kind == "irreducible"

    def test_topological_order_respects_arcs(self):
        # 2 -> 0 -> 1 forces block order (2,), (0,), (1,)
        mat = np.zeros((3, 3))
        mat[2, 0] = mat[0, 1] = 1.0
        cert = scc_triangularize(atomic_operator(mat))
        assert cert.blocks == ((2,), (0,), (1,))

    def test_tie_break_by_smallest_point(self):
        cert = scc_triangularize(atomic_operator(np.zeros((4, 4))))
        assert cert.blocks == ((0,), (1,), (2,), (3,))

    def test_two_cycle_merges(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 0] = 1.0
        mat[1, 2] = 1.0
        cert = scc_triangularize(atomic_operator(mat))
        assert cert.blocks == ((0, 1), (2,))
        assert not cert.multiplicity_free

    def test_diagnosis_classes(self):
        space = build_space(1, [2])
        kernel = np.zeros((2, 2), dtype=complex)
        kernel[1, 1] = 3.0
        cert = scc_triangularize(kernel_operator(space, kernel))
        kinds = {d.kind for d in cert.diagonal}
        assert kinds == {"zero", "scalar"}
        scalar = next(d for d in cert.diagonal if d.kind == "scalar")
        assert scalar.value == pytest.approx(3.0)

    def test_eigenvalues_preserved_by_reordering(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.4)
        K = atomic_operator(mat)
        cert = scc_triangularize(K)
        perm = [i for b in cert.blocks for i in b]
        reordered = mat[np.ix_(perm, perm)]
        a = np.sort_complex(np.linalg.eigvals(mat))
        b = np.sort_complex(np.linalg.eigvals(reordered))
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_verifier_accepts(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((5, 5)) * (rng.random((5, 5)) < 0.4)
        K = atomic_operator(mat)
        assert verify_certificate(K, scc_triangularize(K)).passed


def scc_kernel(rng: np.random.Generator, p: int) -> np.ndarray:
    """`mixed_component_digraph` (self-loops, several nontrivial
    components, sources tied for the next block) with up to p entries
    set a thousandth above or below the zero threshold, on or off the
    diagonal; each may add, drop or merge a component."""
    mat = mixed_component_digraph(rng, p)
    thr = ZERO_TOL * magnitude(mat)
    # below 1 in modulus, so no entry that sets magnitude(mat) is replaced
    small = np.flatnonzero(np.abs(mat) < 1)
    near = rng.choice(small, size=int(rng.integers(0, min(p, small.size) + 1)), replace=False)
    mat.flat[near] = thr * rng.choice([1 - 1e-3, 1 + 1e-3], size=near.size)
    assert magnitude(mat) * ZERO_TOL == thr
    return mat


class TestSccBlocksAgainstReference:
    """Both paths of `cycles.scc_blocks` against `reference_scc_blocks`:
    the Python one at or below `cycles._CSGRAPH_CUTOFF` points, the csgraph
    one above it."""

    @staticmethod
    def assert_matches(mat):
        K = atomic_operator(mat)
        expected = reference_certificate("scc", K, reference_scc_blocks(K), K.zero_threshold)
        assert scc_triangularize(K).to_dict() == expected.to_dict()

    @given(seeds, st.integers(min_value=1, max_value=12), st.sampled_from([0, 10**9]))
    @settings(max_examples=200, deadline=None)
    def test_forced_path(self, seed, p, cutoff):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_CSGRAPH_CUTOFF", cutoff)
            self.assert_matches(scc_kernel(np.random.default_rng(seed), p))

    @given(seeds, st.integers(min_value=cycles._CSGRAPH_CUTOFF + 1, max_value=96))
    @settings(max_examples=40, deadline=None)
    def test_array_path(self, seed, p):
        self.assert_matches(scc_kernel(np.random.default_rng(seed), p))


class TestMaxKernelProjection:
    def test_sharpness_example_sides(self):
        kfr = sharpness_example_factors(2)
        assert max_kernel_projection(kfr, side="right").indices() == (0,)
        assert max_kernel_projection(kfr, side="left").indices() == (4,)

    def test_zero_kernel_takes_everything(self):
        space = build_space(0, [2, 3])
        kfr = FiniteRankOperator(
            space=space, F=np.zeros((2, 0)) + 0j, G=np.zeros((2, 0)) + 0j
        )
        assert max_kernel_projection(kfr).size == 2

    def test_invalid_side(self):
        with pytest.raises(PreconditionError):
            max_kernel_projection(sharpness_example_factors(1), side="middle")

    def test_zero_columns_read_the_operator_threshold(self):
        kernel = np.array([[5e-11, 0.1], [0.0, 0.0]])
        K = atomic_operator(kernel)
        assert (~K.support.any(axis=0)).tolist() == [True, False]
        K = atomic_operator(kernel * 1e3)
        assert (~K.support.any(axis=0)).tolist() == [False, False]


class TestAssertNilpotentCompressions:
    def test_strictly_triangular_passes(self):
        assert_nilpotent_compressions(atomic_operator(np.triu(np.ones((4, 4)), 1)))

    def test_diagonal_entry_fails(self):
        with pytest.raises(PreconditionError):
            assert_nilpotent_compressions(atomic_operator(np.diag([1.0, 0.0])))

    def test_hidden_cycle_fails(self):
        # zero diagonal but a 2-cycle: compression on {0,1} has radius 1
        with pytest.raises(PreconditionError):
            assert_nilpotent_compressions(atomic_operator([[0, 1], [1, 0]]))

    def test_large_acyclic_space_passes(self):
        assert_nilpotent_compressions(volterra_linear(16))

    def test_acyclic_zero_diagonal_needs_no_eigenvalues(self, monkeypatch):
        # strictly upper triangular in a random order on 16 points: every
        # compression is nilpotent by the support alone
        rng = np.random.default_rng(16)
        perm = rng.permutation(16)
        K = atomic_operator(np.triu(rng.standard_normal((16, 16)), 1)[np.ix_(perm, perm)])
        forbid_eigenvalues(monkeypatch)
        assert_nilpotent_compressions(K)

    # gadgets for each outcome above 12 points: nilpotent, a cycle, a
    # diagonal entry, two 2-cycles through one point, and a 2-cycle whose
    # radius 1e-9 lies in the tolerance band
    GADGETS = {
        "none": [[0.0]],
        "cycle": [[0.0, 1.0], [1e-5, 0.0]],
        "singleton": [[1.0, 1.0], [-1.0, -1.0]],
        "two_cycles": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
        "band": [[0.0, 1e-9], [1e-9, 0.0]],
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("gadget", GADGETS)
    def test_structural_path_matches_reference(self, gadget, seed):
        # 13 to 16 points: the gadget beside a strictly upper triangular
        # block, with no arc between them, in a random order
        rng = np.random.default_rng(seed)
        g = np.array(self.GADGETS[gadget])
        p = int(rng.integers(13, 17))
        mat = np.zeros((p, p))
        mat[: g.shape[0], : g.shape[0]] = g
        rest = p - g.shape[0]
        mat[g.shape[0] :, g.shape[0] :] = np.triu(
            rng.standard_normal((rest, rest)) * (rng.random((rest, rest)) < 0.5), 1
        )
        perm = rng.permutation(p)
        K = atomic_operator(mat[np.ix_(perm, perm)])
        expected = reference_nilpotent_structural_failure(K)
        if gadget == "none":
            assert expected is None
            assert_nilpotent_compressions(K)
            return
        with pytest.raises(PreconditionError) as exc:
            assert_nilpotent_compressions(K)
        if gadget == "band":
            assert expected == "band"
            assert str(exc.value).startswith("the shortest cycle ")
            assert "at or below tol * scale" in str(exc.value)
            assert "tolerance band" in str(exc.value)
            return
        assert str(exc.value) == expected
        named = len(expected.split("[")[1].split(","))
        assert named == (1 if gadget == "singleton" else 2)

    @pytest.mark.parametrize("p", [13, 64])
    def test_diagonal_entry_needs_no_eigenvalues(self, monkeypatch, p):
        # the diagonal 1/p names the singleton of the smallest point
        K = ones_kernel(p)
        expected = reference_nilpotent_structural_failure(K)
        counts = count_decompositions(monkeypatch)
        with pytest.raises(PreconditionError) as exc:
            assert_nilpotent_compressions(K)
        assert str(exc.value) == expected == (
            f"standard compression on points [0] is not nilpotent (radius {1 / p:.3e})"
        )
        assert counts == []

    def test_figure_eight_names_a_cycle(self, monkeypatch):
        # two 10-point cycles through point 0, of products +1 and -1: the
        # full compression is nilpotent (its radius is roundoff, about
        # eps^(1/19)), and the compression to either cycle has radius 1
        k = 10
        K = figure_eight(19)
        expected = reference_nilpotent_structural_failure(K)
        counts = count_decompositions(monkeypatch)
        with pytest.raises(PreconditionError) as exc:
            assert_nilpotent_compressions(K)
        assert str(exc.value) == expected == (
            f"standard compression on points {list(range(k))} is not nilpotent (radius 1.000e+00)"
        )
        assert counts == [(k, 1)]

    @pytest.mark.parametrize("p", [13, 24])
    def test_cyclic_shift_names_its_cycle(self, monkeypatch, p):
        # one p-cycle of unit arcs and a zero diagonal: the compression to
        # all p points has the p-th roots of unity as spectrum, radius 1
        kernel = np.eye(p, k=1)
        kernel[p - 1, 0] = 1.0
        K = atomic_operator(kernel)
        expected = reference_nilpotent_structural_failure(K)
        counts = count_decompositions(monkeypatch)
        with pytest.raises(PreconditionError) as exc:
            assert_nilpotent_compressions(K)
        assert str(exc.value) == expected == (
            f"standard compression on points {list(range(p))} is not nilpotent (radius 1.000e+00)"
        )
        assert counts == [(p, 1)]

    def test_exhaustive_failure_is_decomposed_once(self, monkeypatch):
        # each of the 2^5 - 1 subsets once, the named failure {0} included
        K = ones_kernel(5)
        expected = reference_nilpotent_failure(K)
        counts = count_decompositions(monkeypatch)
        with pytest.raises(PreconditionError) as exc:
            assert_nilpotent_compressions(K)
        assert str(exc.value) == expected
        assert sum(n for _, n in counts) == 2**5 - 1

    def test_error_names_smallest_failing_mask(self):
        # {0, 1} (mask 3) carries a 2-cycle and {2} (mask 4) a diagonal entry;
        # the batched scan meets size 1 first, yet names the smaller mask
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 0] = mat[2, 2] = 1.0
        with pytest.raises(PreconditionError, match=r"points \[0, 1\] is not nilpotent"):
            assert_nilpotent_compressions(atomic_operator(mat))

    @given(seeds, st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_mask_loop(self, seed, p):
        # strictly upper triangular in a random order, with a planted 2-cycle,
        # diagonal entry or near-cutoff entry on most draws
        rng = np.random.default_rng(seed)
        mat = np.triu(rng.standard_normal((p, p)) * (rng.random((p, p)) < 0.6), 1)
        i, j = rng.integers(0, p, size=2)
        mat[j, i] += [0.0, 1.0, 1e-9, 1e-17][int(rng.integers(0, 4))] * rng.standard_normal()
        perm = rng.permutation(p)
        K = atomic_operator(mat[np.ix_(perm, perm)])
        try:
            assert_nilpotent_compressions(K)
            message = None
        except PreconditionError as exc:
            message = str(exc)
        assert message == reference_nilpotent_failure(K)


def peel_outcome(peel, *args):
    """The blocks of a peel, or the points left when it found no zero column."""
    try:
        return peel(*args)
    except TheoremViolationError as exc:
        return exc.details["remaining"]


class TestPeelAgainstReference:
    """The peel on the operator's support strips the same blocks, and fails
    at the same points, as the peel on refactored compressions."""

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_nilpotent_family(self, seed):
        kfr, _ = random_nilpotent_instance(np.random.default_rng(seed))
        K = densify(kfr)
        blocks = _peel_zero_columns(K.support, np.ones(K.size, dtype=bool))
        assert blocks == reference_peel_zero_columns(K)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_hybrid_family_and_its_compressions(self, seed):
        rng = np.random.default_rng(seed)
        K, _ = random_hybrid_instance(rng)
        _, G = eigenatom_peel(K)
        sub = sorted(rng.choice(K.size, size=int(rng.integers(1, K.size + 1)), replace=False))
        G_sub = kernel_operator(K.space.restrict(sub), G.kernel_values[np.ix_(sub, sub)])
        for op in (K, G, G_sub):
            expected = peel_outcome(reference_peel_zero_columns, op)
            outcome = peel_outcome(_peel_zero_columns, op.support, np.ones(op.size, dtype=bool))
            assert outcome == expected

    @given(seeds, st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_paper_family_permuted_and_scaled(self, seed, n):
        rng = np.random.default_rng(seed)
        K = sharpness_example(n)
        perm = rng.permutation(K.size)
        scale = complex(rng.standard_normal(), rng.standard_normal())
        K = atomic_operator(scale * np.asarray(K.kernel_values)[np.ix_(perm, perm)])
        _, G = eigenatom_peel(K)
        blocks = _peel_zero_columns(G.support, np.ones(G.size, dtype=bool))
        assert blocks == reference_peel_zero_columns(G)
        expected = peel_outcome(reference_peel_zero_columns, K)
        alive = np.ones(K.size, dtype=bool)
        assert peel_outcome(_peel_zero_columns, K.support, alive) == expected


def near_threshold_noise(rng, K):
    """K with up to three of its zero kernel entries set to noise of 5e-11
    to 1e-9 relative to max(1, max|k|), around the structural zero."""
    kernel = np.array(K.kernel_values)
    zeros = np.argwhere(kernel == 0)
    picked = zeros[rng.permutation(len(zeros))[: rng.integers(1, 4)]]
    size = 10 ** rng.uniform(np.log10(5e-11), -9, len(picked)) * magnitude(kernel)
    kernel[picked[:, 0], picked[:, 1]] = size * rng.choice((-1.0, 1.0), len(picked))
    return kernel_operator(K.space, kernel)


def increasing_outcome(form, K):
    """The blocks of an increasing-spectrum block form, or the type and
    message of what it raised."""
    try:
        return form(K)
    except (PreconditionError, TheoremViolationError) as exc:
        return type(exc).__name__, str(exc)


class TestIncreasingAgainstReference:
    """The recursion on masks of one support copy builds the blocks, and
    raises the errors, of the index-based recursion on kernel compressions."""

    @given(seeds, st.sampled_from(["hybrid", "paper", "nilpotent"]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_families_with_near_threshold_noise(self, seed, family, noise):
        rng = np.random.default_rng(seed)
        if family == "hybrid":
            K, _ = random_hybrid_instance(rng)
        elif family == "paper":
            K = sharpness_example(int(rng.integers(1, 6)))
            perm = rng.permutation(K.size)
            scale = complex(rng.standard_normal(), rng.standard_normal())
            K = atomic_operator(scale * np.asarray(K.kernel_values)[np.ix_(perm, perm)])
        else:
            K = densify(random_nilpotent_instance(rng)[0])
        if noise:
            K = near_threshold_noise(rng, K)
        expected = increasing_outcome(reference_increasing_blocks, K)
        outcome = increasing_outcome(lambda op: increasing_spectrum_block_form(op).blocks, K)
        assert outcome == expected


class TestNilpotentBlockForm:
    def test_zero_operator_single_block(self):
        kfr = FiniteRankOperator(
            space=build_space(0, [2, 3]),
            F=np.zeros((2, 0)) + 0j,
            G=np.zeros((2, 0)) + 0j,
        )
        cert = nilpotent_block_form(kfr)
        assert cert.num_blocks == 1
        assert cert.rank == 0

    def test_rank_one_disjoint_supports(self):
        # k = f(x) g(y) with f on {1}, g on {0}: the only arc is 1 -> 0,
        # so point 1 must come first (its column is zero)
        mat = np.zeros((2, 2))
        mat[1, 0] = 1.0
        cert = nilpotent_block_form(finite_rank(mat))
        assert cert.rank == 1
        assert cert.blocks == ((1,), (0,))
        assert cert.diagonal[0].kind == "zero"
        assert cert.residual == 0.0

    def test_planted_three_block_chain(self):
        # strictly upper block form with ranks adding to 2
        mat = np.zeros((4, 4))
        mat[0, 2] = mat[1, 2] = 1.0
        mat[2, 3] = 1.0
        cert = nilpotent_block_form(finite_rank(mat))
        assert cert.rank == 2
        assert cert.num_blocks <= 3
        assert cert.residual == 0.0

    def test_random_instances_verify(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            kfr, _ = random_nilpotent_instance(rng)
            cert = nilpotent_block_form(kfr)
            assert cert.num_blocks <= cert.rank + 1
            report = verify_certificate(densify(kfr), cert)
            assert report.passed, report.failures()

    def test_rejects_non_nilpotent_input(self):
        with pytest.raises(PreconditionError):
            nilpotent_block_form(finite_rank(np.diag([1.0, 0.0])))

    def test_superdiagonal_block_within_tol_vanishes(self):
        # the block (1, 2) is above the structural-zero threshold but at most
        # tol * scale, where verify_certificate would call it vanishing
        mat = np.zeros((3, 3))
        mat[0, 1] = 1.0
        mat[1, 2] = 1e-9
        with pytest.raises(TheoremViolationError, match=r"superdiagonal block \(1, 2\) vanishes"):
            nilpotent_block_form(atomic_operator(mat))
        mat[1, 2] = 1e-7
        cert = nilpotent_block_form(atomic_operator(mat))
        assert cert.blocks == ((0,), (1,), (2,))
        assert verify_certificate(atomic_operator(mat), cert).passed

    def test_near_threshold_entries_give_no_certificate_the_verifier_rejects(self):
        # one nonzero entry shrunk to 0.3-3 x 1e-10 x scale, between the
        # structural-zero threshold and the verifier's tol * scale
        emitted = 0
        for seed in range(10000, 10400):
            rng = np.random.default_rng(seed)
            kfr, _ = random_nilpotent_instance(rng)
            kernel = densify(kfr).kernel_values.copy()
            nonzero = np.argwhere(kernel != 0)
            i, j = nonzero[rng.integers(len(nonzero))]
            kernel[i, j] *= rng.uniform(0.3, 3.0) * 1e-10 * magnitude(kernel) / abs(kernel[i, j])
            K = kernel_operator(kfr.space, kernel)
            try:
                cert = nilpotent_block_form(K)
            except TheoremViolationError:
                continue
            emitted += 1
            report = verify_certificate(K, cert)
            assert report.passed, (seed, report.failures())
        assert emitted > 300


class TestEigenatomPeel:
    def test_diagonal_atoms(self):
        K = atomic_operator(np.diag([2.0, 3.0]))
        peeled, G = eigenatom_peel(K)
        assert [(j, z.real) for j, z in peeled] == [(0, 2.0), (1, 3.0)]
        np.testing.assert_array_equal(G.kernel_values, np.zeros((2, 2)))

    def test_cells_do_not_peel(self):
        K = volterra_linear(8)
        peeled, G = eigenatom_peel(K)
        assert peeled == []
        np.testing.assert_array_equal(G.kernel_values, K.kernel_values)

    def test_mismatch_raises_with_details(self):
        # cell block holds eigenvalue 1 that no atom diagonal accounts for
        space = build_space(1, [2])
        kernel = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(TheoremViolationError) as err:
            eigenatom_peel(kernel_operator(space, kernel))
        assert "multiset" in str(err.value)

    def test_peel_order_follows_atom_ids(self):
        space = build_space(0, [9, 2])  # atom ids out of order
        K = kernel_operator(space, np.diag([5.0, 7.0]).astype(complex))
        peeled, _ = eigenatom_peel(K)
        # atom id 2 (point 1) precedes atom id 9 (point 0)
        assert [j for j, _ in peeled] == [1, 0]

    def test_random_hybrid_instances(self):
        rng = np.random.default_rng(88)
        for _ in range(25):
            K, lambdas = random_hybrid_instance(rng)
            peeled, G = eigenatom_peel(K)
            assert {j for j, _ in peeled} == set(lambdas)
            for j, z in peeled:
                assert z == pytest.approx(lambdas[j])
            if lambdas:
                assert np.abs(np.diag(G.kernel_values)[sorted(lambdas)]).max() == 0.0


class TestIncreasingSpectrumBlockForm:
    def test_scalar_atom_plus_nilpotent_cells(self):
        space = build_space(2, [2])
        kernel = np.zeros((3, 3), dtype=complex)
        kernel[0, 1] = 1.0
        kernel[2, 2] = 2.0
        K = kernel_operator(space, kernel)
        cert = increasing_spectrum_block_form(K)
        assert cert.kind == "increasing_spectrum"
        assert cert.num_blocks <= 2 * cert.rank + 1
        scalars = [d for d in cert.diagonal if d.kind == "scalar"]
        assert len(scalars) == 1 and scalars[0].value == pytest.approx(2.0)
        assert verify_certificate(K, cert).passed

    def test_sharpness_example_needs_full_bound(self):
        for n in (1, 2, 3):
            K = sharpness_example(n)
            cert = increasing_spectrum_block_form(K)
            assert cert.rank == n
            assert cert.num_blocks == 2 * n + 1
            assert cert.residual == 0.0
            # diagonal pattern alternates zero / scalar 1
            kinds = [d.kind for d in cert.diagonal]
            assert kinds == ["zero", "scalar"] * n + ["zero"]
            for d in cert.diagonal:
                if d.kind == "scalar":
                    assert d.value == pytest.approx(1.0)
            assert verify_certificate(K, cert).passed

    def test_random_hybrid_instances_verify(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            K, _ = random_hybrid_instance(rng)
            cert = increasing_spectrum_block_form(K)
            assert cert.num_blocks <= 2 * cert.rank + 1
            report = verify_certificate(K, cert)
            assert report.passed, report.failures()

    def test_near_threshold_noise_is_a_structural_zero(self):
        # cell 0 -> atom 1 carries the scale 2; atom 2 is a scalar atom, and
        # (2, 1) holds noise of 0.75 * ZERO_TOL * scale. Against the scale of
        # the {1, 2} compression alone that noise is an arc, and no column
        # of the compression is zero.
        kernel = np.zeros((3, 3), dtype=complex)
        kernel[0, 1], kernel[1, 2], kernel[2, 2], kernel[2, 1] = 2.0, 1.0, 0.5, 1.5e-10
        K = kernel_operator(build_space(1, [2, 3]), kernel)
        _, G = eigenatom_peel(K)
        G_sub = kernel_operator(K.space.restrict([1, 2]), G.kernel_values[1:, 1:])
        assert peel_outcome(reference_peel_zero_columns, G_sub) == (0, 1)
        cert = increasing_spectrum_block_form(K)
        assert cert.blocks == ((0,), (1,), (2,))
        report = verify_certificate(K, cert)
        assert report.passed, report.failures()

    def test_rejects_unpeelable_spectrum(self):
        with pytest.raises(TheoremViolationError):
            increasing_spectrum_block_form(
                kernel_operator(build_space(1), np.array([[1.0 + 0j]]))
            )


class TestVerifyCertificate:
    def test_swapped_blocks_fail_residual(self):
        K = sharpness_example(2)
        cert = increasing_spectrum_block_form(K)
        tampered = TriangularizationCertificate(
            kind=cert.kind,
            blocks=tuple(reversed(cert.blocks)),
            diagonal=cert.diagonal,
            rank=cert.rank,
            bound=cert.bound,
            residual=cert.residual,
            tol=cert.tol,
            multiplicity_free=cert.multiplicity_free,
        )
        report = verify_certificate(K, tampered)
        assert not report.passed
        assert not report.checks["residual"].passed

    def test_non_partition_fails_fast(self):
        K = sharpness_example(1)
        cert = scc_triangularize(K)
        tampered = TriangularizationCertificate(
            kind="scc",
            blocks=cert.blocks[:-1],
            diagonal=cert.diagonal,
            rank=None,
            bound=None,
            residual=0.0,
            tol=cert.tol,
            multiplicity_free=False,
        )
        report = verify_certificate(K, tampered)
        assert not report.checks["partition"].passed
        assert list(report.checks) == ["partition"]

    @pytest.mark.parametrize("kind", ["scc", "nilpotent_rank", "increasing_spectrum"])
    def test_empty_block_fails_partition(self, kind):
        K = sharpness_example(2)
        if kind == "scc":
            cert = scc_triangularize(K)
        elif kind == "nilpotent_rank":
            mat = np.zeros((4, 4))
            mat[0, 3] = 1.0
            K = atomic_operator(mat)
            cert = nilpotent_block_form(factor(K))
        else:
            cert = increasing_spectrum_block_form(K)
        assert verify_certificate(K, cert).passed
        tampered = dataclasses.replace(cert, blocks=cert.blocks[:1] + ((),) + cert.blocks[1:])
        report = verify_certificate(K, tampered)
        assert not report.passed
        assert list(report.checks) == ["partition"]

    @pytest.mark.parametrize("kind", ["scc", "nilpotent_rank", "increasing_spectrum"])
    @pytest.mark.parametrize("entry", [float, bool])
    def test_non_integer_entry_fails_partition(self, kind, entry):
        K = sharpness_example(2)
        if kind == "scc":
            cert = scc_triangularize(K)
        elif kind == "nilpotent_rank":
            mat = np.zeros((4, 4))
            mat[0, 3] = 1.0
            K = atomic_operator(mat)
            cert = nilpotent_block_form(factor(K))
        else:
            cert = increasing_spectrum_block_form(K)
        # the entry naming point 0 or 1 becomes 0.0 / False or 1.0 / True
        blocks = tuple(tuple(entry(i) if i < 2 else i for i in b) for b in cert.blocks)
        report = verify_certificate(K, dataclasses.replace(cert, blocks=blocks))
        assert not report.passed
        assert list(report.checks) == ["partition"]

    def test_single_block_cert_always_triangular(self):
        rng = np.random.default_rng(12)
        K = atomic_operator(rng.standard_normal((4, 4)))
        cert = TriangularizationCertificate(
            kind="scc",
            blocks=(tuple(range(4)),),
            diagonal=(BlockDiagnosis(0, "irreducible"),),
            rank=None,
            bound=None,
            residual=0.0,
            tol=1e-10,
            multiplicity_free=False,
        )
        assert verify_certificate(K, cert).passed

    def test_wrong_block_count_bound(self):
        # claim nilpotent_rank kind on a partition into singletons of a
        # rank-1 operator: 4 blocks > rank+1 = 2
        mat = np.zeros((4, 4))
        mat[0, 3] = 1.0
        K = atomic_operator(mat)
        cert = TriangularizationCertificate(
            kind="nilpotent_rank",
            blocks=((0,), (1,), (2,), (3,)),
            diagonal=(),
            rank=1,
            bound=2,
            residual=0.0,
            tol=1e-8,
            multiplicity_free=True,
        )
        report = verify_certificate(K, cert)
        assert not report.checks["block_count_bound"].passed

    def test_round_trip_through_dict(self):
        K = sharpness_example(2)
        cert = increasing_spectrum_block_form(K)
        again = TriangularizationCertificate.from_dict(cert.to_dict())
        assert again == cert
        assert verify_certificate(K, again).passed


class TestChainInvarianceAgainstReference:
    """An ordered partition, a kernel that is zero below its blocks, and a
    few planted below-block entries of 1e-12 to 1 x scale."""

    @given(
        seeds,
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["scc", "nilpotent_rank", "increasing_spectrum"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_prefix_loop(self, seed, p, planted, kind):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, p + 1))
        pos = np.concatenate([np.arange(m), rng.integers(0, m, p - m)])
        rng.shuffle(pos)
        blocks = tuple(tuple(np.flatnonzero(pos == b).tolist()) for b in range(m))
        scale = 10.0 ** rng.uniform(-3, 3)
        kernel = scale * rng.standard_normal((p, p)) * (rng.random((p, p)) < 0.7)
        below = pos[:, None] > pos[None, :]
        kernel[below] = 0.0
        cells = np.argwhere(below)
        for i, j in cells[rng.integers(len(cells), size=planted)] if cells.size else ():
            kernel[i, j] = scale * 10.0 ** rng.uniform(-12, 0)
        K = atomic_operator(kernel)
        cert = TriangularizationCertificate(kind, blocks, (), None, None, 0.0, 1e-8, False)

        data = verify_certificate(K, cert).to_dict()
        passed, detail = reference_chain_invariant(K, blocks)
        checks = data["checks"]
        assert list(checks)[:3] == ["partition", "residual", "chain_invariant"]
        assert checks["chain_invariant"] == {"passed": passed, "detail": detail}
        # a leak out of some prefix is a below-block entry above tol * scale
        thr = 1e-8 * magnitude(kernel)
        assert passed == (np.abs(kernel[below]).max(initial=0.0) <= thr)
        assert data["passed"] == all(c["passed"] for c in checks.values())


class TestCertificateAgainstReference:
    @staticmethod
    def assert_matches(K, cert):
        expected = reference_certificate(
            cert.kind, K, cert.blocks, cert.tol, rank=cert.rank, bound=cert.bound
        )
        assert cert == expected
        assert canonical_dumps(cert.to_dict()) == canonical_dumps(expected.to_dict())

    @pytest.mark.parametrize("seed", range(30))
    def test_constructed_certificates(self, seed):
        rng = np.random.default_rng(seed)
        kfr, _ = random_nilpotent_instance(rng)
        nil = densify(kfr)
        hybrid, _ = random_hybrid_instance(rng)
        mixed = atomic_operator(mixed_component_digraph(rng, int(rng.integers(2, 30))))
        for K in (nil, hybrid, mixed):
            self.assert_matches(K, scc_triangularize(K))
        self.assert_matches(nil, nilpotent_block_form(nil))
        self.assert_matches(hybrid, increasing_spectrum_block_form(hybrid))

    @pytest.mark.parametrize(
        "K, construct",
        [
            (volterra_linear(1), nilpotent_block_form),
            (volterra_linear(64), nilpotent_block_form),
            (ones_kernel(8), scc_triangularize),
            (sharpness_example(3), increasing_spectrum_block_form),
        ],
        ids=["V1", "V64", "ones8", "paper3"],
    )
    def test_named_operators(self, K, construct):
        self.assert_matches(K, scc_triangularize(K))
        self.assert_matches(K, construct(K))

    @pytest.mark.parametrize("seed", range(30))
    def test_arbitrary_partitions(self, seed):
        """Blocks no constructor would pick: below-block residuals, scalar
        atoms, zero and irreducible blocks side by side."""
        rng = np.random.default_rng(seed)
        K, _ = random_hybrid_instance(rng)
        labels = rng.integers(0, int(rng.integers(1, K.size + 1)), size=K.size)
        blocks = tuple(
            tuple(np.flatnonzero(labels == b).tolist())
            for b in rng.permutation(labels.max() + 1)
            if (labels == b).any()
        )
        self.assert_matches(K, _certificate("scc", K, blocks, K.zero_threshold))
