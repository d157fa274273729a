import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NEAR_DEGENERATE_ATOMS,
    count_decompositions,
    figure_eight,
    forbid_eigenvalues,
    mixed_component_digraph,
    random_hybrid_instance,
    random_nilpotent_instance,
    reference_block_checks,
    reference_certificate,
    reference_chain_invariant,
    reference_increasing_blocks,
    reference_nilpotent_failure,
    reference_nilpotent_structural_failure,
    reference_peel_zero_columns,
    reference_scc_blocks,
    svd_factors,
)

from kerneltri import (
    FiniteRankOperator,
    PreconditionError,
    StandardSet,
    TheoremViolationError,
    TriangularizationCertificate,
    assert_nilpotent_compressions,
    build_space,
    canonical_dumps,
    compress,
    densify,
    increasing_spectrum_block_form,
    kernel_operator,
    max_kernel_projection,
    nilpotent_block_form,
    ones_kernel,
    operator_from_dict,
    scc_triangularize,
    sharpness_example,
    sharpness_example_factors,
    verify_certificate,
    volterra_linear,
)
from kerneltri import cycles
from kerneltri.operators import ZERO_TOL, magnitude, numerical_rank
from kerneltri.triangular import BlockDiagnosis, _certificate, _eigen_atoms, _peel_zero_columns

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def atomic_operator(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return kernel_operator(build_space(0, range(2, matrix.shape[0] + 2)), matrix)


def finite_rank(matrix):
    return svd_factors(atomic_operator(matrix))


def atom_diagonal_cleared(K):
    """K with the kernel diagonal of its eigen-atoms set to zero."""
    atoms = [j for j, _ in _eigen_atoms(K, 1e-8)]
    kernel = K.kernel_values.copy()
    kernel[atoms, atoms] = 0.0
    return kernel_operator(K.space, kernel)


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

    @given(
        seeds,
        st.integers(min_value=1, max_value=cycles._CSGRAPH_CUTOFF),
        st.sampled_from([0, 10**9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_forced_path(self, seed, p, cutoff):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_CSGRAPH_CUTOFF", cutoff)
            self.assert_matches(scc_kernel(np.random.default_rng(seed), p))

    @pytest.mark.parametrize("cutoff", [cycles._CSGRAPH_CUTOFF, 0])
    @pytest.mark.parametrize("loops", [False, True])
    @pytest.mark.parametrize("shape", ["path", "reverse", "cycle"])
    def test_cutoff_sized_supports(self, shape, loops, cutoff):
        """A directed path 0 -> 1 -> ... on _CSGRAPH_CUTOFF points (Tarjan's
        deepest recursion on the Python side), its reverse and the cycle
        that closes it, with and without self-loops on the odd points."""
        p = cycles._CSGRAPH_CUTOFF
        mat = np.eye(p, k=1)
        if shape == "reverse":
            mat = mat.T.copy()
        if shape == "cycle":
            mat[p - 1, 0] = 1.0
        if loops:
            np.fill_diagonal(mat, np.arange(p) % 2 * 2.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cycles, "_CSGRAPH_CUTOFF", cutoff)
            self.assert_matches(mat)
            blocks = scc_triangularize(atomic_operator(mat)).blocks
        expected = {
            "path": tuple((i,) for i in range(p)),
            "reverse": tuple((i,) for i in reversed(range(p))),
            "cycle": (tuple(range(p)),),
        }
        assert blocks == expected[shape]

    @given(seeds, st.integers(min_value=cycles._CSGRAPH_CUTOFF + 1, max_value=96))
    @settings(max_examples=40, deadline=None)
    def test_array_path(self, seed, p):
        self.assert_matches(scc_kernel(np.random.default_rng(seed), p))


class TestMaxKernelProjection:
    def test_sharpness_example_sides(self):
        kfr = sharpness_example_factors(2)
        for op in (kfr, densify(kfr)):
            assert max_kernel_projection(op, side="right").indices() == (0,)
            assert max_kernel_projection(op, side="left").indices() == (4,)

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

    def test_exhaustive_failure_on_the_diagonal_needs_no_eigenvalues(self, monkeypatch):
        # the five singletons are acyclic, so their radii are their
        # diagonal entries, and {0} (bitmask 1) fails there: no larger
        # subset has a smaller bitmask, so none is decomposed
        K = ones_kernel(5)
        expected = reference_nilpotent_failure(K)
        counts = count_decompositions(monkeypatch)
        with pytest.raises(PreconditionError) as exc:
            assert_nilpotent_compressions(K)
        assert str(exc.value) == expected
        assert counts == []

    def test_passing_scan_decomposes_each_cyclic_subset_once(self, monkeypatch):
        # strictly upper triangular plus a 1e-30 arc from point 1 back to
        # point 0: the exact support has a 2-cycle, so the scan runs, and
        # every compression has radius at most 1e-15; one call per size
        # over the subsets that hold both points, the only cyclic ones
        p = 6
        mat = np.triu(np.ones((p, p)), 1)
        mat[1, 0] = 1e-30
        K = atomic_operator(mat)
        assert reference_nilpotent_failure(K) is None
        counts = count_decompositions(monkeypatch)
        assert_nilpotent_compressions(K)
        assert counts == [(s, math.comb(p - 2, s - 2)) for s in range(2, p + 1)]
        assert sum(n for _, n in counts) == 2 ** (p - 2)

    def test_error_names_smallest_failing_mask(self):
        # {0, 1} (mask 3) carries a 2-cycle and {2} (mask 4) a diagonal entry;
        # the batched scan meets size 1 first, yet names the smaller mask
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 0] = mat[2, 2] = 1.0
        with pytest.raises(PreconditionError, match=r"points \[0, 1\] is not nilpotent"):
            assert_nilpotent_compressions(atomic_operator(mat))

    @given(seeds, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_mask_loop(self, seed, p):
        # strictly upper triangular in a random order on cells and atoms,
        # with a planted 2-cycle, diagonal entry or near-cutoff entry on most
        # draws
        rng = np.random.default_rng(seed)
        mat = np.triu(rng.standard_normal((p, p)) * (rng.random((p, p)) < 0.6), 1)
        i, j = rng.integers(0, p, size=2)
        mat[j, i] += [0.0, 1.0, 1e-9, 1e-17, 1e-30][int(rng.integers(0, 5))] * rng.standard_normal()
        perm = rng.permutation(p)
        cells = int(rng.integers(0, p + 1))
        space = build_space(cells, range(2, p - cells + 2))
        K = kernel_operator(space, mat[np.ix_(perm, perm)].astype(complex))
        try:
            assert_nilpotent_compressions(K)
            message = None
        except PreconditionError as exc:
            message = str(exc)
        assert message == reference_nilpotent_failure(K)


def peel_support(op):
    """`_peel_zero_columns` of all the points of op's support digraph."""
    return _peel_zero_columns(cycles.support_digraph(op), np.ones(op.size, dtype=bool))


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
        blocks = peel_support(K)
        assert blocks == reference_peel_zero_columns(K)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_hybrid_family_and_its_compressions(self, seed):
        rng = np.random.default_rng(seed)
        K, _ = random_hybrid_instance(rng)
        G = atom_diagonal_cleared(K)
        sub = sorted(rng.choice(K.size, size=int(rng.integers(1, K.size + 1)), replace=False))
        G_sub = kernel_operator(K.space.restrict(sub), G.kernel_values[np.ix_(sub, sub)])
        for op in (K, G, G_sub):
            expected = peel_outcome(reference_peel_zero_columns, op)
            outcome = peel_outcome(peel_support, op)
            assert outcome == expected

    @given(seeds, st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_paper_family_permuted_and_scaled(self, seed, n):
        rng = np.random.default_rng(seed)
        K = sharpness_example(n)
        perm = rng.permutation(K.size)
        scale = complex(rng.standard_normal(), rng.standard_normal())
        K = atomic_operator(scale * np.asarray(K.kernel_values)[np.ix_(perm, perm)])
        G = atom_diagonal_cleared(K)
        blocks = peel_support(G)
        assert blocks == reference_peel_zero_columns(G)
        expected = peel_outcome(reference_peel_zero_columns, K)
        assert peel_outcome(peel_support, K) == expected


class TestPeelPrefixStages:
    """The union of the first s stages of a peel is closed under
    predecessors among the live points, so peeling it returns exactly
    those s stages: the increasing-spectrum form reuses them as the left
    flank's peel."""

    @given(seeds, st.integers(min_value=1, max_value=90))
    @settings(max_examples=80, deadline=None)
    def test_prefix_union_peels_to_the_prefix(self, seed, p):
        rng = np.random.default_rng(seed)
        # forward arcs in a random point order, plus a few back arcs (cycles)
        # and self-loops, and a random set of live points
        rank = rng.permutation(p)
        density = 10 ** rng.uniform(-2, -0.3)
        support = (rank[:, None] < rank[None, :]) & (rng.random((p, p)) < density)
        back = rng.integers(0, p, size=(rng.integers(0, 4), 2))
        support[back[:, 0], back[:, 1]] = True
        loops = rng.integers(0, p, size=rng.integers(0, 3))
        support[loops, loops] = True
        alive = rng.random(p) < rng.uniform(0.3, 1.0)
        dg = cycles.SupportDigraph(0.0, support)
        try:
            stages = _peel_zero_columns(dg, alive)
        except TheoremViolationError as exc:
            # the points stripped before the failure are closed too
            stuck = list(exc.details["remaining"])
            assert stuck and alive[stuck].all()
            alive[stuck] = False
            stages = _peel_zero_columns(dg, alive)
        assert sorted(i for stage in stages for i in stage) == np.flatnonzero(alive).tolist()
        for s in range(len(stages) + 1):
            prefix = np.zeros(p, dtype=bool)
            prefix[[i for stage in stages[:s] for i in stage]] = True
            assert _peel_zero_columns(dg, prefix) == stages[:s]


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
            assert nilpotent_block_form(densify(kfr)) == cert
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

    def test_empty_space_has_no_blocks(self):
        K = sharpness_example(1)
        cert = nilpotent_block_form(compress(K, StandardSet(K.space, 0)))
        assert (cert.blocks, cert.num_blocks, cert.rank) == ((), 0, 0)

    def test_first_vanishing_superdiagonal_block_is_named(self):
        # a path 0 -> 1 -> 2 -> 3 -> 4 whose arcs into 2 and into 4 lie
        # within tol * scale: both of their blocks vanish, the first is named
        mat = np.eye(5, k=1)
        mat[1, 2] = mat[3, 4] = 1e-9
        with pytest.raises(TheoremViolationError, match=r"superdiagonal block \(1, 2\) vanishes"):
            nilpotent_block_form(atomic_operator(mat))

    def test_superdiagonal_blocks_match_a_loop_over_block_pairs(self):
        # one superdiagonal block pair of a random nilpotent instance shrunk
        # to a largest |k| of 1.5-200 x 1e-10 x scale, about half of them at
        # most tol * scale: the block form raises for exactly the first pair
        # (j, j + 1) whose largest |k| is at most tol * scale, by a loop
        # over the pairs
        named = passed = 0
        for seed in range(10000, 10100):
            rng = np.random.default_rng(seed)
            kfr, _ = random_nilpotent_instance(rng)
            kernel = densify(kfr).kernel_values.copy()
            blocks = nilpotent_block_form(kfr).blocks
            if len(blocks) < 2:
                continue
            j = int(rng.integers(len(blocks) - 1))
            pair = np.ix_(blocks[j], blocks[j + 1])
            target = rng.uniform(1.5, 200.0) * 1e-10 * magnitude(kernel)
            kernel[pair] *= target / np.abs(kernel[pair]).max()
            K = kernel_operator(kfr.space, kernel)
            blocks = _peel_zero_columns(cycles.support_digraph(K), np.ones(K.size, dtype=bool))
            if len(blocks) > numerical_rank(K) + 1:
                continue  # the block count is refused first
            thr = 1e-8 * magnitude(kernel)
            weak = [
                j
                for j in range(len(blocks) - 1)
                if np.abs(kernel[np.ix_(blocks[j], blocks[j + 1])]).max() <= thr
            ]
            if weak:
                named += 1
                match = rf"superdiagonal block \({weak[0]}, {weak[0] + 1}\) vanishes"
                with pytest.raises(TheoremViolationError, match=match):
                    nilpotent_block_form(K)
            else:
                passed += 1
                assert nilpotent_block_form(K).blocks == blocks
        assert named > 20 and passed > 20, (named, passed)

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


class TestEigenAtoms:
    def test_diagonal_atoms(self):
        K = atomic_operator(np.diag([2.0, 3.0]))
        peeled = _eigen_atoms(K, 1e-8)
        assert [(j, z.real) for j, z in peeled] == [(0, 2.0), (1, 3.0)]

    def test_cells_do_not_peel(self):
        assert _eigen_atoms(volterra_linear(8), 1e-8) == []

    def test_mismatch_raises_with_details(self):
        # cell block holds eigenvalue 1 that no atom diagonal accounts for
        space = build_space(1, [2])
        kernel = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(TheoremViolationError) as err:
            _eigen_atoms(kernel_operator(space, kernel), 1e-8)
        assert "multiset" in str(err.value)

    def test_peel_order_follows_atom_ids(self):
        space = build_space(0, [9, 2])  # atom ids out of order
        K = kernel_operator(space, np.diag([5.0, 7.0]).astype(complex))
        peeled = _eigen_atoms(K, 1e-8)
        # atom id 2 (point 1) precedes atom id 9 (point 0)
        assert [j for j, _ in peeled] == [1, 0]

    def test_random_hybrid_instances(self):
        rng = np.random.default_rng(88)
        for _ in range(25):
            K, lambdas = random_hybrid_instance(rng)
            peeled = _eigen_atoms(K, 1e-8)
            assert {j for j, _ in peeled} == set(lambdas)
            for j, z in peeled:
                assert z == pytest.approx(lambdas[j])


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
        G = atom_diagonal_cleared(K)
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

    def test_scc_block_that_is_not_strongly_connected_fails(self):
        # paper_example_1's three blocks merged into one, with every recorded
        # field made to agree: only the strong connectivity is wrong
        K = operator_from_dict({"kind": "named", "name": "paper_example_1"})
        cert = scc_triangularize(K)
        assert cert.blocks == ((0,), (1,), (2,))
        forged = dataclasses.replace(
            cert,
            blocks=((0, 1, 2),),
            diagonal=(BlockDiagnosis(0, "irreducible"),),
            num_blocks=1,
            multiplicity_free=False,
        )
        report = verify_certificate(K, forged)
        assert not report.passed
        assert report.failures() == ["strong_components: blocks [0] are not strongly connected"]

    @given(seeds, st.integers(min_value=2, max_value=24))
    @settings(max_examples=100, deadline=None)
    def test_scc_blocks_are_strong_components(self, seed, p):
        # every emitted scc certificate passes the check, and merging two
        # neighbouring blocks leaves one block that is not strongly connected
        rng = np.random.default_rng(seed)
        K = atomic_operator(mixed_component_digraph(rng, p))
        cert = scc_triangularize(K)
        assert verify_certificate(K, cert).checks["strong_components"].passed
        blocks = list(cert.blocks)
        if len(blocks) > 1:
            b = int(rng.integers(len(blocks) - 1))
            merged = blocks[:b] + [blocks[b] + blocks[b + 1]] + blocks[b + 2 :]
            check = verify_certificate(K, dataclasses.replace(cert, blocks=tuple(merged)))
            assert check.checks["strong_components"].detail == (
                f"blocks [{b}] are not strongly connected"
            )
        big = [block for block in blocks if len(block) > 2]
        if big:
            # a component split into its first point and the rest always
            # fails: the rest has an arc back to the first point. The rest is
            # also named exactly when the reference finds its support more
            # than one component
            rest = big[0][1:]
            b = blocks.index(big[0])
            split = blocks[:b] + [big[0][:1], rest] + blocks[b + 1 :]
            check = verify_certificate(K, dataclasses.replace(cert, blocks=tuple(split)))
            sub = atomic_operator(K.support[np.ix_(rest, rest)].astype(float))
            detail = check.checks["strong_components"].detail
            assert detail.startswith(f"blocks [{b + 1}] are not strongly connected; ") == (
                len(reference_scc_blocks(sub)) > 1
            )
            assert "an arc leads back to an earlier block: " in detail

    def test_split_strong_component_fails(self):
        # the one strong component of [[0, 1], [1e-9, 0]] split into two
        # singletons, with every recorded field made to agree: the arc back
        # lies below tol * scale, so only the strong components are wrong
        K = atomic_operator([[0, 1], [1e-9, 0]])
        assert scc_triangularize(K).blocks == ((0, 1),)
        forged = TriangularizationCertificate(
            kind="scc",
            blocks=((0,), (1,)),
            diagonal=(BlockDiagnosis(0, "zero"), BlockDiagnosis(1, "zero")),
            rank=None,
            bound=None,
            residual=1e-9,
            tol=K.zero_threshold,
            multiplicity_free=True,
        )
        assert verify_certificate(K, forged).failures() == [
            "strong_components: an arc leads back to an earlier block: 1.000e-09 > 1.000e-10"
        ]

    @given(seeds, st.integers(min_value=2, max_value=16))
    @settings(max_examples=150, deadline=None)
    def test_consistent_split_forgeries_fail(self, seed, p):
        # a strong component of 2 or more points cut into two blocks, its
        # arcs back from the second to the first shrunk to 1.5-95 x
        # ZERO_TOL x scale (inside the residual's tol * scale), and bound.m,
        # the classes, multiplicity_free and the residual recomputed: the
        # strong components fail, naming a part only when the reference
        # finds it is not strongly connected, and every other check passes
        rng = np.random.default_rng(seed)
        mat = mixed_component_digraph(rng, p)
        blocks = list(scc_triangularize(atomic_operator(mat)).blocks)
        big = [b for b, block in enumerate(blocks) if len(block) > 1]
        if not big:
            return
        b = big[int(rng.integers(len(big)))]
        points = rng.permutation(blocks[b])
        cut = int(rng.integers(1, len(points)))
        first, second = sorted(points[:cut].tolist()), sorted(points[cut:].tolist())
        back = np.ix_(second, first)
        arcs = mat[back] != 0
        mat[back] = 0.0
        zero = ZERO_TOL * magnitude(mat)
        mat[back] = arcs * rng.uniform(1.5, 95.0, arcs.shape) * zero
        K = atomic_operator(mat)
        assert scc_triangularize(K).blocks == tuple(blocks)
        blocks[b : b + 1] = [tuple(first), tuple(second)]
        forged = reference_certificate("scc", K, tuple(blocks), K.zero_threshold)

        loose = [
            b + k
            for k, part in enumerate((first, second))
            if len(reference_scc_blocks(atomic_operator(K.support[np.ix_(part, part)]))) > 1
        ]
        wrong = [f"blocks {loose} are not strongly connected"] if loose else []
        wrong.append(f"an arc leads back to an earlier block: {forged.residual:.3e} > {zero:.3e}")
        assert verify_certificate(K, forged).failures() == [
            "strong_components: " + "; ".join(wrong)
        ]

    @pytest.mark.parametrize("kind", ["scc", "nilpotent_rank", "increasing_spectrum"])
    def test_empty_block_fails_partition(self, kind):
        K = sharpness_example(2)
        if kind == "scc":
            cert = scc_triangularize(K)
        elif kind == "nilpotent_rank":
            mat = np.zeros((4, 4))
            mat[0, 3] = 1.0
            K = atomic_operator(mat)
            cert = nilpotent_block_form(svd_factors(K))
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
            cert = nilpotent_block_form(svd_factors(K))
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

    def test_near_degenerate_scalars_of_a_constructed_certificate_verify(self):
        # scalars 1 + (1.14, 0.78, -0.20, 0.16)e-8 in block order, spectrum
        # 1 + (1.53, -0.58, 0.78, 0.16)e-8, thr = 1e-8. Taking the nearest
        # eigenvalue left for each scalar in turn pairs 1.14 with 0.78 and
        # 0.78 with 0.16, and leaves 0.16 with 1.53, 1.37e-8 away; pairing
        # 1.14 with 1.53 and the rest with their equals keeps all within thr
        K = atomic_operator(NEAR_DEGENERATE_ATOMS)
        report = verify_certificate(K, increasing_spectrum_block_form(K))
        assert report.passed, report.failures()

    def test_scalar_detail_is_canonical_json(self):
        # the certificate of [[1, 20], [0, 2]] against that kernel with
        # thr / 2 = 1e-7 below its diagonal, which moves each eigenvalue
        # 20 * 1e-7 = 10 * thr off its scalar; both lists print as [re, im]
        # pairs, the same bytes under NumPy 1 and 2
        cert = increasing_spectrum_block_form(atomic_operator([[1.0, 20.0], [0.0, 2.0]]))
        K = atomic_operator([[1.0, 20.0], [1e-7, 2.0]])
        report = verify_certificate(K, cert)
        eigs = canonical_dumps([complex(z) for z in np.linalg.eigvals(K.entries)]).rstrip()
        detail = f"scalars [[1.0,0.0],[2.0,0.0]] do not match nonzero spectrum {eigs}"
        assert report.failures() == [f"scalar_eigenvalues: {detail}"]
        assert "np." not in detail

    def test_round_trip_through_dict(self):
        K = sharpness_example(2)
        cert = increasing_spectrum_block_form(K)
        again = TriangularizationCertificate.from_dict(cert.to_dict())
        assert again == cert
        assert verify_certificate(K, again).passed

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda c: c.pop("tol"), "tol"),
            (lambda c: c.pop("blocks"), "blocks"),
            (lambda c: c["bound"].pop("rank"), "rank"),
            (lambda c: c["diagonal"][0].pop("class"), "class"),
        ],
        ids=["tol", "blocks", "bound-rank", "diagonal-class"],
    )
    def test_missing_field_is_named(self, edit, field):
        data = increasing_spectrum_block_form(sharpness_example(2)).to_dict()
        edit(data)
        with pytest.raises(PreconditionError) as exc:
            TriangularizationCertificate.from_dict(data)
        assert str(exc.value) == f"missing field in certificate: '{field}'"


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


class TestBlockChecksAgainstReference:
    """Random kernels of 0-10 points over cells and atoms, with entries
    near tol * scale, and random partitions of them into 1..p blocks (none
    for 0 points), some of them broken by a dropped or repeated point.
    The `degenerate` shape takes singleton blocks in a random order, atom
    diagonals within about tol * scale of each other and below-block noise
    up to 1e-9 x scale, which can split them by far more than that."""

    @given(
        seeds,
        st.integers(min_value=0, max_value=10),
        st.sampled_from(["nilpotent_rank", "increasing_spectrum"]),
        st.sampled_from(["partition", "dropped", "repeated", "degenerate"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_match_a_loop_over_blocks_and_block_pairs(self, seed, p, kind, shape):
        rng = np.random.default_rng(seed)
        if p == 0:
            example = sharpness_example(1)
            K = compress(example, StandardSet(example.space, 0))
        else:
            cells = int(rng.integers(0, p + 1))
            scale = 10.0 ** rng.uniform(-3, 3)
            kernel = scale * rng.standard_normal((p, p)) * (rng.random((p, p)) < 0.5)
            near = rng.random((p, p)) < 0.3  # about 1e-8 x scale, on either side
            kernel[near] = rng.uniform(0.3, 3.0, near.sum()) * 1e-8 * max(1.0, scale)
        m = int(rng.integers(1, p + 1)) if p else 0
        pos = np.concatenate([np.arange(m), rng.integers(0, m, p - m)]).astype(int)
        rng.shuffle(pos)
        if shape == "degenerate" and p:
            m, pos = p, rng.permutation(p)
            below = pos[:, None] > pos[None, :]
            kernel[below] = scale * 10.0 ** rng.uniform(-18, -9, below.sum())
            np.fill_diagonal(kernel, 0.0)
            atoms = np.arange(cells, p)
            kernel[atoms, atoms] = scale + 1e-8 * magnitude(kernel) * rng.uniform(-1, 1, atoms.size)
        if p:
            K = kernel_operator(build_space(cells, range(2, p - cells + 2)), kernel)
        blocks = [list(np.flatnonzero(pos == b)) for b in range(m)]
        if shape in ("dropped", "repeated") and p:
            b = int(rng.integers(m))
            blocks[b] = blocks[b][1:] if shape == "dropped" else blocks[b] + blocks[b][:1]
        blocks = tuple(tuple(int(i) for i in block) for block in blocks)
        cert = TriangularizationCertificate(kind, blocks, (), None, None, 0.0, 1e-8, False)

        checks = verify_certificate(K, cert).to_dict()["checks"]
        if shape in ("dropped", "repeated") and p:
            assert list(checks) == ["partition"]
            return
        expected = reference_block_checks(K, kind, blocks)
        assert {name: checks[name] for name in expected} == expected


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
