import itertools
import math

import numpy as np
from numpy.linalg import _umath_linalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forbid_eigenvalues, inclusion_witness

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
from kerneltri.spectral import (
    _sorted_eigs,
    dense_eigvals,
    first_excluded,
    match_multisets,
    nearest_distance,
)


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
        empty = compress(K, StandardSet(K.space, 0))
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


def permuted_triangular(rng, p: int, scale: float):
    """A hybrid-space operator, triangular in a random point order, with
    complex off-diagonal entries and a diagonal drawn with repeats from a
    few values, 0 among them, all times `scale`: an acyclic support."""
    cells = int(rng.integers(0, p + 1))
    off = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    mat = np.triu(off * (rng.random((p, p)) < 0.5), 1)
    mat += np.diag(rng.choice([0.0, 1.5, -1.5, -2.0 + 1.0j, 1.0j], size=p))
    perm = rng.permutation(p)
    space = build_space(cells, range(2, p - cells + 2))
    return kernel_operator(space, mat[np.ix_(perm, perm)] * scale)


def bits(values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


class TestDiagonalSpectrum:
    """On an acyclic exact support `eigenvalues` reads the diagonal."""

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(-100, 100)
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_lapack(self, seed, p, exponent):
        # within LAPACK's unscaled range its balancing isolates every
        # diagonal entry of a permuted triangular matrix, so it returns
        # the diagonal too: the same bytes, ties and repeats included
        K = permuted_triangular(np.random.default_rng(seed), p, 10.0**exponent)
        rep = eigenvalues(K)
        lapack = np.linalg.eigvals(K.entries)
        assert bits(rep.eigenvalues) == bits(_sorted_eigs(lapack))
        assert rep.radius == float(np.abs(lapack).max())

    def test_needs_no_eigen_decomposition(self, monkeypatch):
        K = permuted_triangular(np.random.default_rng(3), 40, 1.0)
        want = _sorted_eigs(np.linalg.eigvals(K.entries))
        forbid_eigenvalues(monkeypatch)
        assert bits(eigenvalues(K).eigenvalues) == bits(want)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-150, 1e200])
    def test_extreme_scales_give_the_exact_diagonal(self, scale):
        # beyond about [6.7e-139, 1.5e138] for the largest entry, zgeev
        # rescales the matrix and its values can differ from the diagonal
        # in the last digit; the report holds the diagonal itself
        K = permuted_triangular(np.random.default_rng(11), 12, scale)
        rep = eigenvalues(K)
        assert bits(rep.eigenvalues) == bits(_sorted_eigs(np.diagonal(K.entries)))
        assert rep.radius == float(np.abs(np.diagonal(K.entries)).max())

    @pytest.mark.parametrize("diagonal", [(-0.0, 0.0), (0.0, -0.0)])
    @pytest.mark.parametrize("arc", [(0, 1), (1, 0)])
    def test_signed_zeros_keep_the_diagonal_order(self, diagonal, arc):
        # the sort is stable and 0.0 ties -0.0, so the zeros come out in
        # the order of the diagonal; LAPACK isolates the rows of a lower
        # triangular matrix bottom up and returns them the other way round
        kernel = np.diag(diagonal).astype(complex)
        kernel[arc] = 1.0
        rep = eigenvalues(atomic_operator(kernel))
        signs = [math.copysign(1.0, z.real) for z in rep.eigenvalues]
        assert signs == [math.copysign(1.0, d) for d in diagonal]

    def test_cycle_is_eigen_decomposed(self):
        # one arc against the order closes a cycle: LAPACK decides
        K = atomic_operator([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [0.5, 0.0, 1.0]])
        rep = eigenvalues(K)
        assert bits(rep.eigenvalues) == bits(_sorted_eigs(np.linalg.eigvals(K.entries)))
        assert rep.radius > 1.0 + 1e-3


def jordan_blocks(rng, n: int) -> np.ndarray:
    """Defective: Jordan blocks of random sizes summing to n, each one
    value with ones on its superdiagonal, in a random point order."""
    mat = np.zeros((n, n), dtype=complex)
    start = 0
    while start < n:
        size = int(rng.integers(1, n - start + 1))
        block = slice(start, start + size)
        mat[block, block] = complex(*rng.standard_normal(2)) * np.eye(size) + np.eye(size, k=1)
        start += size
    perm = rng.permutation(n)
    return mat[np.ix_(perm, perm)]


class TestDenseEigvals:
    """`dense_eigvals` calls the LAPACK gufunc behind np.linalg.eigvals
    directly; a NumPy release that changes that private gufunc fails here."""

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("shape", ["dense", "permuted-triangular", "jordan"])
    def test_bitwise_equal_to_np_linalg_eigvals(self, n, shape):
        rng = np.random.default_rng(n)
        if shape == "jordan":
            stack = np.array([jordan_blocks(rng, n) for _ in range(8)])
        else:
            stack = rng.standard_normal((8, n, n)) + 1j * rng.standard_normal((8, n, n))
        if shape == "permuted-triangular":
            perm = rng.permutation(n)
            stack = np.triu(stack)[:, perm[:, None], perm]
        assert dense_eigvals(stack).tobytes() == np.linalg.eigvals(stack).tobytes()
        for mat in stack:
            assert dense_eigvals(mat).tobytes() == np.linalg.eigvals(mat).tobytes()

    def test_non_convergence_is_a_precondition_error(self, monkeypatch):
        # LAPACK reports non-convergence by the invalid floating-point
        # flag, raised here by a stand-in for the gufunc
        def invalid(a, **kwargs):
            return np.sqrt(np.full(a.shape[:-1], -1.0))

        monkeypatch.setattr(_umath_linalg, "eigvals", invalid)
        with pytest.raises(PreconditionError, match="eigenvalue iteration did not converge"):
            dense_eigvals(np.eye(2, dtype=complex))


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


def plain_first_excluded(values, outer, tol):
    """first_excluded as a loop over the `values`, each measured against
    the values of its own row of `outer`."""
    for i, z in enumerate(values):
        if all(abs(z - y) > tol for y in outer[i] if not np.isnan(y)):
            return i
    return None


# exact binary values, so each distance between two of them is exact; the
# value just above 1.5 lies one ulp farther than 0.5 from 1.0
_SCAN_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, 1.5, np.nextafter(1.5, 2.0), 2.0, 1j, -1j]
_SCAN_VALUES += [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0)]


@st.composite
def _inclusion_tables(draw):
    """(values, outer): a table of 0-3 rows of 0-4 columns, NaN-padded
    after a per-row count of values (as the level tables pad them) or NaN
    anywhere, and 0-4 values per row of it, in row order, each paired with
    its row (as the pair blocks pair the values of σ(E) with σ(F))."""
    n, width = draw(st.integers(0, 3)), draw(st.integers(0, 4))

    def complex_values(count):
        return np.array(
            draw(st.lists(st.sampled_from(_SCAN_VALUES), min_size=count, max_size=count)),
            dtype=complex,
        )

    table = complex_values(n * width).reshape(n, width)
    if draw(st.booleans()):
        counts = np.array(draw(st.lists(st.integers(0, width), min_size=n, max_size=n)), dtype=int)
        table[np.arange(width) >= counts[:, None]] = np.nan
    else:
        pad = draw(st.lists(st.booleans(), min_size=table.size, max_size=table.size))
        table[np.array(pad, dtype=bool).reshape(table.shape)] = np.nan
    rows = np.repeat(np.arange(n), draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return complex_values(rows.size), table.take(rows, 0)


class TestFirstExcluded:
    @pytest.mark.parametrize("seed", range(20))
    def test_padded_batches_match_a_plain_loop(self, seed):
        # rows of a values each against rows of b padded ones; 30% of the
        # inner entries do not exist, so each row holds a random count
        rng = np.random.default_rng(seed)
        rows, a, b = rng.integers(1, 6, size=3)
        inner = np.round(rng.standard_normal((rows, a)) + 1j * rng.standard_normal((rows, a)))
        outer = np.round(rng.standard_normal((rows, b)) + 1j * rng.standard_normal((rows, b)))
        exists = rng.random((rows, a)) >= 0.3
        outer[rng.random((rows, b)) < 0.3] = np.nan
        values, table = inner[exists], outer.take(exists.nonzero()[0], 0)
        assert first_excluded(values, table, 0.5) == plain_first_excluded(values, table, 0.5)

    @given(_inclusion_tables(), st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=400, deadline=None)
    def test_matches_a_plain_loop(self, tables, tol):
        values, outer = tables
        assert first_excluded(values, outer, tol) == plain_first_excluded(values, outer, tol)

    def test_distance_tol_is_included(self):
        above = np.nextafter(1.5, 2.0)
        assert first_excluded(np.array([1.5, above]), np.array([[1.0], [1.0]]), 0.5) == 1
        # each value is measured against its own row only
        assert first_excluded(np.array([above, 1.5]), np.array([[2.0], [1.0]]), 0.5) is None
        assert first_excluded(np.array([0.0, -0.0]), np.array([[-0.0], [-0.0]]), 0.0) is None

    def test_empty_outer_excludes_every_value(self):
        assert first_excluded(np.array([2.0, 3.0]), np.empty((2, 0)), 1.0) == 0
        assert first_excluded(np.array([2.0]), np.full((1, 3), np.nan), 1.0) == 0
        assert inclusion_witness(np.array([2.0]), np.empty(0), 1.0) == 2.0

    def test_empty_inner_is_included(self):
        assert first_excluded(np.empty(0, dtype=complex), np.empty((0, 1)), 1.0) is None
        assert inclusion_witness(np.empty(0, dtype=complex), np.array([1.0]), 1.0) is None


class TestNearestDistance:
    """`nearest_distance` against a plain loop, on the shapes of its
    callers: (k, s) values against (k, 1, s) spectra, as the far masks of
    the exhaustive check measure each diagonal entry of k subsets of s
    points against its own subset's spectrum; (k, s) values against a
    NaN-padded (k, s, s) table; and (n,) values against one (n,) row."""

    #: any two of them lie 0, 3, 4 or 5 apart, so every distance is exact
    CORNERS = np.array([0, 3, 4j, 3 + 4j])

    @staticmethod
    def plain(z, row):
        return min((abs(z - y) for y in row if not np.isnan(y)), default=np.inf)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_a_plain_loop(self, seed):
        rng = np.random.default_rng(seed)
        k, s = rng.integers(1, 6, size=2)
        diag, spectra = rng.choice(self.CORNERS, size=(2, k, s))
        got = nearest_distance(diag, spectra[:, None, :])
        assert got.shape == (k, s)
        for i, j in np.ndindex(k, s):
            assert got[i, j] == self.plain(diag[i, j], spectra[i])

        table = np.broadcast_to(spectra[:, None, :], (k, s, s)).copy()
        table[rng.random((k, s, s)) < 0.4] = np.nan
        table[0, 0] = np.nan  # a row without values
        got = nearest_distance(diag, table)
        for i, j in np.ndindex(k, s):
            assert got[i, j] == self.plain(diag[i, j], table[i, j])
        assert got[0, 0] == np.inf

        got = nearest_distance(diag[0], spectra[0])
        assert got.tolist() == [self.plain(z, spectra[0]) for z in diag[0]]


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
        assert nonzero_eigen_match(K1, K2, 1e-8) is False

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

    def test_equal_counts_of_other_values_do_not_match(self):
        K1 = atomic_operator(np.diag([1.0, 5.0]))
        K2 = atomic_operator(np.diag([1.0, 7.0]))
        assert nonzero_eigen_match(K1, K2, 1e-8) is False


def brute_force_match(a, b, cutoff) -> bool:
    """Whether some pairing of `a` with `b` keeps every distance <= cutoff."""
    return len(a) == len(b) and any(
        all(abs(x - b[j]) <= cutoff for x, j in zip(a, perm))
        for perm in itertools.permutations(range(len(b)))
    )


class TestMatchMultisets:
    def test_a_pairing_within_the_cutoff_is_found(self):
        # the min-sum pairing, 0 with 0 and z with 1, totals 1.5 but puts z
        # at 1.5 from 1; pairing 0 with 1 and z with 0 keeps both within
        # the cutoff, at 1 and |z| = 1.000003
        z = -0.125 + 0.99216j
        assert brute_force_match([0, z], [1, 0], 1.0001)
        assert match_multisets([0, z], [1, 0], 1.0001)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            n, m = (int(v) for v in rng.integers(0, 6, size=2))
            m = n if rng.random() < 0.9 else m  # a length mismatch now and then
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            cutoff = float(rng.uniform(0.2, 2.0))
            assert match_multisets(a, b, cutoff) == brute_force_match(a, b, cutoff)


    def test_a_long_augmenting_path(self):
        # a_i = i + 1/2 lies near b_i = i and b_(i+1) for i < n - 1, and
        # a_(n-1) = -1/2 only near b_0: the last value moves every earlier
        # pairing one place up; one more a near b_0 alone leaves none
        n = 300
        b = list(range(n))
        a = [i + 0.5 for i in range(n - 1)] + [-0.5]
        assert match_multisets(a, b, 0.6)
        assert not match_multisets(a[:-2] + [-0.5, -0.5], b, 0.6)

    def test_many_equal_values(self):
        assert match_multisets([0j] * 512, [1e-9] * 512, 1e-8)
        assert not match_multisets([0j] * 511 + [1.0], [0.0] * 512, 1e-8)


def test_permutation_similarity_invariance():
    rng = np.random.default_rng(19)
    for p in (2, 5, 9, 16):
        mat = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        perm = rng.permutation(p)
        permuted = mat[np.ix_(perm, perm)]
        a = np.array(sorted(np.linalg.eigvals(mat), key=lambda z: (z.real, z.imag)))
        b = np.array(sorted(np.linalg.eigvals(permuted), key=lambda z: (z.real, z.imag)))
        np.testing.assert_allclose(a, b, atol=1e-8 * p)
