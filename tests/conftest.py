"""Shared instance generators and independent oracles.

Everything here deliberately avoids the library code paths it is used to
check: brute-force enumeration, direct eigvals calls and explicit loops.
"""

import functools
import itertools
import json
import math
from typing import Any

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from kerneltri import (
    FiniteRankOperator,
    PreconditionError,
    PropertyReport,
    StandardSet,
    TheoremViolationError,
    build_space,
    canonical_dumps,
    compress,
    kernel_operator,
    support_digraph,
)
from kerneltri.operators import ZERO_TOL
from kerneltri.spaces import mask_indices, standard_pair_masks
from kerneltri.spectral import first_excluded
from kerneltri.triangular import BlockDiagnosis, TriangularizationCertificate, _eigen_atoms


def inclusion_witness(inner: np.ndarray, outer: np.ndarray, tol: float) -> complex | None:
    """First value of the vector `inner` farther than tol from every value
    of the vector `outer` (by `first_excluded`, each inner value against
    `outer` as its row); None when every inner value lies within tol of
    some outer one."""
    hit = first_excluded(inner, np.broadcast_to(outer, (inner.size, outer.size)), tol)
    return None if hit is None else complex(inner[hit])


def svd_factors(K) -> FiniteRankOperator:
    """Factors (F, G) of K with F @ G.T its kernel up to roundoff, from the
    SVD truncated to the singular values > ZERO_TOL * sigma_max: a
    factored form of a dense operator, for the oracles that read F and G."""
    u, s, vh = np.linalg.svd(K.kernel_values)
    n = 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > ZERO_TOL * s[0]))
    return FiniteRankOperator(space=K.space, F=u[:, :n] * s[:n], G=vh[:n, :].T.copy())


def moment_matrix(kfr, E, tol: float = 1e-8) -> np.ndarray:
    """M(E) = sum_{x in E} G(x) F(x)^t w(x), an n×n array for a rank-n
    factored kernel, as a loop over the points of E; requires the
    densified kernel diagonal to vanish on E. The reference for the
    residuals of `moment_identities`, which it reads off one p×p product
    instead of one moment matrix per set."""
    if E.space != kfr.space:
        raise PreconditionError("standard set over a different space")
    kernel = kfr.kernel_matrix()
    scale = max(1.0, float(np.abs(kernel).max(initial=0.0)))
    idx = list(E.indices())
    diag = np.abs(np.diag(kernel)[idx]) if idx else np.empty(0)
    if diag.size and diag.max() > tol * scale:
        bad = idx[int(diag.argmax())]
        raise PreconditionError(
            f"kernel diagonal does not vanish on the set: |k(x,x)| = "
            f"{diag.max():.3e} at point {bad}"
        )
    w = kfr.space.weights
    m = np.zeros((kfr.rank, kfr.rank), dtype=complex)
    for i in idx:
        m += np.outer(kfr.G[i], kfr.F[i]) * w[i]
    return m


def forbid_eigenvalues(monkeypatch) -> None:
    """Make every eigen-decomposition fail, for tests of decisions that
    must need none. It patches the LAPACK gufunc itself, which both
    `spectral.dense_eigvals` and `np.linalg.eigvals` call."""

    def refuse(a, **kwargs):
        raise AssertionError("eigen-decomposed a compression")

    monkeypatch.setattr(_umath_linalg, "eigvals", refuse)


def count_decompositions(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the LAPACK eigenvalue gufunc (see `forbid_eigenvalues`); the
    returned list gets, per call, the size of its matrices and how many it
    decomposed."""
    eigvals = _umath_linalg.eigvals
    counts: list[tuple[int, int]] = []

    def counting(a, **kwargs):
        a = np.asarray(a)
        counts.append((a.shape[-1], int(np.prod(a.shape[:-2]))))
        return eigvals(a, **kwargs)

    monkeypatch.setattr(_umath_linalg, "eigvals", counting)
    return counts


def figure_eight(p: int):
    """Two cycles of k = (p + 1) / 2 atoms that share point 0, with cycle
    products +1 and -1: they cancel in the characteristic polynomial λ^p
    of the full compression, which is so nilpotent, and only a pair whose
    F holds one cycle and not the other violates the increasing-spectrum
    property."""
    k = (p + 1) // 2
    kernel = np.zeros((p, p), dtype=complex)
    for cycle, product in ((list(range(k)), 1.0), ([0, *range(k, p)], -1.0)):
        kernel[cycle, cycle[1:] + cycle[:1]] = 1.0
        kernel[cycle[-1], 0] = product
    return kernel_operator(build_space(0, range(2, p + 2)), kernel)


def kernel_operator_from_function(space, fn):
    """Sample a kernel function on the grid midpoints and atom ids, one
    call per entry: the reference for `volterra_linear`."""
    coords = list(space.midpoints) + list(space.atom_ids)
    kernel = np.array([[fn(x, y) for y in coords] for x in coords], dtype=complex)
    return kernel_operator(space, kernel)


def brute_increasing_oracle(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """Direct check of spectrum inclusion over all 3^p subset pairs."""
    p = matrix.shape[0]
    spectra = {}
    for mask in range(1 << p):
        idx = [i for i in range(p) if mask >> i & 1]
        spectra[mask] = np.linalg.eigvals(matrix[np.ix_(idx, idx)]) if idx else np.empty(0)
    for f_mask in range(1 << p):
        e_mask = f_mask
        while True:  # all submasks of f_mask
            inner, outer = spectra[e_mask], spectra[f_mask]
            for z in inner:
                if outer.size == 0 or np.abs(outer - z).min() > tol:
                    return False
            if e_mask == 0:
                break
            e_mask = (e_mask - 1) & f_mask
    return True


def reference_increasing_check(K, tol: float = 1e-8) -> PropertyReport:
    """The exhaustive check as a plain per-pair loop over all 3^p pairs in
    enumeration order, one eigvals call per subset: the reference for the
    level-by-level `check_increasing_spectrum`. It shares the pair
    enumerator and the inclusion test with the library, which
    brute_increasing_oracle checks without them."""
    p = K.size
    tol_eff = tol * K.scale
    pairs = standard_pair_masks(p)

    @functools.cache
    def spectrum(mask: int) -> np.ndarray:
        idx = mask_indices(mask, p)
        return np.linalg.eigvals(K.entries.take(idx, 0).take(idx, 1))

    checked = 0
    for e_mask, f_mask in pairs:
        checked += 1
        witness = inclusion_witness(spectrum(e_mask), spectrum(f_mask), tol_eff)
        if witness is not None:
            return PropertyReport(
                False,
                checked,
                True,
                tol,
                (mask_indices(e_mask, p), mask_indices(f_mask, p), witness),
            )
    return PropertyReport(True, checked, True, tol)


def witness_violates(K, witness, tol: float = 1e-8) -> bool:
    """Whether the witness (E, F, z) of a `false` report violates the
    property, by eigenvalues of its own: z lies within tol * scale of
    σ(E) and farther than that from every value of σ(F), each spectrum
    one eigvals call on the compression to its points."""
    e, f, z = witness
    if not set(e) <= set(f):
        return False
    tol_eff = tol * K.scale
    inner = np.linalg.eigvals(K.entries[np.ix_(e, e)])
    outer = np.linalg.eigvals(K.entries[np.ix_(f, f)])
    return bool(np.abs(inner - z).min() <= tol_eff < np.abs(outer - z).min())


def reference_structural_check(K, tol: float = 1e-8) -> PropertyReport | None:
    """The check above max_points as plain loops: `true` over 3^p pairs
    when `reference_acyclic_suffix` covers every point, else the first
    point v of `reference_shortest_cycle` at threshold 0 (ascending) whose
    diagonal entry lies farther than tol * scale from every eigenvalue of
    the compression to the cycle C, reported as the witness ({v}, C); None
    when no point of C is that far (the tolerance band)."""
    p = K.size
    if reference_acyclic_suffix(K.entries) == p:
        return PropertyReport(True, 3**p, False, tol)
    cycle = tuple(sorted(reference_shortest_cycle(K, 0.0)))
    spectrum = np.linalg.eigvals(K.entries[np.ix_(cycle, cycle)])
    for rank, v in enumerate(cycle):
        z = complex(K.entries[v, v])
        if np.abs(spectrum - z).min() > tol * K.scale:
            return PropertyReport(False, rank + 1, False, tol, ((v,), cycle, z))
    return None


def reference_radius_profile(K, chain) -> list[float]:
    """The radius profile as a loop of one eigvals call per chain set, on
    the compression to its points: the reference for `radius_profile`,
    which reads the radius of the sets with an acyclic support off the
    diagonal and eigen-decomposes only the larger ones."""
    return [
        float(np.abs(np.linalg.eigvals(compress(K, s).entries)).max()) if s.size else 0.0
        for s in chain
    ]


def volterra_and_two_cycle(cells: int):
    """`volterra_linear(cells)` on the cells plus two atoms carrying the
    2-cycle [[0, 1], [2, 0]]: the nested cell chain never touches the
    cycle, so every chain pair holds at distance 0, while ({v}, both
    atoms) violates by √2 for either atom v."""
    space = build_space(cells, [2, 3])
    kernel = np.zeros((cells + 2, cells + 2), dtype=complex)
    x = np.array(space.midpoints)
    kernel[:cells, :cells] = np.maximum(x[:, None] - x[None, :], 0.0)
    kernel[cells, cells + 1], kernel[cells + 1, cells] = 1.0, 2.0
    return kernel_operator(space, kernel)


def reference_peel_zero_columns(K) -> tuple[tuple[int, ...], ...]:
    """The zero-column peel as it ran on SVD factors: compress K to the
    remaining points, refactor the compression, and strip the columns of
    F @ G.T that are <= ZERO_TOL * max(1, max|entry|); the reference for
    `_peel_zero_columns`, which reads `Operator.support` instead."""
    remaining = list(range(K.size))
    blocks: list[tuple[int, ...]] = []
    while remaining:
        sub = compress(K, StandardSet.from_indices(K.space, remaining))
        kernel = svd_factors(sub).kernel_matrix()
        scale = max(1.0, float(np.abs(kernel).max())) if kernel.size else 1.0
        mags = np.abs(kernel).max(axis=0) if kernel.size else np.empty(0)
        local = [i for i in range(sub.size) if mags.size == 0 or mags[i] <= ZERO_TOL * scale]
        picked = [remaining[i] for i in local]
        if not picked:
            raise TheoremViolationError(
                "no zero-column set in a compression asserted to have "
                "nilpotent standard compressions",
                remaining=tuple(remaining),
            )
        blocks.append(tuple(picked))
        remaining = [i for i in remaining if i not in set(picked)]
    return tuple(blocks)


def reference_increasing_blocks(K, tol: float = 1e-8) -> tuple[tuple[int, ...], ...]:
    """The blocks of the increasing-spectrum block form as the index-based
    recursion built them: each level takes the `np.ix_` compression of the
    kernel to its points, zeroes the peeled atom diagonal, strips the zero
    columns of that array at K.zero_threshold stage by stage and maps the
    blocks back to points. Raises what the library raises, with the same
    messages. The reference for `increasing_spectrum_block_form`, which
    recurses on masks of one copy of K.support."""
    kernel, thr = K.kernel_values, K.zero_threshold
    peeled = _eigen_atoms(K, tol)  # sorted by atom id

    def peel(g: np.ndarray) -> list[tuple[int, ...]]:
        remaining = np.arange(g.shape[0])
        blocks = []
        while remaining.size:
            sub = g[np.ix_(remaining, remaining)]
            zero = np.abs(sub).max(axis=0, initial=0.0) <= thr
            if not zero.any():
                raise TheoremViolationError(
                    "no zero-column set in a compression asserted to have "
                    "nilpotent standard compressions",
                    remaining=tuple(remaining.tolist()),
                )
            blocks.append(tuple(remaining[zero].tolist()))
            remaining = remaining[~zero]
        return blocks

    def rec(indices: list[int]) -> list[tuple[int, ...]]:
        if not indices:
            return []
        g = kernel[np.ix_(indices, indices)]
        atoms = [a for a, _ in peeled if a in indices]
        local = [indices.index(a) for a in atoms]
        g[local, local] = 0.0
        g_blocks = [tuple(indices[i] for i in blk) for blk in peel(g)]
        if not atoms:
            return g_blocks
        j = atoms[0]
        split = next(b for b, blk in enumerate(g_blocks) if j in blk)
        f1 = [i for blk in g_blocks[:split] for i in blk]
        f2 = [i for blk in g_blocks[split:] for i in blk if i != j]
        return rec(sorted(f1)) + [(j,)] + rec(sorted(f2))

    blocks = tuple(rec(list(range(K.size))))
    s = np.linalg.svd(kernel, compute_uv=False)
    n = 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > ZERO_TOL * s[0]))
    if len(blocks) > 2 * n + 1:
        raise TheoremViolationError(f"block count {len(blocks)} exceeds bound {2 * n + 1}")
    pos = np.empty(K.size, dtype=int)
    for b, block in enumerate(blocks):
        pos[list(block)] = b
    below = pos[:, None] > pos[None, :]
    residual = float(np.abs(kernel)[below].max()) if below.any() else 0.0
    if residual > thr:
        raise TheoremViolationError("atom placement broke block triangularity")
    return blocks


def reference_nested_chain(space, steps: int) -> list[StandardSet]:
    """The nested chain as a loop over every step s = 0 .. steps, keeping
    the cells with midpoint <= s / steps and dropping repeated sets: the
    reference for `nested_chain`, which jumps from set to set."""
    chain: list[StandardSet] = []
    for s in range(steps + 1):
        count = sum(1 for m in space.midpoints if m <= s / steps)
        ss = StandardSet(space, (1 << count) - 1)
        if not chain or ss.mask != chain[-1].mask:
            chain.append(ss)
    return chain


def reference_nilpotent_failure(K, tol: float = 1e-8) -> str | None:
    """The exhaustive nilpotence check as a plain loop over the subset
    bitmasks 1 .. 2^p - 1, one eigvals call each: the message of the first
    failing subset, or None when every compression is nilpotent."""
    p = K.size
    for mask in range(1, 1 << p):
        idx = list(mask_indices(mask, p))
        radius = np.abs(np.linalg.eigvals(K.entries[np.ix_(idx, idx)])).max()
        if radius > tol * K.scale:
            return f"standard compression on points {idx} is not nilpotent (radius {radius:.3e})"
    return None


def reference_nilpotent_structural_failure(K, tol: float = 1e-8) -> str | None:
    """The nilpotence check above 12 points as plain loops: the first point
    whose diagonal entry exceeds tol * scale, else, on a cyclic exact
    support, the `reference_shortest_cycle` at threshold 0 with the radius
    of its compression (one eigvals call); the message of that failure
    (a radius at or below tol * scale reads "band"), or None when the
    diagonal is within tol * scale and the exact support is acyclic."""
    cutoff = tol * K.scale
    for i in range(K.size):
        if abs(K.entries[i, i]) > cutoff:
            radius = abs(K.entries[i, i])
            return f"standard compression on points {[i]} is not nilpotent (radius {radius:.3e})"
    cycle = reference_shortest_cycle(K, 0.0)
    if cycle is None:
        return None
    idx = sorted(cycle)
    radius = np.abs(np.linalg.eigvals(K.entries[np.ix_(idx, idx)])).max()
    if radius <= cutoff:
        return "band"
    return f"standard compression on points {idx} is not nilpotent (radius {radius:.3e})"


def all_ordered_partitions(items: tuple[int, ...]):
    """Every ordered set partition, as a tuple of disjoint blocks."""

    def unordered(pool):
        if not pool:
            yield ()
            return
        first, rest = pool[0], pool[1:]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                block = (first,) + extra
                remaining = tuple(i for i in rest if i not in extra)
                for tail in unordered(remaining):
                    yield (block,) + tail

    for parts in unordered(items):
        for perm in itertools.permutations(parts):
            yield perm


def random_nilpotent_instance(rng: np.random.Generator):
    """Strictly block upper triangular finite-rank operator.

    Rank n in 1..5, m = n+1 blocks, p <= 14 atomic points. Factor j is
    supported on blocks <= j (F) and blocks > j (G), which forces every
    kernel entry to couple a strictly earlier block to a later one; all
    standard compressions are then nilpotent by construction.
    """
    n = int(rng.integers(1, 6))
    m = n + 1
    sizes = [1 + int(rng.integers(0, 3)) for _ in range(m)]
    while sum(sizes) > 14:
        sizes[int(rng.integers(0, m))] = 1
    p = sum(sizes)
    bounds = np.cumsum([0] + sizes)
    blocks = [list(range(bounds[b], bounds[b + 1])) for b in range(m)]
    space = build_space(0, range(2, p + 2))
    F = np.zeros((p, n), dtype=complex)
    G = np.zeros((p, n), dtype=complex)
    for j in range(n):
        for b in range(j + 1):
            F[blocks[b], j] = rng.standard_normal(len(blocks[b]))
        for b in range(j + 1, m):
            G[blocks[b], j] = rng.standard_normal(len(blocks[b]))
        # keep the superdiagonal coupling alive
        F[blocks[j][0], j] += 1.0
        G[blocks[j + 1][0], j] += 1.0
    return FiniteRankOperator(space=space, F=F, G=G), blocks


def random_hybrid_instance(rng: np.random.Generator):
    """Hybrid-space operator in block upper triangular form: strictly
    upper kernel in a random point ordering, plus a nonzero diagonal on
    some atoms. Its nonzero spectrum is exactly the atom diagonal."""
    cells = int(rng.integers(1, 5))
    atoms = int(rng.integers(1, 4))
    p = cells + atoms
    space = build_space(cells, range(2, atoms + 2))
    order = rng.permutation(p)
    rank_of = np.empty(p, dtype=int)
    rank_of[order] = np.arange(p)
    kernel = np.zeros((p, p), dtype=complex)
    for i in range(p):
        for j in range(p):
            if rank_of[i] < rank_of[j] and rng.random() < 0.6:
                kernel[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    lambdas = {}
    for j in range(cells, p):
        if rng.random() < 0.8:
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            while abs(lam) < 0.3:
                lam *= 2.0
            kernel[j, j] = lam
            lambdas[j] = lam
    return kernel_operator(space, kernel), lambdas


def worst_covering_margin(matrix: np.ndarray) -> float:
    """Largest distance from an eigenvalue of F∖{i} to the spectrum of F,
    over all covering pairs (F∖{i}, F) with F∖{i} nonempty."""
    p = matrix.shape[0]
    worst = 0.0
    for f_mask in range(1 << p):
        f_idx = [k for k in range(p) if f_mask >> k & 1]
        outer = np.linalg.eigvals(matrix[np.ix_(f_idx, f_idx)]) if f_idx else np.empty(0)
        for i in f_idx:
            e_idx = [k for k in f_idx if k != i]
            for z in np.linalg.eigvals(matrix[np.ix_(e_idx, e_idx)]) if e_idx else ():
                worst = max(worst, float(np.abs(outer - z).min()))
    return worst


def worst_margin(matrix: np.ndarray) -> float:
    """Largest distance from an eigenvalue of E to the spectrum of F, over
    all pairs E ⊆ F with E nonempty, each compression taken with its
    points ascending: the increasing-spectrum check holds at tol exactly
    when this is at most tol * scale."""
    p = matrix.shape[0]
    spec = np.full((1 << p, p), np.nan, dtype=complex)
    for mask in range(1, 1 << p):
        idx = list(mask_indices(mask, p))
        spec[mask, : len(idx)] = np.linalg.eigvals(matrix[np.ix_(idx, idx)])
    e, f = np.array([(e, f) for f in range(1 << p) for e in range(1, f + 1) if e & ~f == 0]).T
    dist = np.fmin.reduce(np.abs(spec[e][:, :, None] - spec[f][:, None, :]), axis=2)
    return float(np.nanmax(dist))


def near_tolerance_instance(rng: np.random.Generator, p: int, ratio: float, tol: float = 1e-8):
    """Atomic operator, upper triangular in a random point order with a
    well-separated diagonal, plus one entry against that order, sized so
    the worst margin over all pairs (:func:`worst_margin`) is ratio * tol *
    scale: the entry is rescaled twice by the target over the measured
    margin, which is linear in the entry up to terms far below roundoff.
    Every subset spectrum is then the matching diagonal values moved by
    at most about that margin."""
    mat = np.triu(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)), 1)
    mat += np.diag(np.arange(1, p + 1) * np.exp(2j * np.pi * rng.random()))
    i, j = sorted(rng.choice(p, size=2, replace=False))
    perm = rng.permutation(p)
    back = np.argsort(perm)[[j, i]]  # where entry (j, i) lands once permuted
    mat = mat[np.ix_(perm, perm)]
    target = ratio * tol * max(1.0, float(np.abs(mat).max()))
    mat[back[0], back[1]] = 1e-6
    for _ in range(2):
        mat[back[0], back[1]] *= target / worst_margin(mat)
    return kernel_operator(build_space(0, range(2, p + 2)), mat)


def reference_shortest_cycle(K, threshold=None) -> tuple[int, ...] | None:
    """The cycle search as a DFS from every start point, pruned with the
    shortest-path distances and backtracking on repeated points: the
    reference for `find_nondegenerate_cycle`, which walks the distances
    directly."""
    dg = support_digraph(K, threshold)
    p = dg.size
    succ = [tuple(j for j in dg.successors[i] if j != i) for i in range(p)]
    heads = np.repeat(np.arange(p), [len(s) for s in succ])
    tails = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.intp, count=heads.size)

    # dist[s, v]: arc count of the shortest path s -> v (inf if none)
    arcs = csr_array((np.ones(heads.size), (heads, tails)), shape=(p, p))
    dist = shortest_path(arcs, unweighted=True)

    # each arc u -> v closes a cycle through the shortest path v -> u
    back = dist[tails, heads].min(initial=np.inf)
    if back == np.inf:
        return None
    girth = int(back) + 1

    # lexicographically smallest cycle of length == girth, found by DFS
    # pruned with the shortest-path distances
    def extend(path: list[int], used: set[int]) -> tuple[int, ...] | None:
        start = path[0]
        remaining = girth - len(path)
        if remaining == 0:
            return tuple(path) if start in succ[path[-1]] else None
        for v in succ[path[-1]]:
            # after appending v there are `remaining` arcs left to spend,
            # the last of which must land on start
            if v in used or dist[v][start] > remaining:
                continue
            found = extend(path + [v], used | {v})
            if found is not None:
                return found
        return None

    for s in range(p):
        cyc = extend([s], {s})
        if cyc is not None:
            return cyc
    return None


def reference_acyclic_suffix(entries: np.ndarray) -> int:
    """The largest m whose last m points carry no cycle of exactly nonzero
    off-diagonal entries, by peeling each suffix in turn, the longest
    first: drop the points that no other remaining point has an arc into
    until none is left (acyclic) or none can go (a cycle). The reference
    for `acyclic_suffix`, which runs the bitmask search of `SubsetCycles`
    instead, point by point from the last one."""
    p = entries.shape[0]
    for m in range(p, 0, -1):
        remaining = set(range(p - m, p))
        while True:
            sources = {
                j for j in remaining if all(entries[i, j] == 0 for i in remaining if i != j)
            }
            if not sources:
                break
            remaining -= sources
        if not remaining:
            return m
    return 0


def reference_scc_blocks(K) -> tuple[tuple[int, ...], ...]:
    """The strongly connected components of the support digraph of K at
    its zero threshold, each ascending, from a boolean reachability
    closure (points i and j share a component when each reaches the
    other), then Kahn's order of the condensation taking the component of
    smallest point among the sources at each step: the reference for the
    blocks of `scc_triangularize` on both of its paths."""
    arcs = np.abs(K.kernel_values) > K.zero_threshold
    p = arcs.shape[0]
    reach = arcs | np.eye(p, dtype=bool)
    while True:  # square until no longer path appears
        wider = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        if (wider == reach).all():
            break
        reach = wider
    mutual = reach & reach.T
    comps = sorted({tuple(np.flatnonzero(mutual[i]).tolist()) for i in range(p)})
    remaining = list(comps)
    order = []
    while remaining:
        sources = [
            c
            for c in remaining
            if not any(arcs[u, v] for d in remaining if d != c for u in d for v in c)
        ]
        first = min(sources, key=min)
        order.append(first)
        remaining.remove(first)
    return tuple(order)


def reference_chain_invariant(K, blocks, tol: float = 1e-8) -> tuple[bool, str]:
    """(passed, detail) of the chain-invariance check as a loop over the
    prefixes F_b, each rescanning its rectangle K[outside, inside]: the
    reference for `verify_certificate`, which reads the first leaking
    prefix off the below-block entries."""
    kernel = K.kernel_values
    p = K.size
    thr = tol * max(1.0, float(np.abs(kernel).max()) if kernel.size else 1.0)
    pos = np.empty(p, dtype=int)
    for b, block in enumerate(blocks):
        pos[list(block)] = b
    for b in range(len(blocks)):
        inside = [i for i in range(p) if pos[i] <= b]
        outside = [i for i in range(p) if pos[i] > b]
        if inside and outside:
            leak = float(np.abs(kernel[np.ix_(outside, inside)]).max())
            if leak > thr:
                return False, f"prefix {b} leaks {leak:.3e}"
    return True, ""


def reference_block_checks(K, kind: str, blocks, tol: float = 1e-8) -> dict[str, dict]:
    """The block checks of `verify_certificate` for a `nilpotent_rank` or
    `increasing_spectrum` certificate on a partition `blocks`, as a loop
    that slices the kernel once per block and once per block pair: the
    reference for the verifier, which reads every block's largest |k| in
    one pass over the block positions. The scalars of the filled singleton
    atom blocks are paired with the eigenvalues above thr by
    :func:`backtracking_match`."""
    kernel = K.kernel_values
    thr = tol * max(1.0, float(np.abs(kernel).max()) if kernel.size else 1.0)
    peaks = [np.abs(kernel[np.ix_(block, block)]).max() for block in blocks]
    if kind == "nilpotent_rank":
        bad = [b for b, peak in enumerate(peaks) if peak > thr]
        weak = [
            j
            for j in range(len(blocks) - 1)
            if np.abs(kernel[np.ix_(blocks[j], blocks[j + 1])]).max() <= thr
        ]
        return {
            "zero_diagonal_blocks": {
                "passed": not bad, "detail": f"nonzero diagonal blocks {bad}" if bad else ""
            },
            "superdiagonal_nonzero": {
                "passed": not weak,
                "detail": f"vanishing superdiagonal blocks {weak}" if weak else "",
            },
        }
    filled = [b for b, peak in enumerate(peaks) if peak > thr]
    bad = [b for b in filled if not (len(blocks[b]) == 1 and K.space.is_atom(blocks[b][0]))]
    scalars = [complex(kernel[blocks[b][0], blocks[b][0]]) for b in filled if b not in bad]
    eigs = [complex(z) for z in np.linalg.eigvals(K.entries) if abs(z) > thr]
    matched = len(scalars) == len(eigs) and backtracking_match(scalars, eigs, thr)
    return {
        "diagonal_blocks": {
            "passed": not bad,
            "detail": f"nonzero non-atom diagonal blocks {bad}" if bad else "",
        },
        "scalar_eigenvalues": {
            "passed": matched,
            "detail": ""
            if matched
            else f"scalars {canonical_dumps(scalars).rstrip()} do not match nonzero spectrum "
            f"{canonical_dumps(eigs).rstrip()}",
        },
    }


#: a kernel on four atoms whose diagonal lies within 1.2e-8 of 1 and whose
#: spectrum is that diagonal moved by up to 4e-9: its scalars pair with the
#: spectrum within tol = 1e-8, but not nearest eigenvalue first
NEAR_DEGENERATE_ATOMS = [
    [1.0000000114235603, 0.0, 0.0, 7.860492406500997e-05],
    [7.748828452637234e-14, 1.0000000078097124, 0.47337304233635824, 0.0],
    [0.0, 0.0, 1.0000000016009638, 0.0],
    [8.445010205098427e-13, -8.528774198830557e-13, 4.65103937655899e-10, 0.9999999980106994],
]


def backtracking_match(a: list[complex], b: list[complex], cutoff: float) -> bool:
    """Whether some pairing of `a` with the equally many `b` keeps every
    distance <= cutoff: a[i] tries each unused partner within the cutoff in
    turn and a[i + 1:] recurse, remembering the sets of used partners that
    failed, until a pairing holds or none is left."""
    near = [[abs(x - z) <= cutoff for z in b] for x in a]

    @functools.cache
    def pairs(i: int, used: int) -> bool:  # used: bitmask of the taken b
        return i == len(a) or any(
            near[i][j] and not used >> j & 1 and pairs(i + 1, used | 1 << j)
            for j in range(len(b))
        )

    return pairs(0, 0)


def planted_cycles(rng: np.random.Generator, p: int) -> np.ndarray:
    """A p×p kernel, upper triangular in a random point order with a
    diagonal that repeats 0 and ±1 about half the time, plus 1 to 3 cycles
    planted on random sets of 2 to 4 points. A cycle is strong (arcs 1 to
    2) or, more often, weak (arcs 1e-12 to 2e-9): the compressions that
    hold a weak one are cyclic yet keep their spectra within tol, so
    acyclic and cyclic E and F mix before the first witness."""
    order = rng.permutation(p)
    rank = np.empty(p, dtype=int)
    rank[order] = np.arange(p)
    mat = (rank[:, None] < rank[None, :]) * rng.standard_normal((p, p)) * (rng.random((p, p)) < 0.4)
    repeated = rng.choice([0.0, 1.0, -1.0], size=p)
    mat[np.arange(p), np.arange(p)] = np.where(rng.random(p) < 0.5, repeated, rng.standard_normal(p))
    for _ in range(int(rng.integers(1, 4))):
        pts = rng.choice(p, size=int(rng.integers(2, min(4, p) + 1)), replace=False)
        weight = 10.0 ** rng.uniform(-12, -9) if rng.random() < 0.6 else 1.0
        mat[pts, np.roll(pts, -1)] = weight * (1.0 + rng.random(pts.size))
    return mat


def mixed_component_digraph(rng: np.random.Generator, p: int) -> np.ndarray:
    """A p×p kernel whose support mixes trivial and nontrivial strongly
    connected components: forward arcs in a random point order, a few
    windows of consecutive positions closed into a ring plus random arcs
    inside (each window one component), and random self-loops."""
    order = rng.permutation(p)
    rank = np.empty(p, dtype=int)
    rank[order] = np.arange(p)
    mat = (rank[:, None] < rank[None, :]) * rng.random((p, p)) * (rng.random((p, p)) < 0.2)
    r = int(rng.integers(0, 3))  # the first window's start
    while r < p - 1:
        pts = order[r : r + int(rng.integers(2, 6))]
        mat[np.ix_(pts, pts)] += rng.random((pts.size, pts.size)) < 0.3
        mat[pts, np.roll(pts, -1)] = 1.0 + rng.random(pts.size)
        r += pts.size + int(rng.integers(0, 4))
    loops = np.flatnonzero(rng.random(p) < 0.3)
    mat[loops, loops] = rng.standard_normal(loops.size)
    return mat


def reference_certificate(
    kind: str, K, blocks, tol: float, rank: int | None = None, bound: int | None = None
) -> TriangularizationCertificate:
    """The certificate as a loop over the blocks, one `np.ix_` diagonal
    block each: the reference for `_certificate`, which classes every block
    from one array pass."""
    kernel, thr = K.kernel_values, K.zero_threshold
    pos = np.empty(K.size, dtype=int)
    diagonal = []
    for b, block in enumerate(blocks):
        pos[list(block)] = b
        sub = kernel[np.ix_(block, block)]
        if sub.size == 0 or np.abs(sub).max() <= thr:
            diagonal.append(BlockDiagnosis(b, "zero"))
        elif len(block) == 1 and K.space.is_atom(block[0]):
            diagonal.append(BlockDiagnosis(b, "scalar", complex(sub[0, 0])))
        else:
            diagonal.append(BlockDiagnosis(b, "irreducible"))
    below = pos[:, None] > pos[None, :]
    return TriangularizationCertificate(
        kind=kind,
        blocks=blocks,
        diagonal=tuple(diagonal),
        rank=rank,
        bound=bound,
        residual=float(np.abs(kernel)[below].max()) if below.any() else 0.0,
        tol=tol,
        multiplicity_free=all(len(b) == 1 for b in blocks),
    )


def reference_complex_matrix(rows) -> np.ndarray:
    """A matrix descriptor read one entry at a time with `complex(float(v))`:
    the reference for `jsonio._complex_matrix` on valid input."""

    def scalar(v) -> complex:
        if isinstance(v, list):
            return complex(float(v[0]), float(v[1]))
        return complex(float(v))

    try:
        return np.array([[scalar(v) for v in row] for row in rows], dtype=complex)
    except OverflowError as exc:
        raise PreconditionError(str(exc)) from exc


def _reference_format_real(x: float) -> str:
    if not math.isfinite(x):
        raise PreconditionError("cannot serialize non-finite number")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def reference_canonical_dumps(obj: Any) -> str:
    """The canonical emitter as one isinstance chain per node: the reference
    for `jsonio.canonical_dumps`, which dispatches on exact types first."""
    out: list[str] = []

    def emit(node: Any):
        if node is None:
            out.append("null")
        elif isinstance(node, bool):
            out.append("true" if node else "false")
        elif isinstance(node, (int, np.integer)):
            out.append(str(int(node)))
        elif isinstance(node, (float, np.floating)):
            out.append(_reference_format_real(float(node)))
        elif isinstance(node, complex):
            emit([node.real, node.imag])
        elif isinstance(node, str):
            out.append(json.dumps(node))
        elif isinstance(node, (list, tuple)):
            out.append("[")
            for i, item in enumerate(node):
                if i:
                    out.append(",")
                emit(item)
            out.append("]")
        elif isinstance(node, dict):
            out.append("{")
            for i, key in enumerate(sorted(node)):
                if i:
                    out.append(",")
                out.append(json.dumps(str(key)) + ":")
                emit(node[key])
            out.append("}")
        else:
            raise PreconditionError(f"cannot serialize {type(node).__name__}")

    emit(obj)
    out.append("\n")
    return "".join(out)
