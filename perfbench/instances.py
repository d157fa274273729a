"""Seeded instance generators and independent oracles.

Nothing here imports kerneltri. Instances are plain arrays and dicts that
the benchmark hands to the library, and the oracles recheck the library's
answers with numpy alone, by code paths of their own.
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-8  # the library's default relative tolerance
ZERO = 1e-10  # the library's structural-zero threshold, relative to max|kernel|


def point_weights(cells: int, atoms: int) -> np.ndarray:
    return np.array([1.0 / cells] * cells + [1.0] * atoms) if cells else np.ones(atoms)


def scale_of(entries: np.ndarray) -> float:
    return max(1.0, float(np.abs(entries).max())) if entries.size else 1.0


# --- increasing-spectrum instances ----------------------------------------


def hybrid_kernel(rng, is_atom: np.ndarray, density: float = 0.6) -> np.ndarray:
    """Strictly upper triangular in a random point order, plus a nonzero
    diagonal on the atoms. Every standard compression is triangular up to a
    permutation, so its spectrum is its atom diagonal: the property holds."""
    p = len(is_atom)
    order = rng.permutation(p)
    upper = order[:, None] < order[None, :]
    vals = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    kernel = np.where(upper & (rng.random((p, p)) < density), vals, 0.0)
    lam = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    lam *= rng.uniform(0.5, 2.0, p) / np.abs(lam)
    kernel[np.diag_indices(p)] = np.where(is_atom, lam, 0.0)
    return kernel


def late_violator_kernel(rng, is_atom: np.ndarray) -> np.ndarray:
    """A 2-cycle on points 0 and 1, block diagonal with a holding hybrid on
    the rest. The first violating pair is E = {1}, F = {0, 1}, which the
    enumeration reaches after 5 * 3^(p-2) pairs."""
    p = len(is_atom)
    kernel = np.zeros((p, p), dtype=complex)
    kernel[0, 1], kernel[1, 0] = rng.uniform(0.5, 2.0, 2) * rng.choice((-1.0, 1.0), 2)
    kernel[2:, 2:] = hybrid_kernel(rng, is_atom[2:])
    return kernel


def dense_kernel(rng, p: int) -> np.ndarray:
    """Random dense kernel; its first violating pair comes within a few."""
    return rng.standard_normal((p, p)).astype(complex)


def nilpotent_factors(rng, p: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors of a rank-`rank` kernel that is strictly block upper
    triangular over rank + 1 blocks of a random point order, so every
    standard compression is nilpotent."""
    m = rank + 1
    cuts = np.sort(rng.choice(np.arange(1, p), size=m - 1, replace=False))
    blocks = np.split(rng.permutation(p), cuts)
    F = np.zeros((p, rank), dtype=complex)
    G = np.zeros((p, rank), dtype=complex)
    for j in range(rank):
        for b in range(j + 1):
            F[blocks[b], j] = rng.standard_normal(len(blocks[b]))
        for b in range(j + 1, m):
            G[blocks[b], j] = rng.standard_normal(len(blocks[b]))
        F[blocks[j][0], j] += 1.0  # keep the superdiagonal coupling alive
        G[blocks[j + 1][0], j] += 1.0
    return F, G


def paper_factors(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The paper's rank-n example on 2n + 1 atoms, with its points permuted
    and a diagonal similarity applied; both keep every compression's
    spectrum, so the property still holds."""
    p = 2 * n + 1
    F = np.zeros((p, n), dtype=complex)
    G = np.zeros((p, n), dtype=complex)
    for j in range(1, n + 1):
        F[2 * j - 2, j - 1] = F[2 * j - 1, j - 1] = 1.0
        G[2 * j - 1 :, j - 1] = 1.0
    d = rng.uniform(0.5, 2.0, p)
    perm = rng.permutation(p)
    return (d[:, None] * F)[perm], (G / d[:, None])[perm]


def witness_holds(entries: np.ndarray, witness, tol_eff: float) -> bool:
    """E ⊆ F, z is an eigenvalue of the E compression, and z is farther
    than tol_eff from every eigenvalue of the F compression."""
    e, f, z = witness
    if not set(e) <= set(f) or not e:
        return False
    inner = np.linalg.eigvals(entries[np.ix_(e, e)])
    if np.abs(inner - z).min() > tol_eff:
        return False
    if not f:
        return True
    outer = np.linalg.eigvals(entries[np.ix_(f, f)])
    return bool(np.abs(outer - z).min() > tol_eff)


def acyclic(support: np.ndarray) -> bool:
    """True when the support digraph has no cycle apart from loops: peel
    the points no other live point points to until none are left."""
    arcs = support.copy()
    np.fill_diagonal(arcs, False)
    alive = np.ones(len(arcs), dtype=bool)
    while alive.any():
        sources = alive & ~arcs[alive].any(axis=0)
        if not sources.any():
            return False
        alive &= ~sources
    return True


def below_block_ok(support: np.ndarray, blocks, p: int) -> bool:
    """Blocks partition 0..p-1 and no support entry lies below the block
    diagonal (row block after column block)."""
    flat = [i for b in blocks for i in b]
    if sorted(flat) != list(range(p)):
        return False
    pos = np.empty(p, dtype=int)
    for b, block in enumerate(blocks):
        pos[list(block)] = b
    return not (support & (pos[:, None] > pos[None, :])).any()


# --- 4x4 rank <= 2 sign matrices (the criterion-6 family) ------------------

_ROWS3 = list(itertools.combinations(range(4), 3))


def _det3(m: np.ndarray) -> np.ndarray:
    return (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    )


def rank_le2_sign_matrices(rng, count: int, chunk: int = 1 << 18) -> np.ndarray:
    """`count` distinct uniform draws from the 4x4 matrices with entries in
    {-1, 0, 1} and rank <= 2: rejection sampling on vanishing 3x3 minors,
    in exact integer arithmetic."""
    picked: dict[bytes, np.ndarray] = {}
    while len(picked) < count:
        cand = rng.integers(-1, 2, size=(chunk, 4, 4), dtype=np.int8)
        for r in _ROWS3:
            for c in _ROWS3:
                cand = cand[_det3(cand[:, r][:, :, c]) == 0]
        for m in cand:
            picked.setdefault(m.tobytes(), m)
            if len(picked) == count:
                break
    return np.stack(list(picked.values()))


def oracle_increasing_4x4(mats: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Vectorized verdicts over all 3^4 subset pairs, one batch of eigvals
    per subset."""
    eigs = {}
    for fm in range(1, 16):
        idx = [i for i in range(4) if fm >> i & 1]
        eigs[fm] = np.linalg.eigvals(mats[:, idx][:, :, idx].astype(complex))
    ok = np.ones(len(mats), dtype=bool)
    for fm in range(1, 16):
        em = fm
        while em:
            gap = np.abs(eigs[em][:, :, None] - eigs[fm][:, None, :]).min(axis=2)
            ok &= gap.max(axis=1) <= tol
            em = (em - 1) & fm
    return ok


# --- CLI descriptors --------------------------------------------------------


def volterra_kernel(cells: int) -> np.ndarray:
    x = (np.arange(cells) + 0.5) / cells
    return np.maximum(x[:, None] - x[None, :], 0.0)


def scc_cert_dict(blocks, classes) -> dict:
    """A certificate in the CLI's JSON form, built by the benchmark."""
    return {
        "kind": "scc",
        "blocks": [list(map(int, b)) for b in blocks],
        "diagonal": [
            dict({"block": i, "class": c[0]}, **({"lambda": c[1]} if len(c) > 1 else {}))
            for i, c in enumerate(classes)
        ],
        "bound": {"m": len(blocks), "limit": None, "rank": None},
        "residual": 0.0,
        "tol": TOL,
        "multiplicity_free": all(len(b) == 1 for b in blocks),
    }


def cyclic_dense_descriptor(rng, cells: int, atoms: int, degree: float, windows: int):
    """A sparse `dense` descriptor whose support is acyclic apart from a few
    planted cycles.

    Arcs go forward in a random point order, except that each planted window
    of consecutive positions is closed into one cycle and holds no other
    arc. Every cycle then lies inside one window, the windows are the only
    nontrivial strongly connected components, and the shortest cycle is the
    shortest window. Returns the descriptor and what the checks need.
    """
    p = cells + atoms
    order = rng.permutation(p)  # order[r] = point at position r
    rank = np.empty(p, dtype=int)
    rank[order] = np.arange(p)
    fwd = (rank[:, None] < rank[None, :]) & (rng.random((p, p)) < degree / p)
    kernel = np.where(fwd, rng.standard_normal((p, p)), 0.0).astype(complex)
    lengths = rng.integers(3, 6, size=windows)
    starts = np.sort(rng.choice(np.arange(0, p - 6, 6), size=windows, replace=False))
    cycles = []
    for s, length in zip(starts, lengths):
        pts = order[s : s + length]
        kernel[np.ix_(pts, pts)] = 0.0
        for a, b in zip(pts, np.roll(pts, -1)):
            kernel[a, b] = rng.uniform(0.5, 2.0)
        cycles.append(sorted(int(v) for v in pts))
    for j in range(cells, p):
        if rng.random() < 0.5:
            kernel[j, j] = complex(rng.standard_normal(), rng.standard_normal())

    def entry(z: complex):
        return z.real if z.imag == 0.0 else [z.real, z.imag]

    desc = {
        "kind": "dense",
        "space": {"cells": cells, "atoms": list(range(2, atoms + 2))},
        "kernel": [[entry(complex(z)) for z in row] for row in kernel],
    }
    blocks, classes, pos = [], [], 0
    starts_set = dict(zip(starts.tolist(), lengths.tolist()))
    while pos < p:
        length = starts_set.get(pos, 1)
        block = sorted(int(v) for v in order[pos : pos + length])
        blocks.append(block)
        if length > 1:
            classes.append(("irreducible",))
        elif kernel[block[0], block[0]] != 0:
            z = complex(kernel[block[0], block[0]])
            classes.append(("scalar", [z.real, z.imag]))
        else:
            classes.append(("zero",))
        pos += length
    return desc, kernel, cycles, scc_cert_dict(blocks, classes)
