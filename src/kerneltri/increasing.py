"""Verification of the increasing-spectrum property and the radius profile.

The property quantifies over all ordered pairs E ⊆ F of standard sets.
For p points that is 3^p pairs; up to `max_points` the check is exhaustive,
beyond that it is decided from the exactly nonzero entries: an acyclic
support holds, and on a cyclic one a shortest cycle C gives the witness
({v}, C), confirmed by the eigenvalues of the compression to C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import SupportDigraph, acyclic_suffix, shortest_cycle
from .errors import DimensionMismatchError, PreconditionError
from .operators import Operator
from .spaces import (
    DEFAULT_MAX_POINTS,
    StandardSet,
    _subsets_by_size,
    level_mask_indices,
    level_pair_table,
    pair_masks,
)
from .spectral import (
    DEFAULT_TOL,
    MAX_DENSE_SIZE,
    block_size,
    dense_eigvals,
    first_excluded,
)


@dataclass(frozen=True)
class PropertyReport:
    verdict: bool
    pairs_checked: int
    exhaustive: bool
    tol: float
    witness: tuple[tuple[int, ...], tuple[int, ...], complex] | None = None

    def __bool__(self) -> bool:
        return self.verdict

    def to_dict(self) -> dict:
        d = {
            "verdict": self.verdict,
            "pairs_checked": self.pairs_checked,
            "exhaustive": self.exhaustive,
            "tol": self.tol,
        }
        if self.witness is not None:
            e, f, z = self.witness
            d["witness"] = {"E": list(e), "F": list(f), "eigenvalue": [z.real, z.imag]}
        return d


def _structural_check(K: Operator, tol: float) -> PropertyReport:
    """The structural path of :func:`check_increasing_spectrum`."""
    p = K.size
    if acyclic_suffix(K.entries) == p:
        return PropertyReport(True, 3**p, False, tol)
    cycle = np.sort(shortest_cycle(SupportDigraph(0.0, K.entries != 0)))
    diagonal = K.entries[cycle, cycle]
    spectrum = dense_eigvals(K.entries[cycle[:, None], cycle])
    tol_eff = tol * K.scale
    hit = first_excluded(diagonal[None], spectrum[None], tol_eff)
    if hit is None:
        margin = np.abs(diagonal[:, None] - spectrum).min(axis=1).max()
        raise PreconditionError(
            f"the shortest cycle {cycle.tolist()} of the exact support has largest margin "
            f"{margin:.3e}, at or below tol * scale = {tol_eff:.3e}: the operator lies in "
            f"the tolerance band; max_points >= {p} decides it exhaustively"
        )
    witness = ((int(cycle[hit]),), tuple(cycle.tolist()), complex(diagonal[hit]))
    return PropertyReport(False, hit + 1, False, tol, witness)


def _pair_chunks(lo: int, hi: int, m: int):
    """Pairs number lo..hi-1, all over T_m with lo a power of 3, in
    enumeration order and in blocks of at most block_size(m) pairs:
    yields (number of the block's first pair, E level masks, F level
    masks)."""
    cap = block_size(m)
    if hi - lo <= cap:
        e, f = level_pair_table(m)
        yield lo, e[lo:hi], f[lo:hi]
        return
    k = 0
    while 3 ** (k + 1) <= cap:
        k += 1
    e_low, f_low = level_pair_table(k)
    high_bits = [1 << j for j in range(k, m)]
    block = 3**k
    for high in range(lo // block, hi // block):
        e, f = pair_masks(high, high_bits)
        yield high * block, e | e_low, f | f_low


def _exhaustive_check(K: Operator, tol: float) -> PropertyReport:
    """The exhaustive path of :func:`check_increasing_spectrum`."""
    p = K.size
    entries = K.entries
    suffix = acyclic_suffix(entries)
    if suffix == p:
        return PropertyReport(True, 3**p, True, tol)
    tol_eff = tol * K.scale
    # spectra per level mask of T_m, one row of m columns each, padded with
    # NaN (row 0 is the empty set); it grows by one level at a time, so a
    # witness found at level m costs only the 2^m subsets of T_m
    spec = np.empty((1, 0), dtype=complex)

    def add_level(low: int, m: int) -> None:
        nonlocal spec
        grown = np.full((1 << m, m), np.nan, dtype=complex)
        grown[: 1 << low, :low] = spec
        block = entries[p - m :, p - m :].ravel()  # T_m, row-major
        for s, lmasks, gather in _subsets_by_size(low, m):
            grown[lmasks, :s] = np.linalg.eigvals(block.take(gather))
        spec = grown

    # the pairs up to level `suffix` hold, so the scan starts one level later
    low = 0
    for m in range(suffix + 1, p + 1):
        add_level(low, m)
        low = m
        for number, e, f in _pair_chunks(3 ** (m - 1), 3**m, m):
            hit = first_excluded(spec.take(e, 0), spec.take(f, 0), tol_eff)
            if hit is not None:
                row, col = divmod(hit, m)
                e_lmask, f_lmask = int(e[row]), int(f[row])
                witness = (
                    level_mask_indices(e_lmask, p),
                    level_mask_indices(f_lmask, p),
                    complex(spec[e_lmask, col]),
                )
                return PropertyReport(False, number + row + 1, True, tol, witness)
    return PropertyReport(True, 3**p, True, tol)


def check_increasing_spectrum(
    K: Operator,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
    samples: object = None,
) -> PropertyReport:
    """Decide σ(P_E K P_E) ⊆ σ(P_F K P_F) for all pairs E ⊆ F, each
    eigenvalue of the inner compression within tol * K.scale of one of
    the outer.

    Both paths first take :func:`acyclic_suffix` of K.entries: a
    compression whose exactly nonzero off-diagonal entries form no cycle
    is triangular up to a permutation, so its spectrum is its diagonal and
    every pair inside its points holds at distance 0.

    Exhaustive for spaces with at most `max_points` points. In the order
    of :func:`standard_pair_masks` the first 3^m pairs are those over the
    last m points T_m = {p-m, ..., p-1}, so level m (m = 1..p) adds the
    pairs whose F holds point p-m. The levels up to the acyclic suffix
    hold, all p of them on an acyclic support; each later level
    eigen-decomposes its new subsets in one stacked call per subset size
    and scans its pairs exactly, in enumeration order and in vectorized
    blocks of bounded size, with :func:`first_excluded`. Only the spectra
    of the subsets of T_m are held, so a witness found at level m costs
    2^m subsets however large p is. The reported witness on failure is
    the first violating pair in enumeration order (the lexicographically
    minimal one), and `pairs_checked` counts the pairs decided: up to and
    including the witness, or all 3^p on a pass.

    Larger spaces are decided structurally, and the report carries
    exhaustive=False. An acyclic exact support holds, with all 3^p pairs.
    Otherwise C is the :func:`shortest_cycle` of the exact support (the
    arcs K.entries != 0). It has no chord, so the compression to C has
    the characteristic polynomial ∏(λ - a_ii) ± (cycle product), and in
    exact arithmetic ({v}, C) violates for every v in C. That compression
    is eigen-decomposed once, and one :func:`first_excluded` call decides
    the pairs ({v}, C) for v in C ascending: the first a_vv farther than
    tol * K.scale from σ(P_C K P_C) is the witness ((v,), C, a_vv), and
    `pairs_checked` is the rank of v in C plus one. When no a_vv clears
    that distance the operator lies in the tolerance band, where neither
    verdict is proven, and a PreconditionError names C, its largest
    margin and tol * K.scale; max_points >= K.size decides it
    exhaustively.

    `samples` is accepted and ignored: it sized the seeded sampled mode
    that the structural rule replaced, and callers written for that mode
    (perfbench/workloads.py) still pass it.
    """
    if K.size <= max_points:
        return _exhaustive_check(K, tol)
    return _structural_check(K, tol)


def radius_profile(K: Operator, chain: list[StandardSet]) -> list[float]:
    """Spectral radius of the compression along an increasing chain.

    The points of the last set, ordered by the first set that holds them,
    make every set of the chain a prefix, so one :func:`acyclic_suffix` of
    the reversed order finds the largest set whose exactly nonzero
    off-diagonal entries form no cycle. That set and the smaller ones are
    triangular up to a permutation, so each radius is the largest
    |diagonal entry| of its points; only the larger sets are
    eigen-decomposed, each as the compression to its points ascending.
    """
    for a, b in zip(chain, chain[1:]):
        if not (a.issubset(b) and a.mask != b.mask):
            raise PreconditionError("chain is not strictly increasing")
    if any(s.space != K.space for s in chain):
        raise DimensionMismatchError("standard set over a different space")
    sizes = [s.size for s in chain]
    too_big = [n for n in sizes if n > MAX_DENSE_SIZE]
    if too_big:
        raise PreconditionError(
            f"operator size {too_big[0]} exceeds dense limit {MAX_DENSE_SIZE}"
        )
    order = []  # the points of chain[c] are order[:sizes[c]]
    held = 0
    for s in chain:
        new = s.mask & ~held
        while new:
            low = new & -new
            order.append(low.bit_length() - 1)
            new ^= low
        held = s.mask
    order = np.array(order, dtype=np.intp)
    back = order[::-1]
    acyclic = acyclic_suffix(K.entries[back[:, None], back])
    # peak[n]: the largest |diagonal entry| of the first n points, 0 for none
    peak = np.maximum.accumulate(np.concatenate(([0.0], np.abs(np.diagonal(K.entries)[order]))))
    profile = []
    for n in sizes:
        if n <= acyclic:
            profile.append(float(peak[n]))
        else:
            idx = np.sort(order[:n])
            profile.append(float(np.abs(dense_eigvals(K.entries[idx[:, None], idx])).max()))
    return profile
