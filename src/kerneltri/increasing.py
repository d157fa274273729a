"""Verification of the increasing-spectrum property and the radius profile.

The property quantifies over all ordered pairs E ⊆ F of standard sets.
For p points that is 3^p pairs; up to `max_points` the check is exhaustive,
beyond that a clearly-labeled sampled mode is used (all pairs along the
nested cell chain plus seeded random pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import acyclic_suffix
from .errors import DimensionMismatchError, PreconditionError
from .operators import Operator
from .spaces import (
    DEFAULT_MAX_POINTS,
    StandardSet,
    _subsets_by_size,
    level_mask_indices,
    level_pair_table,
    nested_chain,
    pair_masks,
)
from .spectral import (
    DEFAULT_TOL,
    MAX_DENSE_SIZE,
    block_ranges,
    block_size,
    dense_eigvals,
    first_excluded,
    subset_spectra,
)

DEFAULT_SAMPLES = 10_000


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


def _sampled_check(K: Operator, tol: float, samples: int, seed: int) -> PropertyReport:
    """The sampled path of :func:`check_increasing_spectrum`."""
    p = K.size
    tol_eff = tol * K.scale
    points = np.arange(p)
    # cells come first, so each set of the nested cell chain is a prefix;
    # its pairs come first, in the order of itertools.combinations
    prefixes = np.array(
        [s.mask.bit_length() for s in nested_chain(K.space, K.space.num_cells)]
        if K.space.num_cells > 0
        else [],
        dtype=np.intp,
    )
    e_len, f_len = (prefixes[i] for i in np.triu_indices(prefixes.size, 1))
    chained = e_len.size
    # The chain sets are prefixes, so, as in radius_profile, the acyclic
    # suffix of the reversed points is the largest prefix whose exact
    # support is acyclic: a chain pair whose F lies inside it holds at
    # distance 0, and every pair holds when it covers all points.
    acyclic = acyclic_suffix(K.entries[::-1, ::-1])
    if acyclic == p:
        return PropertyReport(True, chained + samples, False, tol)
    numbers = np.flatnonzero(f_len > acyclic)  # pair numbers of the chain pairs left
    e_len, f_len = e_len[numbers], f_len[numbers]
    rng = np.random.default_rng(seed)
    # the first block holds those chain pairs, or one sample when there are none
    for lo, hi in block_ranges(numbers.size + samples, p, max(1, numbers.size)):
        chain = slice(min(lo, numbers.size), min(hi, numbers.size))
        e = points < e_len[chain, None]
        f = points < f_len[chain, None]
        drawn = hi - max(lo, numbers.size)
        if drawn > 0:
            # per sample F's bits, then the bits kept in E: one call for the
            # block yields the same bits as one call per sample
            bits = rng.integers(0, 2, size=(drawn, 2, p)).astype(bool)
            e = np.concatenate([e, bits[:, 0] & bits[:, 1]])
            f = np.concatenate([f, bits[:, 0]])
        n = hi - lo
        spectra, inverse = subset_spectra(K.entries, np.concatenate([e, f]))
        hit = first_excluded(spectra.take(inverse[:n], 0), spectra.take(inverse[n:], 0), tol_eff)
        if hit is not None:
            row, col = divmod(hit, spectra.shape[1])
            k = lo + row
            number = int(numbers[k]) if k < numbers.size else chained + k - numbers.size
            witness = (
                tuple(np.flatnonzero(e[row]).tolist()),
                tuple(np.flatnonzero(f[row]).tolist()),
                complex(spectra[inverse[row], col]),
            )
            return PropertyReport(False, number + 1, False, tol, witness)
    return PropertyReport(True, chained + samples, False, tol)


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
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
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

    Larger spaces fall back to the sampled mode, and the report carries
    exhaustive=False. Its pairs are those along the nested cell chain,
    then `samples` seeded random pairs E ⊆ F (per sample F's bits, then
    the bits kept in E). The chain pairs whose F lies inside the largest
    prefix of the points with an acyclic exact support hold, and all
    pairs hold when that prefix is every point; the others are decided
    in blocks (see :func:`block_ranges`): the first holds those chain
    pairs (one sample when there are none), each next one twice as many
    pairs, up to `block_size(p)`. Each block
    takes one draw, one :func:`subset_spectra` call on its distinct
    subsets and one :func:`first_excluded` scan in pair order, so memory
    is bounded however large `samples` is. The witness is the first
    violating pair in that order, and `pairs_checked` counts the pairs up
    to and including it, or all of them on a pass.
    """
    if K.size <= max_points:
        return _exhaustive_check(K, tol)
    return _sampled_check(K, tol, samples, seed)


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
