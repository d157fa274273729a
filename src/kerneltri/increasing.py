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
from .errors import PreconditionError
from .operators import Operator, compress
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
    block_ranges,
    block_size,
    eigenvalues,
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
    if acyclic_suffix(K.entries) == p:
        return PropertyReport(True, e_len.size + samples, False, tol)
    rng = np.random.default_rng(seed)
    # the first block holds the chain pairs, or one sample when there are none
    for lo, hi in block_ranges(e_len.size + samples, p, max(1, e_len.size)):
        chain = slice(min(lo, e_len.size), min(hi, e_len.size))
        e = points < e_len[chain, None]
        f = points < f_len[chain, None]
        drawn = hi - max(lo, e_len.size)
        if drawn > 0:
            # per sample F's bits, then the bits kept in E: one call for the
            # block yields the same bits as one call per sample
            bits = rng.integers(0, 2, size=(drawn, 2, p)).astype(bool)
            e = np.concatenate([e, bits[:, 0] & bits[:, 1]])
            f = np.concatenate([f, bits[:, 0]])
        n = hi - lo
        spectra, inverse = subset_spectra(K.entries, np.concatenate([e, f]))
        hit = first_excluded(spectra[inverse[:n]], spectra[inverse[n:]], tol_eff)
        if hit is not None:
            row, col = divmod(hit, spectra.shape[1])
            witness = (
                tuple(np.flatnonzero(e[row]).tolist()),
                tuple(np.flatnonzero(f[row]).tolist()),
                complex(spectra[inverse[row], col]),
            )
            return PropertyReport(False, lo + row + 1, False, tol, witness)
    return PropertyReport(True, e_len.size + samples, False, tol)


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
        for s, lmasks, cols in _subsets_by_size(low, m):
            idx = cols + (p - m)
            grown[lmasks, :s] = np.linalg.eigvals(entries[idx[:, :, None], idx[:, None, :]])
        spec = grown

    # the pairs up to level `suffix` hold, so the scan starts one level later
    low = 0
    for m in range(suffix + 1, p + 1):
        add_level(low, m)
        low = m
        for number, e, f in _pair_chunks(3 ** (m - 1), 3**m, m):
            hit = first_excluded(spec[e], spec[f], tol_eff)
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
    the bits kept in E). All of them hold on an acyclic support;
    otherwise they are decided in blocks (see
    :func:`block_ranges`): the first holds the chain pairs (one sample
    when there are none), each next one twice as many pairs, up to
    `block_size(p)`. Each block
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
    """Spectral radius of the compression along an increasing chain."""
    for a, b in zip(chain, chain[1:]):
        if not (a.issubset(b) and a.mask != b.mask):
            raise PreconditionError("chain is not strictly increasing")
    return [eigenvalues(compress(K, s)).radius for s in chain]
