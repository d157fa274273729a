"""Verification of the increasing-spectrum property and the radius profile.

The property quantifies over all ordered pairs E ⊆ F of standard sets.
For p points that is 3^p pairs; up to `max_points` the check is exhaustive,
beyond that a clearly-labeled sampled mode is used (all pairs along the
nested cell chain plus seeded random pairs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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
    nearest_distances,
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


#: relative slack of the covering proof: covers the rounding of each
#: computed |z - y|, of the chain sum and of m·w, all far below 1e-12
_PROOF_SLACK = 1e-12
#: levels always scanned; the covering proof is first tried one level later
_SCANNED_LEVELS = 4


@functools.cache
def _covering_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Level masks (E, F) of the covering pairs E = F∖{i} of level m with
    E nonempty: F lies in T_m and holds its first point and i."""
    f = np.arange(1 << (m - 1), 1 << m)
    bits = (f[:, None] >> np.arange(m)) & 1
    cover_f = [f[(bits[:, j] == 1) & (bits.sum(axis=1) > 1)] for j in range(m)]
    return np.concatenate([g ^ (1 << j) for j, g in enumerate(cover_f)]), np.concatenate(cover_f)


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
    if p == 0:
        return PropertyReport(True, 1, True, tol)  # the one pair (∅, ∅)
    tol_eff = tol * K.scale
    entries = K.entries
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

    def covering_margin(k: int) -> float:
        """Worst margin over the covering pairs of level k."""
        cover_e, cover_f = _covering_pairs(k)
        step = block_size(spec.shape[1])
        worst = 0.0
        for i in range(0, cover_e.size, step):
            dist = nearest_distances(spec[cover_e[i : i + step]], spec[cover_f[i : i + step]])
            worst = max(worst, float(np.fmax.reduce(dist, axis=None)))
        return worst

    def scan(lo: int, hi: int, m: int) -> PropertyReport | None:
        for number, e, f in _pair_chunks(lo, hi, m):
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
        return None

    worst = 0.0  # worst covering margin of the levels up to `measured`
    measured = 1  # level 1 has no covering pair with E nonempty
    proven = True
    # levels 1 and 2 (9 pairs) come as one; up to _SCANNED_LEVELS a scan
    # costs no more than a proof, and finds an early witness sooner
    for low, m in [(0, min(p, 2))] + [(m - 1, m) for m in range(3, p + 1)]:
        add_level(low, m)
        if proven and m > _SCANNED_LEVELS:
            worst = max([worst] + [covering_margin(k) for k in range(measured + 1, m + 1)])
            measured = m
            proven = m * worst * (1.0 + _PROOF_SLACK) <= tol_eff
            if proven:
                continue
        report = scan(3**low, 3**m, m)
        if report is not None:
            return report
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

    Exhaustive for spaces with at most `max_points` points. In the order
    of :func:`standard_pair_masks` the first 3^m pairs are those over the
    last m points T_m = {p-m, ..., p-1}, so the check goes level by level,
    m = 1..p, level m adding the pairs whose F holds point p-m. Each level
    eigen-decomposes its 2^(m-1) new subsets in one stacked call per
    subset size; only the spectra of the subsets of T_m are held, so a
    witness found at level m costs 2^m subsets however large p is. From
    level 5 on, while no earlier attempt failed, it takes the worst margin
    w over all covering pairs (F∖{i}, F) inside T_m: a pair E ⊆ F inside
    T_m differs by at most m points, so m·w <= tol (with a relative slack
    of 1e-12 for rounding) proves every pair up to level m by the triangle
    inequality. Otherwise the level's pairs are scanned exactly in
    enumeration order with :func:`first_excluded`, in vectorized blocks of
    bounded size, and so are all later levels; levels 1 to 4 are always
    scanned, as there a scan finds the early witnesses of most violators
    for less than a proof costs. The reported witness on failure is the
    first violating pair in enumeration order (the lexicographically
    minimal one), and `pairs_checked` counts the pairs decided: up to and
    including the witness, or all 3^p on a pass.

    Larger spaces fall back to the sampled mode, and the report carries
    exhaustive=False. Its pairs are those along the nested cell chain,
    then `samples` seeded random pairs E ⊆ F (per sample F's bits, then
    the bits kept in E). They are decided in blocks (see
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
