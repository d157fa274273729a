"""Verification of the increasing-spectrum property and the radius profile.

The property quantifies over all ordered pairs E ⊆ F of standard sets.
For p points that is 3^p pairs; up to `max_points` the check is exhaustive,
beyond that it is decided from the exactly nonzero entries: an acyclic
support holds, and on a cyclic one a shortest cycle C gives the witness
({v}, C), confirmed by the eigenvalues of the compression to C.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cycles import SubsetCycles, acyclic_suffix
from .errors import DimensionMismatchError, PreconditionError
from .operators import Operator
from .spaces import (
    DEFAULT_MAX_POINTS,
    StandardSet,
    _subset_points,
    _subsets_by_size,
    level_mask_indices,
    level_pair_table,
)
from .spectral import (
    DEFAULT_TOL,
    MAX_DENSE_SIZE,
    dense_eigvals,
    exact_cycle_spectrum,
    first_excluded,
    nearest_distance,
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
    cycle, spectrum = exact_cycle_spectrum(K)
    diagonal = K.entries[cycle, cycle]
    tol_eff = tol * K.scale
    hit = first_excluded(diagonal, spectrum, tol_eff)  # each row of outer is the spectrum
    if hit is None:
        margin = nearest_distance(diagonal, spectrum).max()
        raise PreconditionError(
            f"the shortest cycle {cycle.tolist()} of the exact support has largest margin "
            f"{margin:.3e}, at or below tol * scale = {tol_eff:.3e}: the operator lies in "
            f"the tolerance band; max_points >= {p} decides it exhaustively"
        )
    witness = ((int(cycle[hit]),), tuple(cycle.tolist()), complex(diagonal[hit]))
    return PropertyReport(False, hit + 1, False, tol, witness)


#: entries per pair block: a block of n pairs on p points has n·p² <=
#: BLOCK_ENTRIES, so its gathered spectra and its complex distance table
#: take about 1 MiB however many are decided (2^15 to 2^17 ran alike on
#: the exhaustive scan at 9 to 11 points)
BLOCK_ENTRIES = 1 << 16


def block_size(p: int) -> int:
    """Most pairs on p points in one block (at least one)."""
    return max(1, BLOCK_ENTRIES // max(1, p * p))


@functools.cache
def _value_index(digits: int, start: int, above: int) -> tuple[np.ndarray, ...]:
    """The values of σ(E) over the pairs start .. 3^digits - 1 of
    level_pair_table(digits) when E holds `above` more points past those
    digits, in row-major order: per value the E and F level masks of its
    pair (low digits only), its pair's row (from start) and its column of
    σ(E), which holds |E| values in its first columns."""
    e, f = level_pair_table(digits)
    e, f = e[start:], f[start:]
    counts = ((e[:, None] >> np.arange(digits)) & 1).sum(axis=1) + above
    rows = np.repeat(np.arange(e.size), counts)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return e[rows], f[rows], rows, cols


@functools.cache
def _one_block(m: int) -> bool:
    """Whether the pairs of level m fit in one block."""
    return 3**m - 3 ** (m - 1) <= block_size(m)


def _pair_blocks(m: int, cyclic: np.ndarray):
    """The pairs of level m, numbers 3^(m-1) .. 3^m - 1, when they span
    several blocks: in enumeration order, 3^k pairs a block for the
    largest 3^k <= block_size(m), each one setting of the m - k high
    digits over level_pair_table(k). Yields, per block, the number of its
    first pair, the E and F level masks of its pairs and, for each value
    of σ(E) over its pairs in row-major order, the pair's row in the block
    and the value's column of σ(E), from the cached :func:`_value_index`
    of the low digits for the count of E's points among the high ones. A
    block whose largest F, the high F with every low point, is acyclic
    (`cyclic`, per level mask) holds only pairs with an acyclic F and is
    left out."""
    cap = block_size(m)
    k = 0
    while 3 ** (k + 1) <= cap:
        k += 1
    block, low_points = 3**k, (1 << k) - 1
    e, f = level_pair_table(k)
    e_highs, f_highs = (t.tolist() for t in level_pair_table(m - k))
    for high in range(3 ** (m - 1) // block, 3**m // block):
        e_high, f_high = e_highs[high] << k, f_highs[high] << k
        if cyclic[f_high | low_points]:
            rows, cols = _value_index(k, 0, e_high.bit_count())[2:]
            yield high * block, e | e_high, f | f_high, rows, cols


def _exhaustive_check(K: Operator, tol: float) -> PropertyReport:
    """The exhaustive path of :func:`check_increasing_spectrum`."""
    p = K.size
    entries = K.entries
    table = SubsetCycles(entries)
    if table.suffix == p:
        return PropertyReport(True, 3**p, True, tol)
    tol_eff = tol * K.scale
    diagonal = np.concatenate((entries.diagonal(), [np.nan]))  # NaN pads the columns
    # values per level mask of T_m, one column of m rows each, padded with
    # NaN (column 0 is the empty set): σ(S) of a cyclic S, and the diagonal
    # entries of an acyclic S, its exact spectrum. A σ(F) table gathered
    # from it is column-major, so first_excluded reduces each value's
    # distances along contiguous rows. On a level of several pair blocks,
    # far[F] holds the level bits of the points whose diagonal entries lie
    # farther than tol_eff from σ(F), for a cyclic F (0 for an acyclic one).
    # Both grow by one level at a time, so a witness found at level m costs
    # only the 2^m subsets of T_m.
    spec = np.empty((0, 1), dtype=complex)
    far = None

    def add_level(low: int, m: int, cyclic: np.ndarray, one_block: bool) -> None:
        nonlocal spec, far
        grown = diagonal[p - m :].take(_subset_points(m))
        grown[:low, : 1 << low] = spec
        if not one_block:
            far = np.zeros(1 << m, dtype=np.intp)  # F holds point p-m, so is new
        block = entries[p - m :, p - m :].ravel()  # T_m, row-major
        for s, lmasks, gather, bits in _subsets_by_size(low, m)[1:]:  # a singleton is acyclic
            keep = cyclic.take(lmasks)
            if np.count_nonzero(keep) < keep.size:
                keep = keep.nonzero()[0]
                lmasks, gather = lmasks.take(keep), gather.take(keep, 0)
                if not one_block:
                    bits = bits.take(keep, 0)
            if lmasks.size:
                mats = block.take(gather)
                values = dense_eigvals(mats)
                grown[:s, lmasks] = values.T
                if not one_block:  # the comparison of first_excluded
                    dist = nearest_distance(mats.diagonal(0, 1, 2), values[:, None, :])
                    far[lmasks] = ((dist > tol_eff) * bits).sum(axis=1)
        spec = grown

    def report(number: int, e_lmask: int, f_lmask: int, col: int) -> PropertyReport:
        """The report of the witness pair `number`, excluding value `col` of
        σ(E). An acyclic E is a singleton there: a point of E whose diagonal
        entry lies farther than tol_eff from σ(F) makes that point alone,
        with the same F, a violating pair that comes no later."""
        witness = (
            level_mask_indices(e_lmask, p),
            level_mask_indices(f_lmask, p),
            complex(spec[col, e_lmask]),
        )
        return PropertyReport(False, number + 1, True, tol, witness)

    # the pairs up to level `suffix` hold, so the scan starts one level later
    low = 0
    for m in range(table.suffix + 1, p + 1):
        cyclic = table.grow(m)
        one_block = _one_block(m)
        add_level(low, m, cyclic, one_block)
        low = m
        flat = spec.ravel()
        if one_block:  # every value, an acyclic F holding at distance 0
            ev, fv, rows, cols = _value_index(m, 3 ** (m - 1), 0)
            hit = first_excluded(flat.take(cols * (1 << m) + ev), spec.take(fv, 1).T, tol_eff)
            if hit is not None:
                number = 3 ** (m - 1) + int(rows[hit])
                return report(number, int(ev[hit]), int(fv[hit]), int(cols[hit]))
            continue
        for number, e, f, rows, cols in _pair_blocks(m, cyclic):
            # an acyclic F holds (far[F] = 0); a point v in E & far[F] makes
            # ({v}, F) fail, and that pair comes no later than (E, F), so
            # the first pair whose E meets far[F] is the first failure of an
            # acyclic E. Only a cyclic E before it is measured value by value.
            fails = (e & far.take(f)).astype(bool)
            stop = int(fails.argmax())
            if not fails[stop]:
                stop = e.size
            measured = cyclic.take(e)
            measured[stop:] = False
            if measured[int(measured.argmax())]:
                v = measured.take(rows).nonzero()[0]
                r, c = rows.take(v), cols.take(v)
                ev, fv = e.take(r), f.take(r)
                hit = first_excluded(flat.take(c * (1 << m) + ev), spec.take(fv, 1).T, tol_eff)
                if hit is not None:
                    return report(number + int(r[hit]), int(ev[hit]), int(fv[hit]), int(c[hit]))
            if stop < e.size:
                return report(number + stop, int(e[stop]), int(f[stop]), 0)
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

    A compression whose exactly nonzero off-diagonal entries form no cycle
    is triangular up to a permutation, so its spectrum is its diagonal:
    the exhaustive path reads that rule per subset from one
    :class:`SubsetCycles` table, and the structural path per operator from
    :func:`acyclic_suffix`.

    Exhaustive for spaces with at most `max_points` points. In the order
    of :func:`standard_pair_masks` the first 3^m pairs are those over the
    last m points T_m = {p-m, ..., p-1}, so level m (m = 1..p) adds the
    pairs whose F holds point p-m. The levels up to the table's acyclic
    suffix hold, all p of them on an acyclic support. Each later level
    grows the table to the subsets of T_m, eigen-decomposes its new cyclic
    subsets in one stacked :func:`dense_eigvals` call per subset size, and
    reads the diagonal of the acyclic ones as their spectra. It then
    decides its pairs exactly, in enumeration order. A level of one pair
    block gathers the values of σ(E) of all its pairs, by a cached
    structural value index, and the σ(F) row of each, and one
    :func:`first_excluded` call measures them; a pair with an acyclic F
    holds there at distance 0. On a level of several blocks of bounded
    size (:func:`_pair_blocks`), a block whose F are all acyclic is
    skipped, and each cyclic F carries far[F], the points of F whose
    diagonal entries lie farther than tol * K.scale from σ(F) (the
    comparison of :func:`first_excluded`): a pair with an acyclic F holds,
    one with an acyclic E holds iff E & far[F] == 0, and only the pairs
    whose E is cyclic too are measured value by value. Only the subsets of
    T_m are held, so a witness found at level m costs 2^m subsets however
    large p is. The reported witness on failure is the first violating
    pair in enumeration order (the lexicographically minimal one), and
    `pairs_checked` counts the pairs decided: up to and including the
    witness, or all 3^p on a pass. A witness with an acyclic E is a
    singleton ({v}, F), reported with a_vv, the value LAPACK returns for
    it (README "Tolerances" names the exceptions).

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
