"""Verification of the increasing-spectrum property and related diagnostics.

The property quantifies over all ordered pairs E ⊆ F of standard sets.
For p points that is 3^p pairs; up to `max_points` the check is exhaustive,
beyond that a clearly-labeled sampled mode is used (all pairs along the
nested cell chain plus seeded random pairs).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import PreconditionError
from .operators import Operator, compress
from .spaces import (
    DEFAULT_MAX_POINTS,
    MeasureSpace,
    StandardSet,
    _subsets_by_size,
    level_mask_indices,
    level_pair_table,
    mask_indices,
    nested_chain,
    pair_masks,
)
from .spectral import (
    DEFAULT_TOL,
    SpectrumReport,
    eigenvalues,
    first_excluded,
    inclusion_witness,
    nearest_distances,
    nonzero_eigen_match,
    spectrum_subset,
    MatchResult,
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


def _sampled_pairs(space: MeasureSpace, samples: int, seed: int) -> Iterator[tuple[int, int]]:
    """All pairs along the nested cell chain, then `samples` seeded random
    pairs E ⊆ F (per sample: F's bits, then the bits kept in E)."""
    if space.num_cells > 0:
        chain = nested_chain(space, space.num_cells)
        yield from itertools.combinations([s.mask for s in chain], 2)
    rng = np.random.default_rng(seed)
    p = space.size
    for _ in range(samples):
        f_bits = rng.integers(0, 2, size=p)
        e_bits = f_bits * rng.integers(0, 2, size=p)
        # Python ints: an int64 mask would overflow from 63 points on
        yield (
            sum(1 << i for i in np.flatnonzero(e_bits).tolist()),
            sum(1 << i for i in np.flatnonzero(f_bits).tolist()),
        )


#: complex entries per vectorized block of eigenvalue distances (512 KiB;
#: larger blocks were no faster at 9 to 11 points)
_CHUNK_ENTRIES = 1 << 15
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
    enumeration order and in blocks of at most _CHUNK_ENTRIES m×m
    distances: yields (number of the block's first pair, E level masks,
    F level masks)."""
    if (hi - lo) * m * m <= _CHUNK_ENTRIES:
        e, f = level_pair_table(m)
        yield lo, e[lo:hi], f[lo:hi]
        return
    k = 0
    while 3 ** (k + 1) * m * m <= _CHUNK_ENTRIES:
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
        step = max(1, _CHUNK_ENTRIES // spec.shape[1] ** 2)
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

    Larger spaces fall back to the sampled mode (pairs along the nested
    cell chain, then `samples` seeded random pairs, checked one by one)
    and the report carries exhaustive=False.
    """
    p = K.size
    if p <= max_points:
        return _exhaustive_check(K, tol)
    tol_eff = tol * K.scale

    @functools.cache
    def spectrum(mask: int) -> np.ndarray:
        idx = mask_indices(mask, p)
        # two takes cost a quarter of np.ix_ indexing on these small matrices
        return np.linalg.eigvals(K.entries.take(idx, 0).take(idx, 1))

    checked = 0
    for e_mask, f_mask in _sampled_pairs(K.space, samples, seed):
        checked += 1
        witness = inclusion_witness(spectrum(e_mask), spectrum(f_mask), tol_eff)
        if witness is not None:
            return PropertyReport(
                False,
                checked,
                False,
                tol,
                (mask_indices(e_mask, p), mask_indices(f_mask, p), witness),
            )
    return PropertyReport(True, checked, False, tol)


def radius_profile(K: Operator, chain: list[StandardSet]) -> list[float]:
    """Spectral radius of the compression along an increasing chain."""
    for a, b in zip(chain, chain[1:]):
        if not (a.issubset(b) and a.mask != b.mask):
            raise PreconditionError("chain is not strictly increasing")
    return [eigenvalues(compress(K, s)).radius for s in chain]


@dataclass(frozen=True)
class DichotomyReport:
    inclusion_holds: bool
    radius: float
    consistent: bool
    tol: float
    profile: tuple[float, ...]
    violations: tuple[tuple[int, complex], ...]

    def to_dict(self) -> dict:
        return {
            "inclusion_holds": self.inclusion_holds,
            "radius": self.radius,
            "consistent": self.consistent,
            "tol": self.tol,
            "profile": list(self.profile),
            "violations": [
                {"step": s, "eigenvalue": [z.real, z.imag]} for s, z in self.violations
            ],
        }


def quasinilpotence_dichotomy(
    K: Operator, chain: list[StandardSet], tol: float = DEFAULT_TOL
) -> DichotomyReport:
    """Either the chain compressions escape σ(K), or K is (numerically)
    quasinilpotent: spectrum inclusion along the chain together with a
    positive spectral radius would force uncountably many radius-profile
    values inside the finite set |σ(K)|."""
    if K.space.num_atoms > 0:
        raise PreconditionError("dichotomy is defined for cells-only spaces")
    tol_eff = tol * K.scale
    full = eigenvalues(K, tol)
    profile = []
    violations = []
    for step, s in enumerate(chain):
        rep = eigenvalues(compress(K, s), tol)
        profile.append(rep.radius)
        res = spectrum_subset(rep, full, tol_eff)
        if not res:
            violations.append((step, res.witness))
    inclusion = not violations
    consistent = (not inclusion) or full.radius <= tol_eff
    return DichotomyReport(
        inclusion_holds=inclusion,
        radius=full.radius,
        consistent=consistent,
        tol=tol,
        profile=tuple(profile),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class AtomicSplitReport:
    eigen_match: MatchResult
    cells_report: SpectrumReport | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "eigen_match": bool(self.eigen_match),
            "unmatched_full": [[z.real, z.imag] for z in self.eigen_match.unmatched_left],
            "unmatched_atoms": [[z.real, z.imag] for z in self.eigen_match.unmatched_right],
            "cells_quasinilpotent": (
                None if self.cells_report is None else self.cells_report.quasinilpotent
            ),
            "passed": self.passed,
        }


def atomic_vs_full_spectrum(K: Operator, tol: float = DEFAULT_TOL) -> AtomicSplitReport:
    """Check that (i) K and its atom compression share the nonzero
    eigenvalue multiset and (ii) the cell compression is quasinilpotent."""
    space = K.space
    atoms = StandardSet.from_indices(space, range(space.num_cells, space.size))
    cells = atoms.complement()
    match = nonzero_eigen_match(K, compress(K, atoms), tol)
    cells_report = None
    cells_ok = True
    if space.num_cells > 0:
        cells_report = eigenvalues(compress(K, cells), tol)
        cells_ok = cells_report.quasinilpotent
    return AtomicSplitReport(match, cells_report, bool(match) and cells_ok)
