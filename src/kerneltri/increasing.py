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
    mask_indices,
    nested_chain,
    standard_pair_masks,
)
from .spectral import (
    DEFAULT_TOL,
    SpectrumReport,
    eigenvalues,
    inclusion_witness,
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


def check_increasing_spectrum(
    K: Operator,
    tol: float = DEFAULT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> PropertyReport:
    """Decide σ(P_E K P_E) ⊆ σ(P_F K P_F) for all pairs E ⊆ F.

    Exhaustive for spaces with at most `max_points` points; the reported
    witness on failure is the first violating pair in enumeration order
    (the lexicographically minimal one). Larger spaces fall back to the
    sampled mode and the report carries exhaustive=False.
    """
    p = K.size
    tol_eff = tol * K.scale
    exhaustive = p <= max_points
    pairs = standard_pair_masks(p) if exhaustive else _sampled_pairs(K.space, samples, seed)

    @functools.cache
    def spectrum(mask: int) -> np.ndarray:
        idx = mask_indices(mask, p)
        # two takes cost a quarter of np.ix_ indexing on these small matrices
        return np.linalg.eigvals(K.entries.take(idx, 0).take(idx, 1))

    checked = 0
    for e_mask, f_mask in pairs:
        checked += 1
        witness = inclusion_witness(spectrum(e_mask), spectrum(f_mask), tol_eff)
        if witness is not None:
            return PropertyReport(
                False,
                checked,
                exhaustive,
                tol,
                (mask_indices(e_mask, p), mask_indices(f_mask, p), witness),
            )
    return PropertyReport(True, checked, exhaustive, tol)


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
