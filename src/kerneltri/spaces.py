"""Finite measure spaces: a uniform grid on [0,1] plus unit-mass atoms.

Points are indexed 0..p-1 with all grid cells first (ascending midpoint)
and all atoms after them (in the order their ids were given). A standard
set is a bitmask over these indices: bit i stands for point i.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import SpaceError

#: largest space whose 3^p standard pairs are enumerated exhaustively
DEFAULT_MAX_POINTS = 12


@dataclass(frozen=True)
class MeasureSpace:
    """Grid cells with midpoints/weights plus unit-weight atoms."""

    midpoints: tuple[float, ...]
    cell_weights: tuple[float, ...]
    atom_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.midpoints) != len(self.cell_weights):
            raise SpaceError("midpoints and cell weights differ in length")
        weights = self.cell_weights
        # with no NaN among the weights, min is their least one
        if not all(map(math.isfinite, weights)) or min(weights, default=1.0) <= 0:
            raise SpaceError("cell weights must be finite and positive")
        if not all(map(math.isfinite, self.midpoints)):
            raise SpaceError("cell midpoints must be finite")
        if any(a >= b for a, b in zip(self.midpoints, self.midpoints[1:])):
            raise SpaceError("cell midpoints must be strictly increasing")
        if len(set(self.atom_ids)) != len(self.atom_ids):
            raise SpaceError("duplicate atom id")

    @property
    def num_cells(self) -> int:
        return len(self.midpoints)

    @property
    def num_atoms(self) -> int:
        return len(self.atom_ids)

    @property
    def size(self) -> int:
        return self.num_cells + self.num_atoms

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weight per point (atoms weigh 1); read-only."""
        weights = np.array(list(self.cell_weights) + [1.0] * self.num_atoms)
        weights.flags.writeable = False
        return weights

    def is_atom(self, index: int) -> bool:
        return index >= self.num_cells

    def restrict(self, indices: Sequence[int]) -> "MeasureSpace":
        """Sub-space on the given point indices (ascending).

        Weights are kept as-is; the unit-mass normalization only applies
        to spaces produced by :func:`build_space`.
        """
        idx = sorted(indices)
        if len(set(idx)) != len(idx):
            raise SpaceError("repeated index in restriction")
        cells = [i for i in idx if i < self.num_cells]
        atoms = [i for i in idx if i >= self.num_cells]
        return MeasureSpace(
            midpoints=tuple(self.midpoints[i] for i in cells),
            cell_weights=tuple(self.cell_weights[i] for i in cells),
            atom_ids=tuple(self.atom_ids[i - self.num_cells] for i in atoms),
        )


def build_space(num_cells: int, atom_ids: Iterable[int] = ()) -> MeasureSpace:
    """Uniform midpoint-rule grid on [0,1] with `num_cells` cells, plus atoms.

    Cell weights are 1/num_cells (so the continuous mass is 1); each atom
    has mass 1.
    """
    if num_cells < 0:
        raise SpaceError("num_cells must be nonnegative")
    ids = tuple(atom_ids)
    if num_cells + len(ids) < 1:
        raise SpaceError("empty space")
    mids = tuple((i + 0.5) / num_cells for i in range(num_cells))
    weights = tuple(1.0 / num_cells for _ in range(num_cells))
    return MeasureSpace(midpoints=mids, cell_weights=weights, atom_ids=ids)


def mask_indices(mask: int, p: int) -> tuple[int, ...]:
    """Ascending indices of the points 0..p-1 whose bit is set in `mask`."""
    return tuple(i for i in range(p) if mask >> i & 1)


@dataclass(frozen=True)
class StandardSet:
    """A union of whole points of a MeasureSpace (a measurable set in the
    finite model); indexes a standard projection.

    `mask` is a bitmask over the point indices: bit i is set iff point i
    (cells first, then atoms) belongs to the set.
    """

    space: MeasureSpace
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < 1 << self.space.size:
            raise SpaceError("mask out of range for the space size")

    @classmethod
    def full(cls, space: MeasureSpace) -> "StandardSet":
        return cls(space, (1 << space.size) - 1)

    @classmethod
    def from_indices(cls, space: MeasureSpace, indices: Iterable[int]) -> "StandardSet":
        mask = 0
        for i in indices:
            if not 0 <= i < space.size:
                raise SpaceError(f"point index {i} out of range")
            # a Python int, so a NumPy index cannot make the mask fixed-width
            mask |= 1 << operator.index(i)
        return cls(space, mask)

    def indices(self) -> tuple[int, ...]:
        return mask_indices(self.mask, self.space.size)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def issubset(self, other: "StandardSet") -> bool:
        if self.space != other.space:
            raise SpaceError("standard sets over different spaces")
        return self.mask & ~other.mask == 0

    def complement(self) -> "StandardSet":
        return StandardSet(self.space, self.mask ^ ((1 << self.space.size) - 1))


def pair_masks(n: int, bits: Sequence[int]) -> tuple[int, int]:
    """Masks (E, F) of pair number n of the pair enumeration: ternary
    digit j of n, least significant first, is the state (out, F-only,
    both) of the point whose bit is bits[j]."""
    e = f = 0
    for bit in bits:
        if not n:
            break
        n, state = divmod(n, 3)
        if state:
            f |= bit
            if state == 2:
                e |= bit
    return e, f


def standard_pair_masks(p: int) -> Iterator[tuple[int, int]]:
    """Yield the masks (E, F) of all 3^p pairs of standard sets E ⊆ F
    over p points.

    Order is lexicographic in the per-point state vector, point 0 first,
    with states ordered (out, F-only, both): the last point is the least
    significant ternary digit of the pair number.
    """
    bits = [1 << i for i in range(p - 1, -1, -1)]
    for n in range(3**p):
        yield pair_masks(n, bits)


# Level masks number the points from the end: bit j stands for point p-1-j,
# whatever p is. The first 3^m pairs of standard_pair_masks(p) are then the
# pairs over the last m points T_m, and their level masks lie below 2^m.


@functools.cache
def level_pair_table(digits: int) -> tuple[np.ndarray, np.ndarray]:
    """Level masks (E, F) of pairs 0 .. 3^digits - 1, as two arrays."""
    bits = [1 << j for j in range(digits)]
    e, f = zip(*(pair_masks(n, bits) for n in range(3**digits)))
    return np.array(e, dtype=np.intp), np.array(f, dtype=np.intp)


@functools.cache
def _subsets_by_size(low: int, m: int) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The nonempty subsets of T_m with level masks in [2^low, 2^m),
    grouped by size s as (s, level masks, gather, bits): gather[r] (s × s)
    holds the flat indices, into the m × m block of T_m, of the
    compression to the r-th subset, its points ascending, and bits[r] (s)
    the level bits of those points."""
    lmasks = np.arange(max(1, 1 << low), 1 << m)
    bits = (lmasks[:, None] >> np.arange(m)) & 1
    sizes = bits.sum(axis=1)
    groups = []
    for s in range(1, m + 1):
        cols = np.nonzero(bits[sizes == s, ::-1])[1].reshape(-1, s)
        gather = cols[:, :, None] * m + cols[:, None, :]
        groups.append((s, lmasks[sizes == s], gather, 1 << (m - 1 - cols)))
    return groups


@functools.cache
def _subset_points(m: int) -> np.ndarray:
    """Per level mask below 2^m, one column of m rows: the positions in
    T_m of the subset's points ascending, padded with m."""
    held = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1  # by position
    return np.sort(np.where(held == 1, np.arange(m), m), axis=1).T


def level_mask_indices(lmask: int, p: int) -> tuple[int, ...]:
    """Ascending indices of the points 0..p-1 in the level mask `lmask`."""
    points = []
    while lmask:
        top = lmask.bit_length() - 1  # the highest bit left is the smallest point
        points.append(p - 1 - top)
        lmask ^= 1 << top
    return tuple(points)


def nested_chain(space: MeasureSpace, steps: int) -> list[StandardSet]:
    """Increasing chain ∅ = E_0 ⊂ … ⊂ E_steps of cell sets, where E_s
    holds the cells with midpoint ≤ s/steps. Atoms are never included."""
    if steps < 1:
        raise SpaceError("steps must be >= 1")
    if space.num_cells == 0:
        raise SpaceError("nested_chain requires at least one cell")
    mids = space.midpoints
    chain: list[StandardSet] = []
    s = 0
    while True:
        # cells come first with ascending midpoints, so E_s is a prefix mask
        count = bisect.bisect_right(mids, s / steps)
        chain.append(StandardSet(space, (1 << count) - 1))
        if count == len(mids) or not mids[count] <= 1.0:
            return chain
        # steps finer than the grid repeat a set: bisect for the first step
        # whose s / steps reaches the next midpoint, so the chain stays
        # strictly increasing at log2(steps) divisions per set
        lo, hi = s + 1, steps
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if mid / steps >= mids[count] else (mid + 1, hi)
        s = lo
