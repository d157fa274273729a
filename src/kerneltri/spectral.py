"""Eigenvalue reports, batched spectrum-inclusion scans and nonzero-spectrum
matching."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cycles import acyclic_suffix
from .errors import PreconditionError
from .operators import Operator

MAX_DENSE_SIZE = 512
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue multiset of an operator plus derived verdicts."""

    eigenvalues: tuple[complex, ...]
    radius: float
    quasinilpotent: bool
    tol: float
    scale: float

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "radius": self.radius,
            "quasinilpotent": self.quasinilpotent,
            "tol": self.tol,
            "scale": self.scale,
        }


def _sorted_eigs(values: np.ndarray) -> tuple[complex, ...]:
    order = np.lexsort((values.imag, values.real))
    return tuple(complex(z) for z in values[order])


def dense_eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of the square array `a`, with LAPACK's
    non-convergence reported as a PreconditionError."""
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK non-convergence
        raise PreconditionError(f"eigenvalue iteration did not converge: {exc}") from exc


def eigenvalues(K: Operator, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """Dense eigenvalue computation of the weighted action matrix.

    When the exactly nonzero off-diagonal entries form no cycle
    (:func:`acyclic_suffix` covers all points), K is triangular up to a
    permutation and its diagonal is read as its exact spectrum; otherwise
    LAPACK computes it.

    Quasinilpotent means every eigenvalue has modulus <= tol * scale,
    the honest finite-dimensional surrogate for spectral radius zero.
    """
    p = K.size
    if p > MAX_DENSE_SIZE:
        raise PreconditionError(f"operator size {p} exceeds dense limit {MAX_DENSE_SIZE}")
    scale = K.scale
    if p == 0:
        return SpectrumReport((), 0.0, True, tol, scale)
    if acyclic_suffix(K.entries) == p:
        vals = np.diagonal(K.entries)
    else:
        vals = dense_eigvals(K.entries)
    radius = float(np.abs(vals).max())
    return SpectrumReport(
        eigenvalues=_sorted_eigs(vals),
        radius=radius,
        quasinilpotent=radius <= tol * scale,
        tol=tol,
        scale=scale,
    )


def first_excluded(inner: np.ndarray, outer: np.ndarray, tol: float) -> int | None:
    """Flat index into `inner` of its first value, in row-major order,
    that lies farther than tol from every value of the matching row of
    `outer` (inner (..., a), outer (..., b), the same leading shape);
    None when there is none. NaN entries are padding: only the values of
    `inner` that exist are measured, so a padded one is never excluded,
    and a row of `outer` without values excludes every value of `inner`."""
    if inner.ndim != 2:  # one row per index of the leading shape
        n = math.prod(inner.shape[:-1])
        inner, outer = inner.reshape(n, inner.shape[-1]), outer.reshape(n, outer.shape[-1])
    valid = inner == inner
    rows, cols = valid.nonzero()  # the values, in row-major order
    dist = np.fmin.reduce(
        np.abs(inner[valid][:, None] - outer.take(rows, 0)), axis=1, initial=np.inf
    )
    bad = (dist > tol).nonzero()[0]
    if not bad.size:
        return None
    k = bad[0]
    return int(rows[k]) * inner.shape[1] + int(cols[k])


#: entries per vectorized block: a block of n subsets or pairs on p points
#: has n·p² <= BLOCK_ENTRIES, so its gathered compressions and its complex
#: distance table take about 1 MiB however many are decided (2^15 to 2^17
#: ran alike on the exhaustive scan at 9 to 11 points)
BLOCK_ENTRIES = 1 << 16


def block_size(p: int) -> int:
    """Most subsets or pairs on p points in one block (at least one)."""
    return max(1, BLOCK_ENTRIES // max(1, p * p))


def subset_spectra(entries: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of the compressions of the square matrix `entries` to the
    subsets whose rows in `members` (n × p, nonzero = in the subset) mark
    their points: returns (spectra, inverse), where row inverse[r] of
    spectra holds the eigenvalues of subset r, NaN-padded to the largest
    subset size (an empty subset gives a row of NaN). Equal rows share one
    eigen-decomposition, and each subset size takes one stacked eigvals
    call."""
    n, p = members.shape
    if p == 0:  # every subset is empty: no bytes to key the rows by
        return np.empty((1, 0), dtype=complex), np.zeros(n, dtype=np.intp)
    packed = np.packbits(members.astype(bool), axis=1)
    # one opaque key per row sorts several times faster than unique(axis=0)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(n)
    rows, inverse = np.unique(keys, return_inverse=True)
    bits = np.unpackbits(rows.view(np.uint8).reshape(rows.size, -1), axis=1, count=p).view(bool)
    sizes = bits.sum(axis=1)
    spectra = np.full((rows.shape[0], int(sizes.max(initial=0))), np.nan, dtype=complex)
    for s in np.unique(sizes[sizes > 0]).tolist():
        sel = np.flatnonzero(sizes == s)
        cols = np.nonzero(bits[sel])[1].reshape(-1, s)
        spectra[sel, :s] = np.linalg.eigvals(entries[cols[:, :, None], cols[:, None, :]])
    return spectra, inverse.reshape(-1)


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    unmatched_left: tuple[complex, ...] = field(default=())
    unmatched_right: tuple[complex, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.matched


def match_multisets(
    a: Sequence[complex], b: Sequence[complex], cutoff: float
) -> MatchResult:
    """Multiset comparison of two lists of complex values.

    The values are paired by an optimal assignment on |a_i - b_j|; the
    match holds iff both lists have equal length and every paired
    distance is <= cutoff. On failure the result carries the unpaired or
    badly paired values of each side.
    """
    a = np.array(a)
    b = np.array(b)
    if a.size != b.size:
        return MatchResult(False, tuple(map(complex, a)), tuple(map(complex, b)))
    if a.size == 0:
        return MatchResult(True)
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist)
    bad = dist[rows, cols] > cutoff
    if not bad.any():
        return MatchResult(True)
    return MatchResult(
        False,
        tuple(complex(z) for z in a[rows[bad]]),
        tuple(complex(z) for z in b[cols[bad]]),
    )


def nonzero_eigen_match(K1: Operator, K2: Operator, tol: float = DEFAULT_TOL) -> MatchResult:
    """Multiset comparison of the nonzero eigenvalues of two operators.

    Eigenvalues with |λ| > tol * scale are compared by
    :func:`match_multisets` with cutoff tol * scale, where
    scale = max(1, r(K1), r(K2)).
    """
    r1 = eigenvalues(K1, tol)
    r2 = eigenvalues(K2, tol)
    cutoff = tol * max(1.0, r1.radius, r2.radius)
    return match_multisets(
        [z for z in r1.eigenvalues if abs(z) > cutoff],
        [z for z in r2.eigenvalues if abs(z) > cutoff],
        cutoff,
    )
