"""Eigenvalue reports, batched spectrum-inclusion scans and nonzero-spectrum
matching."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .cycles import SupportDigraph, acyclic_suffix, shortest_cycle
from .errors import PreconditionError
from .operators import DEFAULT_TOL, Operator

MAX_DENSE_SIZE = 512


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


def _not_converged(err: str, flag: int) -> None:
    raise PreconditionError("eigenvalue iteration did not converge")


def dense_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the complex square matrices stacked in `a` (..., n, n),
    bit for bit those of np.linalg.eigvals(a), with LAPACK's
    non-convergence reported as a PreconditionError.

    This calls the LAPACK gufunc that np.linalg.eigvals wraps (zgeev, in
    numpy.linalg._umath_linalg from NumPy 1.24 through 2.x) under the
    wrapper's floating-point error state, and skips the wrapper's checks,
    about half the cost of a small call. Precondition, in place of the
    wrapper's finiteness scan: `a` is complex and finite. Every caller
    decomposes compressions of K.entries, which Operator.__post_init__ has
    proved finite (by the bound peak * max(w), or by their own scan); a
    NaN would reach LAPACK, which prints XERBLA lines on stderr.
    """
    with np.errstate(
        call=_not_converged, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        return _umath_linalg.eigvals(a, signature="D->D")


def exact_cycle_spectrum(K: Operator) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`shortest_cycle` C of the exact support of K (the arcs
    K.entries != 0), its points ascending, and the eigenvalues of the
    compression to C; the exact support must have a cycle."""
    cycle = np.sort(shortest_cycle(SupportDigraph(0.0, K.entries != 0)))
    return cycle, dense_eigvals(K.entries[cycle[:, None], cycle])


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


def first_excluded(values: np.ndarray, outer: np.ndarray, tol: float) -> int | None:
    """Index of the first of the `values` (n,) that lies farther than tol
    from every value of its own row of `outer` (n, b); None when there is
    none. NaN entries of `outer` are padding, so a row without values
    excludes its value; `values` holds values only."""
    dist = np.fmin.reduce(np.abs(values[:, None] - outer), axis=1, initial=np.inf)
    bad = (dist > tol).nonzero()[0]
    return int(bad[0]) if bad.size else None


def match_multisets(a: Sequence[complex], b: Sequence[complex], cutoff: float) -> bool:
    """Multiset comparison of two lists of complex values: the match holds
    iff both lists have equal length and some pairing keeps every distance
    |a_i - b_j| <= cutoff.

    That pairing is a perfect matching on the near pairs, which augmenting
    paths find (Kuhn's algorithm): each a_i in turn takes a free near b_j
    or, failing that, a near b_j whose partner can move to another one,
    recursively; once some a_i finds neither, no pairing exists. A min-sum
    assignment on the distances need not find it.
    """
    a = np.array(a)
    b = np.array(b)
    if a.size != b.size:
        return False
    near = [row.nonzero()[0].tolist() for row in np.abs(a[:, None] - b[None, :]) <= cutoff]
    partner = [-1] * b.size  # partner[j]: the index of the a paired with b_j

    def augment(i: int, seen: set[int]) -> bool:
        for j in near[i]:
            if partner[j] < 0:
                partner[j] = i
                return True
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if augment(partner[j], seen):
                    partner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(a.size))


def nonzero_eigen_match(K1: Operator, K2: Operator, tol: float = DEFAULT_TOL) -> bool:
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
