"""Kernel operators in dense discretized form and finite-rank factored form.

An operator is given by its raw kernel samples k(x_i, x_j). One modulus
pass over them gives the structural-zero threshold and the support; the
weighted action matrix a[i][j] = k(x_i, x_j) * w_j is derived on first
read, so kernel identities and spectra are each read off the natural
representation, and the structural paths never form it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .spaces import MeasureSpace, StandardSet, build_space

#: relative threshold separating structural zeros from roundoff
ZERO_TOL = 1e-10
#: relative tolerance of the spectral and moment comparisons
DEFAULT_TOL = 1e-8


def magnitude(a: np.ndarray) -> float:
    """max(1, max|a|), and 1 for an empty array: the reference magnitude
    that relative tolerances are taken against."""
    return max(1.0, float(np.abs(a).max(initial=0.0)))


@dataclass(frozen=True)
class Operator:
    """Kernel samples k(x_i, x_j) on `space`. `zero_threshold` and
    `support` come from one modulus pass at construction; `entries` is
    derived from the kernel on first read."""

    space: MeasureSpace
    kernel_values: np.ndarray
    #: ZERO_TOL * magnitude(kernel_values): a kernel entry at most this
    #: large is a structural zero
    zero_threshold: float = field(init=False, repr=False, compare=False)
    #: read-only |kernel_values| > zero_threshold: the structural nonzeros,
    #: the one place a kernel entry meets the threshold
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.space.size
        kernel = self.kernel_values
        if kernel.shape != (p, p):
            raise DimensionMismatchError(f"kernel shape {kernel.shape} does not match {p} points")
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the scans below
            # NaN, an infinite part and a modulus beyond the float range all
            # make the largest modulus non-finite
            mag = np.abs(kernel)
            peak = float(mag.max(initial=0.0))
            if not math.isfinite(peak):
                raise _non_finite(kernel, "kernel values")
            # |k w| <= peak * max(w) up to rounding: only a bound near the
            # float limit (or a NaN weight) needs the entries, formed now,
            # and their own scan
            if not math.isfinite(2 * peak * self.space.weights.max(initial=0.0)):
                if not math.isfinite(np.abs(self.entries).max()):
                    raise _non_finite(self.entries, "operator entries")
        kernel.flags.writeable = False
        zero_threshold = ZERO_TOL * max(1.0, peak)
        support = mag > zero_threshold
        support.flags.writeable = False
        object.__setattr__(self, "zero_threshold", zero_threshold)
        object.__setattr__(self, "support", support)

    @property
    def size(self) -> int:
        return self.space.size

    @cached_property
    def entries(self) -> np.ndarray:
        """Read-only kernel_values * weights: the weighted action matrix,
        formed on first read."""
        entries = self.kernel_values * self.space.weights
        entries.flags.writeable = False
        return entries

    @cached_property
    def scale(self) -> float:
        """magnitude(entries); the spectral scale that eigenvalue
        tolerances are relative to."""
        return magnitude(self.entries)


def _non_finite(a: np.ndarray, name: str) -> PreconditionError:
    """The refusal of `a`, whose largest modulus is not finite."""
    if np.isfinite(a).all():
        return PreconditionError(f"{name} whose modulus overflows")
    return PreconditionError(f"non-finite {name}")


def kernel_operator(space: MeasureSpace, kernel: np.ndarray) -> Operator:
    """Operator from a p×p matrix of raw kernel samples."""
    return Operator(space, np.asarray(kernel, dtype=complex))


@dataclass(frozen=True)
class FiniteRankOperator:
    """Kernel k(x,y) = sum_i f_i(x) g_i(y), with f_i/g_i sampled at the
    points as the columns of F and G."""

    space: MeasureSpace
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        p = self.space.size
        if self.F.ndim != 2 or self.G.ndim != 2:
            raise DimensionMismatchError("factors must be 2-d arrays")
        if self.F.shape[0] != p or self.G.shape[0] != p:
            raise DimensionMismatchError("factor rows != space size")
        if self.F.shape[1] != self.G.shape[1]:
            raise DimensionMismatchError("factor count mismatch between F and G")
        if not (np.all(np.isfinite(self.F)) and np.all(np.isfinite(self.G))):
            raise PreconditionError("non-finite factor entries")  # before the SVD fails
        n = self.F.shape[1]
        if n > 0:
            if np.linalg.matrix_rank(self.F) < n or np.linalg.matrix_rank(self.G) < n:
                raise PreconditionError("factor columns are not linearly independent")
        self.F.flags.writeable = False
        self.G.flags.writeable = False

    @property
    def rank(self) -> int:
        return self.F.shape[1]

    def kernel_matrix(self) -> np.ndarray:
        """F @ G.T; raises PreconditionError when finite factors overflow
        in the product."""
        return densify(self).kernel_values


def densify(K: Operator | FiniteRankOperator) -> Operator:
    """K itself when it is dense; otherwise the dense operator with
    kernel_values[i][j] = sum_t F[i,t] G[j,t]."""
    if isinstance(K, Operator):
        return K
    with np.errstate(over="ignore", invalid="ignore"):  # Operator reports the overflow
        kernel = K.F @ K.G.T
    return Operator(K.space, np.asarray(kernel, dtype=complex))


def numerical_rank(K: Operator) -> int:
    """Rank of the raw kernel matrix: singular values > ZERO_TOL * sigma_max."""
    s = np.linalg.svd(K.kernel_values, compute_uv=False)
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > ZERO_TOL * s[0]))


def compress(K: Operator, E: StandardSet) -> Operator:
    """Standard compression: the operator restricted to the points of E."""
    if E.space != K.space:
        raise DimensionMismatchError("standard set over a different space")
    idx = list(E.indices())
    return Operator(K.space.restrict(idx), K.kernel_values[np.ix_(idx, idx)])


def modulus(K: Operator) -> Operator:
    """Entrywise absolute value of the kernel; weights untouched."""
    return kernel_operator(K.space, np.abs(K.kernel_values).astype(complex))


def trace(K: Operator) -> complex:
    """Sum of the weighted diagonal: sum_i k(x_i,x_i) w_i = sum_i a[i][i]."""
    return complex(np.trace(K.entries))


def trace_power(K: Operator, n: int) -> complex:
    """tr(K^n) by repeated multiplication of the weighted entries."""
    if n < 1:
        raise PreconditionError("power must be >= 1")
    return complex(np.trace(np.linalg.matrix_power(K.entries, n)))


# --- named built-in operators -------------------------------------------

def sharpness_example(n: int) -> Operator:
    """Rank-n upper triangular 0/1 operator on 2n+1 atoms whose block
    triangularization needs the full 2n+1 diagonal blocks."""
    return densify(sharpness_example_factors(n))


def sharpness_example_factors(n: int) -> FiniteRankOperator:
    if n < 1:
        raise PreconditionError("n must be >= 1")
    p = 2 * n + 1
    space = build_space(0, range(2, p + 2))
    F = np.zeros((p, n), dtype=complex)
    G = np.zeros((p, n), dtype=complex)
    for j in range(1, n + 1):
        F[2 * j - 2, j - 1] = 1.0
        F[2 * j - 1, j - 1] = 1.0
        G[2 * j - 1 : p, j - 1] = 1.0
    return FiniteRankOperator(space=space, F=F, G=G)


def volterra_linear(num_cells: int) -> Operator:
    """Discretization of the kernel k(x,y) = max(x - y, 0) on the grid,
    sampled at the midpoints in one array operation."""
    space = build_space(num_cells)
    x = np.array(space.midpoints)
    return kernel_operator(space, np.maximum(x[:, None] - x[None, :], 0.0))


def ones_kernel(num_cells: int) -> Operator:
    """Discretization of the rank-one kernel k ≡ 1 on the grid."""
    space = build_space(num_cells)
    return kernel_operator(space, np.ones((num_cells, num_cells), dtype=complex))
