"""Support digraph, non-degenerate cycles and the moment-matrix
identities of finite-rank kernels."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import PreconditionError
from .operators import FiniteRankOperator, Operator, ZERO_TOL, magnitude
from .spaces import StandardSet


@dataclass(frozen=True)
class SupportDigraph:
    """Arc i -> j iff |k(x_i, x_j)| > threshold."""

    size: int
    threshold: float
    successors: tuple[tuple[int, ...], ...]


def support_digraph(K: Operator, threshold: float | None = None) -> SupportDigraph:
    """Support digraph at `threshold`, by default K.zero_threshold."""
    if threshold is None:
        threshold = K.zero_threshold
    mask = np.abs(K.kernel_values) > threshold
    succ = tuple(tuple(np.nonzero(row)[0].tolist()) for row in mask)
    return SupportDigraph(size=K.size, threshold=threshold, successors=succ)


def find_nondegenerate_cycle(
    K: Operator, threshold: float | None = None
) -> tuple[int, ...] | None:
    """:func:`shortest_cycle` of the support digraph at `threshold`
    (by default K.zero_threshold)."""
    return shortest_cycle(support_digraph(K, threshold))


def shortest_cycle(dg: SupportDigraph) -> tuple[int, ...] | None:
    """Shortest vertex-distinct cycle (length >= 2) in the off-diagonal
    support digraph; ties broken lexicographically. None if the support
    is acyclic apart from loops.

    Every cycle lies inside one strongly connected component, so the
    breadth-first searches start only from the points of the components
    of 2 or more points, and none run when there is no such component.
    """
    p = dg.size
    succ = [tuple(j for j in dg.successors[i] if j != i) for i in range(p)]
    counts = [len(s) for s in succ]
    tails = np.repeat(np.arange(p), counts)
    heads = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.intp, count=tails.size)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    arcs = csr_array((np.ones(heads.size), heads, indptr), shape=(p, p))
    _, comp = connected_components(arcs, connection="strong")
    inside = comp[tails] == comp[heads]  # the arcs that lie on some cycle
    if not inside.any():
        return None
    tails, heads = tails[inside], heads[inside]

    # the points on some cycle, ascending, and local[v] = v's rank among
    # them; dist[local[s], v]: arc count of the shortest path s -> v
    points = np.flatnonzero(np.bincount(comp)[comp] > 1)
    local = np.full(p, -1)
    local[points] = np.arange(points.size)
    dist = shortest_path(arcs, unweighted=True, indices=points)

    # each arc u -> v closes a cycle through the shortest path v -> u
    back = dist[local[heads], tails]
    closing = back.min()
    girth = int(closing) + 1

    # Walk from the smallest point on a shortest cycle, each step to the
    # smallest successor k arcs short of the start. No successor is nearer:
    # that would close a walk, and so a cycle, shorter than the girth; and a
    # repeated point would split off a shorter cycle too. So the walk is the
    # lexicographically smallest shortest cycle and never backtracks.
    start = int(tails[back == closing].min())
    cycle = [start]
    for k in range(girth - 1, 0, -1):
        cycle.append(
            next(v for v in succ[cycle[-1]] if local[v] >= 0 and dist[local[v], start] == k)
        )
    return tuple(cycle)


def moment_matrix(
    kfr: FiniteRankOperator, E: StandardSet, tol: float = 1e-8
) -> np.ndarray:
    """M(E) = sum_{x in E} G(x) F(x)^t w(x), an n×n array for a rank-n
    factored kernel. Requires the densified kernel diagonal to vanish on E."""
    if E.space != kfr.space:
        raise PreconditionError("standard set over a different space")
    kernel = kfr.kernel_matrix()
    scale = magnitude(kernel)
    idx = list(E.indices())
    diag = np.abs(np.diag(kernel)[idx]) if idx else np.empty(0)
    if diag.size and diag.max() > tol * scale:
        bad = idx[int(diag.argmax())]
        raise PreconditionError(
            f"kernel diagonal does not vanish on the set: |k(x,x)| = "
            f"{diag.max():.3e} at point {bad}"
        )
    w = kfr.space.weights
    n = kfr.rank
    m = np.zeros((n, n), dtype=complex)
    for i in idx:
        m += np.outer(kfr.G[i], kfr.F[i]) * w[i]
    return m


@dataclass(frozen=True)
class MomentResidualReport:
    square_residuals: tuple[float, ...]
    cross_residuals: tuple[tuple[int, int, float], ...]
    max_residual: float
    tol: float
    scale: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "square_residuals": list(self.square_residuals),
            "cross_residuals": [
                {"i": i, "j": j, "residual": r} for i, j, r in self.cross_residuals
            ],
            "max_residual": self.max_residual,
            "tol": self.tol,
            "scale": self.scale,
            "passed": self.passed,
        }


def moment_identities(
    kfr: FiniteRankOperator, sets: list[StandardSet], tol: float = 1e-9
) -> MomentResidualReport:
    """Residuals |tr(M(E)^2)| per set and |tr(M(E) M(F))| per pair; for
    operators with nilpotent standard compressions all must vanish."""
    union = 0
    for s in sets:
        if union & s.mask:
            raise PreconditionError("sets must be pairwise disjoint")
        union |= s.mask
    scale = magnitude(kfr.kernel_matrix())
    moments = [moment_matrix(kfr, s, tol=max(tol, ZERO_TOL)) for s in sets]
    squares = tuple(float(abs(np.trace(m @ m))) for m in moments)
    crosses = []
    for i in range(len(moments)):
        for j in range(i + 1, len(moments)):
            r = float(abs(np.trace(moments[i] @ moments[j])))
            crosses.append((i, j, r))
    residuals = list(squares) + [r for _, _, r in crosses]
    max_res = max(residuals, default=0.0)
    return MomentResidualReport(
        square_residuals=squares,
        cross_residuals=tuple(crosses),
        max_residual=max_res,
        tol=tol,
        scale=scale,
        passed=max_res <= tol * scale,
    )
