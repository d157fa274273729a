"""Support digraph, non-degenerate cycles and the moment-matrix
identities of finite-rank kernels."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import PreconditionError
from .operators import FiniteRankOperator, Operator, ZERO_TOL, densify, magnitude
from .spaces import StandardSet


@dataclass(frozen=True, eq=False)
class SupportDigraph:
    """Arc i -> j iff |k(x_i, x_j)| > threshold, i.e. iff arcs[i, j] (read-only)."""

    threshold: float
    arcs: np.ndarray

    @property
    def size(self) -> int:
        return self.arcs.shape[0]

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """The heads of the arcs out of each point, ascending."""
        return tuple(tuple(row.nonzero()[0].tolist()) for row in self.arcs)


def support_digraph(K: Operator, threshold: float | None = None) -> SupportDigraph:
    """Support digraph at `threshold`; by default K.zero_threshold, with arcs K.support."""
    if threshold is None:
        return SupportDigraph(K.zero_threshold, K.support)
    arcs = np.abs(K.kernel_values) > threshold
    arcs.flags.writeable = False
    return SupportDigraph(threshold, arcs)


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
    arcs = dg.arcs.copy()
    np.fill_diagonal(arcs, False)  # a loop is no cycle
    tails, heads = np.divmod(np.flatnonzero(arcs), p)
    indptr = np.concatenate(([0], np.cumsum(arcs.sum(axis=1))))
    graph = csr_array((np.ones(heads.size), heads, indptr), shape=(p, p))
    _, comp = connected_components(graph, connection="strong")
    inside = comp[tails] == comp[heads]  # the arcs that lie on some cycle
    if not inside.any():
        return None
    tails, heads = tails[inside], heads[inside]

    # the points on some cycle, ascending, and local[v] = v's rank among
    # them; dist[local[s], v]: arc count of the shortest path s -> v
    points = np.flatnonzero(np.bincount(comp)[comp] > 1)
    local = np.full(p, -1)
    local[points] = np.arange(points.size)
    dist = shortest_path(graph, unweighted=True, indices=points)

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
        nxt = np.flatnonzero(arcs[cycle[-1]] & (local >= 0))
        cycle.append(int(nxt[dist[local[nxt], start] == k][0]))
    return tuple(cycle)


def acyclic_suffix(entries: np.ndarray) -> int:
    """Largest m such that the exactly nonzero off-diagonal entries of the
    square array `entries` among its last m points form no cycle.

    Warshall's closure takes the points as pivots from the last one down:
    once p-1 .. v+1 are taken, reach[i, j] says that some path i -> j
    runs through those points only, so point v closes a cycle with them
    exactly when reach[v, v] holds.
    """
    p = entries.shape[0]
    reach = entries != 0
    np.fill_diagonal(reach, False)
    for m, v in enumerate(range(p - 1, -1, -1)):
        if reach[v, v]:
            return m
        reach |= reach[:, v, None] & reach[v]
    return p


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
    """Residuals |tr(M(E)^2)| per set and |tr(M(E) M(F))| per pair, where
    M(E) = sum_{x in E} G(x) F(x)^t w(x); for operators with nilpotent
    standard compressions all must vanish. The densified kernel diagonal
    must vanish on every set.

    tr(M(E) M(F)) = sum_{x in E, y in F} a[x,y] a[y,x] over the weighted
    entries a, so every residual is read off the one product
    S^t (a ⊙ a^t) S, where column c of S is the 0/1 membership of set c.
    """
    union = 0
    for s in sets:
        if union & s.mask:
            raise PreconditionError("sets must be pairwise disjoint")
        union |= s.mask
    if any(s.space != kfr.space for s in sets):
        raise PreconditionError("standard set over a different space")
    K = densify(kfr)
    scale = magnitude(K.kernel_values)
    members = np.zeros((K.size, len(sets)), dtype=bool)
    for c, s in enumerate(sets):
        members[list(s.indices()), c] = True
    # |k(x,x)| of the members of each set, 0 elsewhere
    diag = np.where(members, np.abs(np.diagonal(K.kernel_values))[:, None], 0.0)
    bad = np.flatnonzero(diag.max(axis=0, initial=0.0) > max(tol, ZERO_TOL) * scale)
    if bad.size:
        point = int(diag[:, bad[0]].argmax())
        raise PreconditionError(
            f"kernel diagonal does not vanish on the set: |k(x,x)| = "
            f"{diag[point, bad[0]]:.3e} at point {point}"
        )
    a = K.entries
    rows, cols = np.triu_indices(len(sets))
    residuals = np.abs(members.T @ (a * a.T) @ members)[rows, cols]
    cross = rows != cols
    squares = tuple(residuals[~cross].tolist())
    crosses = tuple(zip(rows[cross].tolist(), cols[cross].tolist(), residuals[cross].tolist()))
    max_res = float(residuals.max(initial=0.0))
    return MomentResidualReport(
        square_residuals=squares,
        cross_residuals=crosses,
        max_residual=max_res,
        tol=tol,
        scale=scale,
        passed=max_res <= tol * scale,
    )
