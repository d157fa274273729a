"""Support digraph, non-degenerate cycles and the moment-matrix
identities of finite-rank kernels."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import PreconditionError
from .operators import DEFAULT_TOL, FiniteRankOperator, Operator, ZERO_TOL, densify, magnitude
from .spaces import StandardSet

if TYPE_CHECKING:
    from scipy.sparse import csr_array


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


#: Operators of more points than this label their strongly connected
#: components with one csgraph call (see :func:`scc_blocks` and
#: :func:`acyclic_suffix`); at or below it the Python loops are faster.
#: Timed one call at a time on a triangular support, the paths cross at
#: about 40 points for scc_blocks, and for acyclic_suffix at about 24
#: points when the arcs run to larger points and 128 when to smaller ones.
_CSGRAPH_CUTOFF = 40


def _strong_components(arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray, csr_array, np.ndarray]:
    """Tails and heads of the arcs of the square boolean array `arcs`, in
    row-major order, their sparse graph (built from `indptr`, which is
    cheaper than from the pairs) and each point's strongly connected
    component label.

    scipy.sparse is imported here, not with the module: it takes most of
    the package's import time, and only this function and
    :func:`shortest_cycle` use it.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    p = arcs.shape[0]
    points = np.arange(p)
    counts = arcs.sum(axis=1)
    tails = np.repeat(points, counts)
    heads = np.broadcast_to(points, arcs.shape)[arcs]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    graph = csr_array((np.ones(heads.size), heads, indptr), shape=(p, p))
    _, comp = connected_components(graph, connection="strong")
    return tails, heads, graph, comp


def shortest_cycle(dg: SupportDigraph) -> tuple[int, ...] | None:
    """Shortest vertex-distinct cycle (length >= 2) in the off-diagonal
    support digraph; ties broken lexicographically. None if the support
    is acyclic apart from loops.

    Every cycle lies inside one strongly connected component, so the
    breadth-first searches start only from the points of the components
    of 2 or more points, and none run when there is no such component.
    """
    from scipy.sparse.csgraph import shortest_path

    p = dg.size
    tails, heads, graph, comp = _strong_components(dg.arcs)  # a loop changes no label
    inside = (comp[tails] == comp[heads]) & (tails != heads)  # the arcs on some cycle
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
        nxt = np.flatnonzero(dg.arcs[cycle[-1]] & (local >= 0))
        cycle.append(int(nxt[dist[local[nxt], start] == k][0]))
    return tuple(cycle)


def scc_blocks(dg: SupportDigraph) -> tuple[tuple[int, ...], ...]:
    """The strongly connected components of the support digraph, each
    ascending, in the topological order of the condensation that breaks
    ties by the smallest point (Kahn's algorithm on a min-heap).

    Both sides of _CSGRAPH_CUTOFF follow one rule: each component is
    labelled by its smallest point, its in-degree counts the arcs into it
    from other components with multiplicity, and the heap pops labels.
    Up to the cutoff :func:`_python_scc_blocks` does this in Python over
    `successors`; above it one csgraph call labels the components, and
    each popped component takes its out-arcs off the in-degrees in one
    NumPy update.
    """
    p = dg.size
    if p <= _CSGRAPH_CUTOFF:
        return _python_scc_blocks(dg.successors)
    tails, heads, graph, comp = _strong_components(dg.arcs)
    _, first = np.unique(comp, return_index=True)
    label = first[comp]  # the smallest point of each point's component
    members = np.argsort(label, kind="stable")  # by label, then point
    starts = np.searchsorted(label[members], np.arange(p + 1)).tolist()
    indptr = graph.indptr.tolist()
    target = label[heads]
    indeg = np.bincount(target[label[tails] != target], minlength=p)
    heap = np.flatnonzero((label == np.arange(p)) & (indeg == 0)).tolist()
    blocks = []
    while heap:
        c = heapq.heappop(heap)
        if starts[c + 1] - starts[c] == 1:
            blocks.append((c,))
            out = target[indptr[c] : indptr[c + 1]]
        else:
            block = members[starts[c] : starts[c + 1]].tolist()
            blocks.append(tuple(block))
            out = np.concatenate([target[indptr[v] : indptr[v + 1]] for v in block])
        # the arcs inside c take c's own count, popped already, below zero
        np.subtract.at(indeg, out, 1)
        for b in dict.fromkeys(out[indeg[out] == 0].tolist()):
            heapq.heappush(heap, b)
    return tuple(blocks)


def _python_scc_blocks(successors) -> tuple[tuple[int, ...], ...]:
    """:func:`scc_blocks` in Python over `successors`, by the same rule as
    the csgraph side: each component labelled by its smallest point, its
    in-degree counting the arcs from other components with multiplicity,
    and Kahn's order on a min-heap of the labels."""
    p = len(successors)
    # Tarjan, recursive: at most _CSGRAPH_CUTOFF deep. low[v] is the lowest
    # place on the stack that v is known to reach, at first its own; a
    # visited point without a label is on the stack
    low = [-1] * p
    label = [-1] * p
    stack: list[int] = []

    def visit(v: int) -> None:
        low[v] = depth = len(stack)
        stack.append(v)
        for w in successors[v]:
            if low[w] < 0:
                visit(w)
            if label[w] < 0 and low[w] < low[v]:
                low[v] = low[w]
        if low[v] == depth:
            comp = stack[depth:]
            del stack[depth:]
            smallest = min(comp)
            for w in comp:
                label[w] = smallest

    for v in range(p):
        if low[v] < 0:
            visit(v)

    members: list[list[int]] = [[] for _ in range(p)]
    indeg = [0] * p
    for u in range(p):
        members[label[u]].append(u)
        for w in successors[u]:
            if label[w] != label[u]:
                indeg[label[w]] += 1
    # ascending, so already a heap
    heap = [c for c in range(p) if label[c] == c and indeg[c] == 0]
    blocks = []
    while heap:
        c = heapq.heappop(heap)
        blocks.append(tuple(members[c]))
        for u in members[c]:
            for w in successors[u]:
                b = label[w]
                if b != c:
                    indeg[b] -= 1
                    if indeg[b] == 0:
                        heapq.heappush(heap, b)
    return tuple(blocks)


def acyclic_suffix(entries: np.ndarray) -> int:
    """Largest m such that the exactly nonzero off-diagonal entries of the
    square array `entries` among its last m points form no cycle: the
    `suffix` of :class:`SubsetCycles`.

    Every cycle lies inside one strongly connected component, so above
    _CSGRAPH_CUTOFF points one csgraph call labels the components (a loop
    changes no label): with none of 2 or more points the answer is p, and
    otherwise the search runs only over the points of those components,
    with the arcs inside a component. The largest point v that is the
    smallest point of a cycle is the same there, and the answer p - 1 - v.
    """
    p = entries.shape[0]
    if p <= _CSGRAPH_CUTOFF:
        return SubsetCycles(entries).suffix
    arcs = entries != 0
    _, _, _, comp = _strong_components(arcs)
    points = np.flatnonzero(np.bincount(comp)[comp] > 1)
    if not points.size:
        return p
    inner = comp[points]
    arcs = arcs[np.ix_(points, points)] & (inner[:, None] == inner[None, :])
    return p - 1 - int(points[points.size - 1 - SubsetCycles(arcs).suffix])


class SubsetCycles:
    """Which subsets of the last points of the square array `entries` have
    a cycle of exactly nonzero off-diagonal entries, grown level by level.

    Subsets are level masks: bit j stands for point p-1-j, so the subsets
    of the last m points T_m are the masks below 2^m. `suffix` is the
    largest m whose T_m is acyclic, which :func:`acyclic_suffix` returns:
    T_m stays acyclic while point p-m closes no cycle inside it, which a
    search over the successor bitmasks decides without the table, each
    point's loop bit cleared (a loop is no cycle).
    :meth:`grow` then extends the table to the subsets of T_m, in Python
    over bitmasks: out[S] is the union of the successors of S, grown one
    bit at a time, S & ~out[S] are the sources of S, and S is acyclic iff
    it has a source s and S ^ s is acyclic (S ^ s < S, so it is known).
    """

    def __init__(self, entries: np.ndarray):
        p = entries.shape[0]
        # row j packs the arcs out of point p-1-j, point c in bit 7 - c % 8
        # of byte c // 8, so a row read big-endian and shifted right by
        # 8 * width - p is the level mask of their heads
        self._rows = np.packbits(entries[::-1] != 0, axis=1).tobytes()
        self._width = (p + 7) // 8
        self._shift = 8 * self._width - p
        self._succ: list[int] = []  # per level bit, its loop cleared (a loop is no cycle)
        succ = self._succ
        m = 0
        while m < p:
            # does bit m lie on a cycle among bits 0..m?
            within = (2 << m) - 1
            reach = 0
            todo = self._successors(m) & within
            while todo:
                reach |= todo
                heads = 0
                while todo:
                    low = todo & -todo
                    heads |= succ[low.bit_length() - 1]
                    todo ^= low
                todo = heads & within & ~reach
            if reach >> m & 1:
                break
            m += 1
        self.suffix = m
        self._out = [0]  # per level mask below 2^level, as grown so far
        self._cyclic = [False]

    def _successors(self, j: int) -> int:
        """Read the successor mask of bit j into self._succ[j]."""
        width = self._width
        row = int.from_bytes(self._rows[j * width : (j + 1) * width], "big")
        self._succ.append(row >> self._shift & ~(1 << j))
        return self._succ[j]

    def grow(self, m: int) -> np.ndarray:
        """Extend the table to the subsets of T_m and return, per level mask
        below 2^m, whether the subset has a cycle."""
        out, cyclic = self._out, self._cyclic
        for j in range(len(out).bit_length() - 1, m):
            head = self._succ[j] if j < len(self._succ) else self._successors(j)
            out += [o | head for o in out]
            if j < self.suffix:  # inside T_suffix, so acyclic
                cyclic += [False] * (1 << j)
                continue
            append = cyclic.append
            for s in range(1 << j, 2 << j):
                sources = s & ~out[s]
                append(not sources or cyclic[s ^ (sources & -sources)])
        return np.array(cyclic[: 1 << m])


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
    K: Operator | FiniteRankOperator, sets: list[StandardSet], tol: float = DEFAULT_TOL
) -> MomentResidualReport:
    """Residuals |tr(M(E)^2)| per set and |tr(M(E) M(F))| per pair, where
    M(E) = sum_{x in E} G(x) F(x)^t w(x) for any factors k = F G^t; for
    operators with nilpotent standard compressions all must vanish. The
    kernel diagonal must vanish on every set. A finite-rank K is
    densified first.

    tr(M(E) M(F)) = sum_{x in E, y in F} a[x,y] a[y,x] over the weighted
    entries a, so every residual is read off the one product
    S^t (a ⊙ a^t) S, where column c of S is the 0/1 membership of set c.
    """
    K = densify(K)
    union = 0
    for s in sets:
        if union & s.mask:
            raise PreconditionError("sets must be pairwise disjoint")
        union |= s.mask
    if any(s.space != K.space for s in sets):
        raise PreconditionError("standard set over a different space")
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
