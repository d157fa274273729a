"""Support digraph, non-degenerate cycles, n-cycle trace sums and the
moment-matrix identities of finite-rank kernels."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import PreconditionError
from .operators import (
    FiniteRankOperator,
    Operator,
    ZERO_TOL,
    compress,
    magnitude,
    trace_power,
)
from .spaces import StandardSet


@dataclass(frozen=True)
class SupportDigraph:
    """Arc i -> j iff |k(x_i, x_j)| > threshold."""

    size: int
    threshold: float
    successors: tuple[tuple[int, ...], ...]

    def has_arc(self, i: int, j: int) -> bool:
        return j in self.successors[i]


def support_digraph(K: Operator, threshold: float | None = None) -> SupportDigraph:
    """Support digraph at `threshold`, by default K.zero_threshold."""
    if threshold is None:
        threshold = K.zero_threshold
    mask = np.abs(K.kernel_values) > threshold
    succ = tuple(tuple(np.nonzero(row)[0].tolist()) for row in mask)
    return SupportDigraph(size=K.size, threshold=threshold, successors=succ)


def cycle_product(K: Operator, vertices: list[int]) -> complex:
    """k(x_1,x_2) k(x_2,x_3) ... k(x_n,x_1) over distinct vertices."""
    kernel = K.kernel_values
    if len(vertices) < 2:
        raise PreconditionError("a cycle needs at least 2 vertices")
    if len(set(vertices)) != len(vertices):
        raise PreconditionError("repeated vertex in cycle")
    pairs = list(zip(vertices, vertices[1:] + vertices[:1]))
    return complex(reduce(lambda acc, ij: acc * kernel[ij], pairs, 1.0 + 0.0j))


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


@dataclass(frozen=True)
class CycleTraceDecomposition:
    """tr((PKP)^n) split into the atomic-diagonal part and the rest."""

    total: complex
    atom_part: complex
    remainder: complex
    word_sum: complex

    @property
    def residual(self) -> float:
        return abs(self.total - self.word_sum)


def ncycle_trace_sum(K: Operator, sets: list[StandardSet]) -> CycleTraceDecomposition:
    """For pairwise disjoint sets E_1..E_n, compute tr((PKP)^n) with
    P = P_{E_1} + ... + P_{E_n}, its decomposition into sum_j k(j,j)^n over
    the atoms covered plus the n-cycle remainder, and the cross-check sum
    over all n-letter index words of the cyclic block traces."""
    n = len(sets)
    if not 2 <= n <= 6:
        raise PreconditionError("number of sets must be between 2 and 6")
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            if not a.isdisjoint(b):
                raise PreconditionError("sets must be pairwise disjoint")
    union = sets[0]
    for s in sets[1:]:
        union = union.union(s)
    kernel = K.kernel_values
    total = trace_power(compress(K, union), n)
    atom_part = sum(
        (complex(kernel[j, j]) ** n for j in union.indices() if K.space.is_atom(j)),
        0.0 + 0.0j,
    )

    # blocks as full-size matrices: B[a] = P_{E_a} K P_{E_b} summed over words
    p = K.size
    proj = []
    for s in sets:
        d = np.zeros(p)
        d[list(s.indices())] = 1.0
        proj.append(d)
    blocks = {
        (a, b): (proj[a][:, None] * K.entries) * proj[b][None, :]
        for a in range(n)
        for b in range(n)
    }
    word_sum = 0.0 + 0.0j
    for word in itertools.product(range(n), repeat=n):
        prod = blocks[(word[0], word[1])]
        for t in range(1, n):
            prod = prod @ blocks[(word[t], word[(t + 1) % n])]
        word_sum += complex(np.trace(prod))
    return CycleTraceDecomposition(
        total=total,
        atom_part=complex(atom_part),
        remainder=total - complex(atom_part),
        word_sum=word_sum,
    )


@dataclass(frozen=True)
class MomentMatrix:
    """M(E) = sum_{x in E} G(x) F(x)^t w(x) for a rank-n factored kernel."""

    values: np.ndarray

    def trace(self) -> complex:
        return complex(np.trace(self.values))


def moment_matrix(
    kfr: FiniteRankOperator, E: StandardSet, tol: float = 1e-8
) -> MomentMatrix:
    """Requires the densified kernel diagonal to vanish on E."""
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
    return MomentMatrix(values=m)


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
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            if not a.isdisjoint(b):
                raise PreconditionError("sets must be pairwise disjoint")
    scale = magnitude(kfr.kernel_matrix())
    moments = [moment_matrix(kfr, s, tol=max(tol, ZERO_TOL)) for s in sets]
    squares = tuple(
        float(abs(np.trace(m.values @ m.values))) for m in moments
    )
    crosses = []
    for i in range(len(moments)):
        for j in range(i + 1, len(moments)):
            r = float(abs(np.trace(moments[i].values @ moments[j].values)))
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
