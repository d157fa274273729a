"""Constructors and verifiers for standard triangularizations.

Three certificate kinds:

* ``scc``                 — Frobenius normal form: strongly connected
                            components of the support digraph in topological
                            order (exists unconditionally).
* ``nilpotent_rank``      — rank-n operators with nilpotent standard
                            compressions: strictly block upper triangular
                            with at most n+1 blocks, built by repeatedly
                            peeling the maximal zero-column set.
* ``increasing_spectrum`` — rank-n operators with increasing spectrum:
                            block upper triangular with at most 2n+1 blocks,
                            every nonzero diagonal block a 1x1 eigenvalue
                            sitting on an atom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, TheoremViolationError
from .operators import (
    FiniteRankOperator,
    Operator,
    ZERO_TOL,
    densify,
    magnitude,
    numerical_rank,
)
from .spaces import (
    DEFAULT_MAX_POINTS,
    StandardSet,
    _subsets_by_size,
    mask_indices,
)
from .spectral import (
    DEFAULT_TOL,
    dense_eigvals,
    eigenvalues,
    exact_cycle_spectrum,
    match_multisets,
)
from .cycles import SubsetCycles, SupportDigraph, acyclic_suffix, scc_blocks, support_digraph
from .jsonio import _takes_only, canonical_dumps, is_complex, is_finite, is_integer


@dataclass(frozen=True)
class BlockDiagnosis:
    block: int
    kind: str  # one of BLOCK_CLASSES
    value: complex | None = None


BLOCK_CLASSES = ("zero", "scalar", "irreducible")
CERTIFICATE_KINDS = ("scc", "nilpotent_rank", "increasing_spectrum")
_CERTIFICATE_KEYS = ("kind", "blocks", "diagonal", "bound", "residual", "tol", "multiplicity_free")


@dataclass(frozen=True)
class TriangularizationCertificate:
    """Ordered partition of the point set plus everything needed to
    re-verify block upper-triangularity and the block-count bound."""

    kind: str  # one of CERTIFICATE_KINDS
    blocks: tuple[tuple[int, ...], ...]
    diagonal: tuple[BlockDiagnosis, ...]
    rank: int | None
    bound: int | None
    residual: float
    tol: float
    multiplicity_free: bool
    #: the recorded block count ("bound.m"); len(blocks) when not given
    num_blocks: int | None = None

    def __post_init__(self):
        if self.num_blocks is None:
            object.__setattr__(self, "num_blocks", len(self.blocks))

    def to_dict(self) -> dict:
        diag = []
        for d in self.diagonal:
            item = {"block": d.block, "class": d.kind}
            if d.value is not None:
                item["lambda"] = [d.value.real, d.value.imag]
            diag.append(item)
        return {
            "kind": self.kind,
            "blocks": [list(b) for b in self.blocks],
            "diagonal": diag,
            "bound": {"m": self.num_blocks, "limit": self.bound, "rank": self.rank},
            "residual": self.residual,
            "tol": self.tol,
            "multiplicity_free": self.multiplicity_free,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TriangularizationCertificate":
        """Read a certificate, checking the type of every field, naming a
        missing one and refusing a key it does not read, at the top level,
        in "bound" and in each "diagonal" item; whether the recorded
        classes, residual and bound hold is left to
        :func:`verify_certificate`."""
        if not isinstance(data, dict):
            raise PreconditionError("a certificate must be a JSON object")
        _takes_only("a certificate", data, *_CERTIFICATE_KEYS)
        try:
            blocks, diagonal, bound = data["blocks"], data["diagonal"], data["bound"]
            if not (isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)):
                raise PreconditionError('certificate "blocks" must be a list of lists')
            if not (
                isinstance(diagonal, list)
                and all(isinstance(d, dict) for d in diagonal)
                and all(is_complex(d["lambda"]) for d in diagonal if "lambda" in d)
            ):
                raise PreconditionError(
                    'certificate "diagonal" must be a list of objects whose "lambda" is [re, im]'
                )
            if not isinstance(bound, dict):
                raise PreconditionError('certificate "bound" must be an object')
            _takes_only('certificate "bound"', bound, "m", "limit", "rank")
            for d in diagonal:
                _takes_only('a certificate "diagonal" item', d, "block", "class", "lambda")
            diag = tuple(
                BlockDiagnosis(
                    block=d["block"],
                    kind=d["class"],
                    value=(None if "lambda" not in d else complex(*d["lambda"])),
                )
                for d in diagonal
            )
            counts = {key: bound[key] for key in ("m", "limit", "rank")}
            cert = cls(
                kind=data["kind"],
                blocks=tuple(tuple(b) for b in blocks),
                diagonal=diag,
                rank=counts["rank"],
                bound=counts["limit"],
                residual=data["residual"],
                tol=data["tol"],
                multiplicity_free=data["multiplicity_free"],
                num_blocks=counts["m"],
            )
        except KeyError as exc:
            raise PreconditionError(f"missing field in certificate: {exc}") from exc
        # after every field is read, so a missing field is still named first
        if cert.kind not in CERTIFICATE_KINDS:
            raise PreconditionError(f"unknown certificate kind: {cert.kind!r}")
        for key in ("tol", "residual"):
            if not is_finite(data[key]):
                raise PreconditionError(f'certificate "{key}" must be a finite number')
        if not isinstance(cert.multiplicity_free, bool):
            raise PreconditionError('certificate "multiplicity_free" must be true or false')
        if not is_integer(counts["m"]):  # null would read as len(blocks)
            raise PreconditionError('certificate "bound.m" must be an integer')
        for key in ("limit", "rank"):
            if not (counts[key] is None or is_integer(counts[key])):
                raise PreconditionError(f'certificate "bound.{key}" must be an integer or null')
        for d in cert.diagonal:
            if not is_integer(d.block):
                raise PreconditionError('a certificate "diagonal" block must be an integer')
            if d.kind not in BLOCK_CLASSES:
                raise PreconditionError(f"unknown diagonal class: {d.kind!r}")
        return cert


def _block_positions(p: int, blocks) -> np.ndarray:
    """pos[i]: the number of the block that holds point i."""
    pos = np.empty(p, dtype=np.intp)
    pos[[i for block in blocks for i in block]] = [b for b, blk in enumerate(blocks) for _ in blk]
    return pos


def _certificate(
    kind: str, K: Operator, blocks, tol: float, rank: int | None = None, bound: int | None = None
) -> TriangularizationCertificate:
    """Certificate for `blocks`, with each diagonal block classed by
    K.support and the below-block residual taken on the kernel."""
    kernel = K.kernel_values
    pos = _block_positions(K.size, blocks)
    # the blocks that hold an entry of the support; every other one is zero
    nonzero = set(pos[(K.support & (pos[:, None] == pos[None, :])).any(axis=1)].tolist())
    diagonal = []
    for b, block in enumerate(blocks):
        if b not in nonzero:
            diagonal.append(BlockDiagnosis(b, "zero"))
        elif len(block) == 1 and K.space.is_atom(block[0]):
            diagonal.append(BlockDiagnosis(b, "scalar", complex(kernel[block[0], block[0]])))
        else:
            diagonal.append(BlockDiagnosis(b, "irreducible"))
    return TriangularizationCertificate(
        kind=kind,
        blocks=blocks,
        diagonal=tuple(diagonal),
        rank=rank,
        bound=bound,
        residual=float(np.abs(kernel[pos[:, None] > pos[None, :]]).max(initial=0.0)),
        tol=tol,
        multiplicity_free=all(len(b) == 1 for b in blocks),
    )


# --- SCC / Frobenius form -------------------------------------------------

def scc_triangularize(K: Operator) -> TriangularizationCertificate:
    """Frobenius normal form: blocks are the strongly connected components
    of the support digraph, in a topological order of the condensation
    with ties broken by smallest contained point index."""
    dg = support_digraph(K)
    return _certificate("scc", K, scc_blocks(dg), dg.threshold)


# --- zero row/column projections and the nilpotent block form -------------

def max_kernel_projection(K: Operator | FiniteRankOperator, side: str = "right") -> StandardSet:
    """Largest standard set E with K P_E = 0 (side="right": the zero
    columns of the kernel, where all the g_i of a finite-rank K vanish)
    or P_E K = 0 (side="left": zero rows). A finite-rank K is densified
    first."""
    K = densify(K)
    if side not in ("right", "left"):
        raise PreconditionError("side must be 'right' or 'left'")
    zero = ~K.support.any(axis=0 if side == "right" else 1)
    return StandardSet.from_indices(K.space, np.flatnonzero(zero).tolist())


def assert_nilpotent_compressions(K: Operator, tol: float = DEFAULT_TOL) -> None:
    """Raise unless every standard compression of K is nilpotent.

    A compression whose exactly nonzero off-diagonal entries form no cycle
    is triangular up to a permutation, so its spectrum is its diagonal,
    and its radius the largest |diagonal entry|. Up to DEFAULT_MAX_POINTS
    points the check names the failure of smallest bitmask: the singleton
    of the first point v whose |diagonal entry| exceeds tol * K.scale
    fails, and every subset of smaller bitmask holds only earlier points,
    so it fails only if cyclic. The :class:`SubsetCycles` table of those
    points picks the cyclic ones, and each size takes one stacked eigvals
    call over its cyclic subsets below the smallest failing bitmask found
    so far; with no cyclic one the check decomposes nothing, and on a
    diagonal within the cutoff and an acyclic exact support it returns at
    once. Above it the structure decides: a diagonal entry above tol * K.scale names its singleton (the
    smallest point), an acyclic exact support returns, and otherwise the error
    names the :func:`shortest_cycle` C of the exact support with the
    radius of the compression to C (with a zero diagonal its eigenvalues
    are the |C|-th roots of the cycle product). A radius at or below
    tol * K.scale is the tolerance band, and the error says so instead.
    """
    p = K.size
    cutoff = tol * K.scale
    if p > DEFAULT_MAX_POINTS:
        diagonal = np.abs(np.diagonal(K.entries))
        above = np.flatnonzero(diagonal > cutoff)
        if above.size:
            raise _not_nilpotent(above[:1].tolist(), diagonal[above[0]])
        if acyclic_suffix(K.entries) == p:
            return
        cycle, spectrum = exact_cycle_spectrum(K)
        cycle, radius = cycle.tolist(), np.abs(spectrum).max()
        if radius > cutoff:
            raise _not_nilpotent(cycle, radius)
        raise PreconditionError(
            f"the shortest cycle {cycle} of the exact support has radius {radius:.3e}, "
            f"at or below tol * scale = {cutoff:.3e}: the operator lies in the tolerance "
            "band, where the nilpotence of every compression is not decided"
        )
    # the singleton of the first point whose diagonal entry exceeds the
    # cutoff fails, and a subset of smaller bitmask holds only earlier
    # points: acyclic, it has those entries as its spectrum and holds, so
    # only the cyclic ones are decomposed. Over the points reversed, a level
    # mask is the subset's bitmask (bit i = point i), and gather[:, ::-1,
    # ::-1] takes its points ascending.
    diagonal = np.abs(np.diagonal(K.entries))
    above = (diagonal > cutoff).nonzero()[0]
    top = int(above[0]) if above.size else p
    first = (1 << top, diagonal[top]) if top < p else None  # (bitmask, radius)
    head = K.entries[:top, :top][::-1, ::-1]
    table = SubsetCycles(head)
    if table.suffix < top:
        cyclic = table.grow(top)
        block = head.ravel()
        for _, masks, gather, _ in _subsets_by_size(0, top)[1:]:  # a singleton is acyclic
            keep = cyclic.take(masks)
            if first is not None:
                keep &= masks < first[0]
            keep = keep.nonzero()[0]
            if keep.size:
                mats = block.take(gather.take(keep, 0)[:, ::-1, ::-1])
                radius = np.abs(dense_eigvals(mats)).max(axis=1)
                bad = (radius > cutoff).nonzero()[0]
                if bad.size:
                    first = int(masks[keep[bad[0]]]), radius[bad[0]]
    if first is not None:
        raise _not_nilpotent(list(mask_indices(first[0], p)), first[1])


def _not_nilpotent(points: list[int], radius: float) -> PreconditionError:
    return PreconditionError(
        f"standard compression on points {points} is not nilpotent (radius {radius:.3e})"
    )


def nilpotent_block_form(
    K: Operator | FiniteRankOperator, tol: float = DEFAULT_TOL
) -> TriangularizationCertificate:
    """Strictly block upper triangular form with m <= rank+1 blocks.

    Stage j takes E_j = the maximal right-kernel projection of the current
    compression (its zero columns), which makes column block j vanish and
    drops the rank of the remaining compression by at least one. A
    finite-rank K is densified first.
    """
    K = densify(K)
    assert_nilpotent_compressions(K, tol)
    kernel = K.kernel_values
    blocks = _peel_zero_columns(support_digraph(K), np.ones(K.size, dtype=bool))
    n = numerical_rank(K)
    m = len(blocks)
    if m > n + 1:
        raise TheoremViolationError(
            f"block count {m} exceeds rank bound {n + 1}", blocks=blocks, rank=n
        )
    # the largest |k| of each superdiagonal block (b, b + 1), read in one
    # pass over the entries (i, j) with pos[j] == pos[i] + 1, against the
    # threshold verify_certificate applies to these blocks at this tol
    pos = _block_positions(K.size, blocks)
    rows, cols = np.nonzero(pos[:, None] + 1 == pos[None, :])
    peak = np.zeros(max(m - 1, 0))
    np.maximum.at(peak, pos[rows], np.abs(kernel[rows, cols]))
    weak = np.flatnonzero(peak <= tol * magnitude(kernel))
    if weak.size:
        j = int(weak[0])
        raise TheoremViolationError(f"superdiagonal block ({j}, {j + 1}) vanishes", blocks=blocks)
    return _certificate("nilpotent_rank", K, blocks, tol, rank=n, bound=n + 1)


def _peel_zero_columns(dg: SupportDigraph, alive: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Repeatedly strip the live points (alive[i]) that no live point has an
    arc into (dg.arcs[j, i]), i.e. the zero columns of the compression of
    the support to the live points; the stripped index sets, in order, are
    the partition blocks.

    Kahn's layering: one NumPy sum counts each live point's arcs in from
    live points (-1 for a point that is not live, which so never reaches
    0), and each stage then takes its arcs off the counts of its heads over
    dg.successors (self-loops included). The points that reach 0 form the
    next stage, ascending.
    """
    successors = dg.successors
    arcs_in = dg.arcs[alive].sum(axis=0)
    arcs_in[~alive] = -1
    arcs_in = arcs_in.tolist()
    stage = [i for i, d in enumerate(arcs_in) if d == 0]
    blocks: list[tuple[int, ...]] = []
    while stage:
        blocks.append(tuple(stage))
        nxt = []
        for v in stage:
            for w in successors[v]:
                arcs_in[w] -= 1
                if arcs_in[w] == 0:
                    nxt.append(w)
        nxt.sort()
        stage = nxt
    # a stripped point ends at 0, and a live point left over above 0
    remaining = tuple(i for i, d in enumerate(arcs_in) if d > 0)
    if remaining:
        raise TheoremViolationError(
            "no zero-column set in a compression asserted to have "
            "nilpotent standard compressions",
            remaining=remaining,
        )
    return tuple(blocks)


# --- eigen-atom peeling and the increasing-spectrum block form -------------

def _eigen_atoms(K: Operator, tol: float) -> list[tuple[int, complex]]:
    """The (point index, k(j,j)) of the atoms whose kernel diagonal
    exceeds tol * scale, by ascending atom id; raises unless their values
    match the nonzero eigenvalue multiset of K."""
    kernel = K.kernel_values
    cutoff = tol * K.scale
    space = K.space
    peeled = [
        (j, complex(kernel[j, j]))
        for j in range(space.num_cells, space.size)
        if abs(kernel[j, j]) > cutoff
    ]
    peeled.sort(key=lambda it: space.atom_ids[it[0] - space.num_cells])
    eigs = [z for z in eigenvalues(K, tol).eigenvalues if abs(z) > cutoff]
    diag_vals = [z for _, z in peeled]
    if not match_multisets(diag_vals, eigs, cutoff):
        raise TheoremViolationError(
            "atom diagonal multiset does not match the nonzero spectrum",
            atom_diagonal=tuple(diag_vals),
            nonzero_eigenvalues=tuple(eigs),
        )
    return peeled


def increasing_spectrum_block_form(
    K: Operator, tol: float = DEFAULT_TOL
) -> TriangularizationCertificate:
    """Block upper triangular form with m <= 2*rank+1 blocks in which
    every nonzero diagonal block is a peeled eigen-atom.

    Each level takes the nilpotent block form of the remainder's support
    with the peeled atom diagonal cleared, splits at the block holding the
    smallest-id eigen-atom and recurses on the two flanks, each a mask of
    the points. Every peel is the Kahn layering of
    :func:`_peel_zero_columns` over the successor lists of that support,
    built once in one SupportDigraph. The stages before the split are
    closed under predecessors among the live points, so they are the left
    flank's own peel and are passed down; only the right flank is peeled
    again.
    """
    n = numerical_rank(K)
    atoms = [a for a, _ in _eigen_atoms(K, tol)]  # sorted by atom id
    support = K.support.copy()
    support[atoms, atoms] = False
    support.flags.writeable = False
    dg = SupportDigraph(K.zero_threshold, support)

    def rec(alive: np.ndarray, stages: tuple | None = None) -> list[tuple[int, ...]]:
        if stages is None:
            if not alive.any():
                return []
            stages = _peel_zero_columns(dg, alive)
        j = next((a for a in atoms if alive[a]), None)
        if j is None:
            return list(stages)
        split = next(p for p, blk in enumerate(stages) if j in blk)
        f1 = np.zeros_like(alive)
        f1[[i for blk in stages[:split] for i in blk]] = True
        f2 = alive & ~f1
        f2[j] = False
        return rec(f1, stages[:split]) + [(j,)] + rec(f2)

    blocks = tuple(rec(np.ones(K.size, dtype=bool)))
    m = len(blocks)
    limit = 2 * n + 1
    if m > limit:
        raise TheoremViolationError(
            f"block count {m} exceeds bound {limit}", blocks=blocks, rank=n
        )
    cert = _certificate("increasing_spectrum", K, blocks, tol, rank=n, bound=limit)
    if cert.residual > K.zero_threshold:
        raise TheoremViolationError(
            "atom placement broke block triangularity", residual=cert.residual
        )
    return cert


# --- independent verifier ---------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failures(self) -> list[str]:
        return [f"{name}: {c.detail}" for name, c in self.checks.items() if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": {
                name: {"passed": c.passed, "detail": c.detail}
                for name, c in self.checks.items()
            },
        }


def verify_certificate(
    K: Operator, cert: TriangularizationCertificate, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Recheck every certificate invariant from scratch.

    Deliberately uses direct matrix scans and its own eigenvalues rather
    than the constructor code paths; it shares only the pairing rule of
    its scalar check, :func:`match_multisets`, with the eigen-atom check.
    """
    checks: dict[str, CheckResult] = {}
    kernel = K.kernel_values
    p = K.size
    mag = np.abs(kernel)
    scale = max(1.0, float(mag.max(initial=0.0)))
    thr = tol * scale

    flat = [i for b in cert.blocks for i in b]
    # 0.0 == 0 and True == 1 would pass the sort test, but cannot index
    ok = (
        all(cert.blocks)
        and all(map(is_integer, flat))
        and sorted(flat) == list(range(p))
    )
    checks["partition"] = CheckResult(ok, "" if ok else "blocks do not partition the point set")
    if not ok:
        return VerificationReport(checks)

    m = len(cert.blocks)
    pos = np.empty(p, dtype=int)
    pos[flat] = [b for b, block in enumerate(cert.blocks) for _ in block]
    below = pos[:, None] > pos[None, :]
    worst = float(mag[below].max()) if below.any() else 0.0
    checks["residual"] = CheckResult(
        worst <= thr, f"below-block residual {worst:.3e} > {thr:.3e}" if worst > thr else ""
    )

    # chain invariance: K maps each prefix F_b into itself. A below-block
    # entry (i, j) leaks out of every prefix b with pos[j] <= b < pos[i], so
    # some prefix leaks exactly when the residual fails, and the first is
    # the smallest pos[j] over the entries > thr
    if worst > thr:
        b = int(pos[np.nonzero(below & (mag > thr))[1]].min())
        leak = float(mag[np.ix_(pos > b, pos <= b)].max())
        checks["chain_invariant"] = CheckResult(False, f"prefix {b} leaks {leak:.3e}")
    else:
        checks["chain_invariant"] = CheckResult(True)

    if cert.kind in ("nilpotent_rank", "increasing_spectrum"):
        # peak[g, b]: the largest |k| of the entries (i, j) with pos[i] == b
        # and pos[j] == b + g: block b (g = 0) and block pair (b, b + 1) (g = 1)
        gap = pos[None, :] - pos[:, None]
        rows, cols = np.nonzero((gap == 0) | (gap == 1))
        peak = np.zeros((2, m))
        np.maximum.at(peak, (gap[rows, cols], pos[rows]), mag[rows, cols])
        filled = np.flatnonzero(peak[0] > thr).tolist()  # the blocks not zero at thr

    if cert.kind == "nilpotent_rank":
        checks["zero_diagonal_blocks"] = CheckResult(
            not filled, f"nonzero diagonal blocks {filled}" if filled else ""
        )
        weak = np.flatnonzero(peak[1, :-1] <= thr).tolist()
        checks["superdiagonal_nonzero"] = CheckResult(
            not weak, f"vanishing superdiagonal blocks {weak}" if weak else ""
        )

    if cert.kind == "increasing_spectrum":
        bad_blocks = []
        scalars: list[complex] = []
        for b in filled:
            block = cert.blocks[b]
            if len(block) == 1 and K.space.is_atom(block[0]):
                scalars.append(complex(kernel[block[0], block[0]]))
            else:
                bad_blocks.append(b)
        checks["diagonal_blocks"] = CheckResult(
            not bad_blocks,
            f"nonzero non-atom diagonal blocks {bad_blocks}" if bad_blocks else "",
        )
        eigs = [z for z in np.linalg.eigvals(K.entries) if abs(z) > thr]
        match_ok = match_multisets(scalars, eigs, thr)
        checks["scalar_eigenvalues"] = CheckResult(
            match_ok,
            ""
            if match_ok
            else f"scalars {_as_json(scalars)} do not match nonzero spectrum {_as_json(eigs)}",
        )

    # the arcs of the structural support of README "Tolerances" that lie
    # inside one block
    zero = ZERO_TOL * scale
    inside = (pos[:, None] == pos[None, :]) & (mag > zero)
    if cert.kind == "scc":
        # strongly connected blocks with no arc of that support back to an
        # earlier block are exactly the strong components
        loose = _loose_blocks(inside, cert.blocks)
        wrong = [f"blocks {loose} are not strongly connected"] if loose else []
        if worst > zero:
            wrong.append(f"an arc leads back to an earlier block: {worst:.3e} > {zero:.3e}")
        checks["strong_components"] = CheckResult(not wrong, "; ".join(wrong))

    rank = limit = None  # an scc certificate records neither
    if cert.kind in ("nilpotent_rank", "increasing_spectrum"):
        s = np.linalg.svd(np.asarray(kernel, dtype=complex), compute_uv=False)
        rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > ZERO_TOL * s[0]))
        limit = rank + 1 if cert.kind == "nilpotent_rank" else 2 * rank + 1
        ok = m <= limit
        checks["block_count_bound"] = CheckResult(
            ok, f"{m} blocks > limit {limit}" if ok is False else ""
        )

    recorded = {
        "bound.m": (cert.num_blocks, m),
        "bound.limit": (cert.bound, limit),
        "bound.rank": (cert.rank, rank),
        "multiplicity_free": (cert.multiplicity_free, all(len(b) == 1 for b in cert.blocks)),
    }
    wrong = [
        f"{key} {_as_json(got)} != {_as_json(want)}"
        for key, (got, want) in recorded.items()
        if got != want
    ]
    # F @ Gᵀ may round differently on another BLAS, so the recorded
    # residual need only lie within thr of the one measured above
    if not abs(cert.residual - worst) <= thr:
        wrong.append(f"residual {_as_json(cert.residual)} != {_as_json(worst)}")
    checks["recorded_counts"] = CheckResult(not wrong, "; ".join(wrong))

    # the recorded diagonal against this verifier's own classes on the
    # structural support; a scalar's lambda within thr
    nonzero = set(pos[inside.any(axis=1)].tolist())  # the blocks holding such an entry
    numbers = [d.block for d in cert.diagonal]
    if numbers != list(range(m)):
        wrong = [f"blocks {_as_json(numbers)} != 0..{m - 1}"]
    else:
        wrong = []
        for d, block in zip(cert.diagonal, cert.blocks):
            value = None
            if d.block not in nonzero:
                kind = "zero"
            elif len(block) == 1 and K.space.is_atom(block[0]):
                kind, value = "scalar", complex(kernel[block[0], block[0]])
            else:
                kind = "irreducible"
            if d.kind != kind:
                wrong.append(f"block {d.block} class {d.kind} != {kind}")
            elif (d.value is None) != (value is None) or (
                value is not None and not abs(d.value - value) <= thr
            ):
                wrong.append(f"block {d.block} lambda {_as_json(d.value)} != {_as_json(value)}")
    checks["recorded_diagonal"] = CheckResult(not wrong, "; ".join(wrong))

    return VerificationReport(checks)


def _loose_blocks(inside: np.ndarray, blocks) -> list[int]:
    """The blocks of 2 or more points that are not strongly connected
    along the arcs `inside` (arc i -> j iff inside[i, j], none of them
    between two blocks): a reachability sweep from the block's first
    point, along the arcs or against them, misses a point of the block."""
    big = [b for b, block in enumerate(blocks) if len(block) > 1]
    if not big:
        return []
    heads, tails = inside.tolist(), inside.T.tolist()
    return [b for b in big if _sweep_misses(heads, blocks[b]) or _sweep_misses(tails, blocks[b])]


def _sweep_misses(rows: list[list[bool]], block) -> bool:
    """Whether the sweep from block[0] along the arcs rows[i][j] misses a
    point of the block; each reached point's row is read once, at the
    points not yet reached."""
    todo, unseen = [block[0]], set(block[1:])
    while todo and unseen:
        row = rows[todo.pop()]
        step = [j for j in unseen if row[j]]
        unseen.difference_update(step)
        todo += step
    return bool(unseen)


def _as_json(value) -> str:
    return canonical_dumps(value).rstrip("\n")
