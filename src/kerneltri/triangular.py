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

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, TheoremViolationError
from .operators import (
    FiniteRankOperator,
    Operator,
    ZERO_TOL,
    densify,
    kernel_operator,
    magnitude,
    numerical_rank,
)
from .spaces import DEFAULT_MAX_POINTS, StandardSet
from .spectral import (
    DEFAULT_TOL,
    block_size,
    dense_eigvals,
    eigenvalues,
    match_multisets,
    subset_spectra,
)
from .cycles import SupportDigraph, acyclic_suffix, scc_blocks, shortest_cycle, support_digraph
from .jsonio import canonical_dumps, is_integer, is_number


@dataclass(frozen=True)
class BlockDiagnosis:
    block: int
    kind: str  # one of BLOCK_CLASSES
    value: complex | None = None


BLOCK_CLASSES = ("zero", "scalar", "irreducible")
CERTIFICATE_KINDS = ("scc", "nilpotent_rank", "increasing_spectrum")


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
        """Read a certificate, checking the type of every field; whether
        the recorded classes, residual and bound hold is left to
        :func:`verify_certificate`."""
        if not isinstance(data, dict):
            raise PreconditionError("a certificate must be a JSON object")
        blocks, diagonal, bound = data["blocks"], data["diagonal"], data["bound"]
        if not (isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)):
            raise PreconditionError('certificate "blocks" must be a list of lists')
        if not (
            isinstance(diagonal, list)
            and all(isinstance(d, dict) for d in diagonal)
            and all(_is_complex(d["lambda"]) for d in diagonal if "lambda" in d)
        ):
            raise PreconditionError(
                'certificate "diagonal" must be a list of objects whose "lambda" is [re, im]'
            )
        if not isinstance(bound, dict):
            raise PreconditionError('certificate "bound" must be an object')
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
        # after every field is read, so a missing field is still named first
        if cert.kind not in CERTIFICATE_KINDS:
            raise PreconditionError(f"unknown certificate kind: {cert.kind!r}")
        for key in ("tol", "residual"):
            if not _is_finite(data[key]):
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


def _is_finite(value) -> bool:
    """A JSON number that converts to a finite float."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_complex(value) -> bool:
    """An [re, im] list of two finite numbers."""
    return type(value) is list and len(value) == 2 and all(map(_is_finite, value))


def _certificate(
    kind: str, K: Operator, blocks, tol: float, rank: int | None = None, bound: int | None = None
) -> TriangularizationCertificate:
    """Certificate for `blocks`, with each diagonal block classed by
    K.support and the below-block residual taken on the kernel."""
    kernel = K.kernel_values
    pos = np.empty(K.size, dtype=np.intp)  # pos[i]: the block holding point i
    pos[[i for block in blocks for i in block]] = [b for b, blk in enumerate(blocks) for _ in blk]
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

def max_kernel_projection(kfr: FiniteRankOperator, side: str = "right") -> StandardSet:
    """Largest standard set E with K P_E = 0 (side="right": the points
    where all the g_i vanish, i.e. the zero columns of the kernel) or
    P_E K = 0 (side="left": zero rows)."""
    if side not in ("right", "left"):
        raise PreconditionError("side must be 'right' or 'left'")
    zero = ~densify(kfr).support.any(axis=0 if side == "right" else 1)
    return StandardSet.from_indices(kfr.space, np.flatnonzero(zero).tolist())


def assert_nilpotent_compressions(K: Operator, tol: float = DEFAULT_TOL) -> None:
    """Raise unless every standard compression of K is nilpotent.

    A zero diagonal on an acyclic exact support (see
    :func:`acyclic_suffix`) makes every compression strictly triangular up
    to a permutation, so nilpotent. Up to DEFAULT_MAX_POINTS points such
    an operator returns at once, and the check otherwise runs over every
    subset in bitmask order, in blocks decided by :func:`subset_spectra`,
    and names the failure of smallest bitmask. Above it the structure
    decides: a diagonal entry above tol * K.scale names its singleton (the
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
        cycle = np.sort(shortest_cycle(SupportDigraph(0.0, K.entries != 0))).tolist()
        radius = np.abs(dense_eigvals(K.entries[np.ix_(cycle, cycle)])).max()
        if radius > cutoff:
            raise _not_nilpotent(cycle, radius)
        raise PreconditionError(
            f"the shortest cycle {cycle} of the exact support has radius {radius:.3e}, "
            f"at or below tol * scale = {cutoff:.3e}: the operator lies in the tolerance "
            "band, where the nilpotence of every compression is not decided"
        )
    if not np.diagonal(K.entries).any() and acyclic_suffix(K.entries) == p:
        return
    # every subset, in bitmask order (bit i = point i)
    masks = np.arange(1, 1 << p)[:, None] >> np.arange(p) & 1
    step = block_size(p)
    for lo in range(0, len(masks), step):
        members = masks[lo : lo + step].astype(bool)
        spectra, inverse = subset_spectra(K.entries, members)
        radius = np.fmax.reduce(np.abs(spectra), axis=1, initial=0.0)[inverse]
        bad = np.flatnonzero(radius > cutoff)
        if bad.size:
            raise _not_nilpotent(np.flatnonzero(members[bad[0]]).tolist(), radius[bad[0]])


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
    finite-rank operator is densified first.
    """
    if isinstance(K, FiniteRankOperator):
        K = densify(K)
    assert_nilpotent_compressions(K, tol)
    kernel = K.kernel_values
    blocks = _peel_zero_columns(K.support, np.ones(K.size, dtype=bool))
    n = numerical_rank(K)
    m = len(blocks)
    if m > n + 1:
        raise TheoremViolationError(
            f"block count {m} exceeds rank bound {n + 1}", blocks=blocks, rank=n
        )
    # the threshold verify_certificate applies to these blocks at this tol
    sup_thr = tol * magnitude(kernel)
    for j in range(m - 1):
        sup = kernel[np.ix_(blocks[j], blocks[j + 1])]
        if np.abs(sup).max() <= sup_thr:
            raise TheoremViolationError(
                f"superdiagonal block ({j}, {j + 1}) vanishes", blocks=blocks
            )
    return _certificate("nilpotent_rank", K, blocks, tol, rank=n, bound=n + 1)


def _peel_zero_columns(support: np.ndarray, alive: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Repeatedly strip the live points (alive[i]) that no live point has an
    arc into (support[j, i]), i.e. the zero columns of the compression of
    the support to the live points; the stripped index sets, in order, are
    the partition blocks."""
    alive = alive.copy()
    arcs_in = support[alive].sum(axis=0)  # live points with an arc into each point
    blocks: list[tuple[int, ...]] = []
    while alive.any():
        zero = alive & (arcs_in == 0)
        if not zero.any():
            raise TheoremViolationError(
                "no zero-column set in a compression asserted to have "
                "nilpotent standard compressions",
                remaining=tuple(np.flatnonzero(alive).tolist()),
            )
        blocks.append(tuple(np.flatnonzero(zero).tolist()))
        alive &= ~zero
        arcs_in -= support[zero].sum(axis=0)
    return tuple(blocks)


# --- eigen-atom peeling and the increasing-spectrum block form -------------

def eigenatom_peel(
    K: Operator, tol: float = DEFAULT_TOL
) -> tuple[list[tuple[int, complex]], Operator]:
    """Find the atoms carrying the nonzero eigenvalues of K.

    Returns the list of (point index, k(j,j)) for atoms with nonzero
    kernel diagonal, sorted by ascending atom id, together with
    G = K minus those diagonal entries. Raises when the atom-diagonal
    multiset fails to match the nonzero eigenvalue multiset of K.
    """
    peeled = _eigen_atoms(K, tol)
    g_kernel = K.kernel_values.copy()
    for j, _ in peeled:
        g_kernel[j, j] = 0.0
    return peeled, kernel_operator(K.space, g_kernel)


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
    the points.
    """
    n = numerical_rank(K)
    atoms = [a for a, _ in _eigen_atoms(K, tol)]  # sorted by atom id
    support = K.support.copy()
    support[atoms, atoms] = False

    def rec(alive: np.ndarray) -> list[tuple[int, ...]]:
        if not alive.any():
            return []
        g_blocks = _peel_zero_columns(support, alive)
        j = next((a for a in atoms if alive[a]), None)
        if j is None:
            return list(g_blocks)
        split = next(p for p, blk in enumerate(g_blocks) if j in blk)
        f1 = np.zeros_like(alive)
        f1[[i for blk in g_blocks[:split] for i in blk]] = True
        f2 = alive & ~f1
        f2[j] = False
        return rec(f1) + [(j,)] + rec(f2)

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

    Deliberately uses direct matrix scans and its own eigenvalue matching
    rather than the constructor code paths.
    """
    checks: dict[str, CheckResult] = {}
    kernel = K.kernel_values
    p = K.size
    scale = max(1.0, float(np.abs(kernel).max()) if kernel.size else 1.0)
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

    pos = np.empty(p, dtype=int)
    for b, block in enumerate(cert.blocks):
        pos[list(block)] = b
    below = pos[:, None] > pos[None, :]
    mag = np.abs(kernel)
    worst = float(mag[below].max()) if below.any() else 0.0
    checks["residual"] = CheckResult(
        worst <= thr, f"below-block residual {worst:.3e} > {thr:.3e}" if worst > thr else ""
    )

    # chain invariance: K maps each prefix F_b into itself. A below-block
    # entry (i, j) leaks out of every prefix b with pos[j] <= b < pos[i], so
    # the first leaking prefix is the smallest pos[j] over the entries > thr
    leaking = pos[np.nonzero(below & (mag > thr))[1]]
    if leaking.size:
        b = int(leaking.min())
        leak = float(mag[np.ix_(pos > b, pos <= b)].max())
        checks["chain_invariant"] = CheckResult(False, f"prefix {b} leaks {leak:.3e}")
    else:
        checks["chain_invariant"] = CheckResult(True)

    if cert.kind == "nilpotent_rank":
        bad = [
            b
            for b, block in enumerate(cert.blocks)
            if np.abs(kernel[np.ix_(block, block)]).max() > thr
        ]
        checks["zero_diagonal_blocks"] = CheckResult(
            not bad, f"nonzero diagonal blocks {bad}" if bad else ""
        )
        weak = [
            j
            for j in range(len(cert.blocks) - 1)
            if np.abs(kernel[np.ix_(cert.blocks[j], cert.blocks[j + 1])]).max() <= thr
        ]
        checks["superdiagonal_nonzero"] = CheckResult(
            not weak, f"vanishing superdiagonal blocks {weak}" if weak else ""
        )

    if cert.kind == "increasing_spectrum":
        bad_blocks = []
        scalars: list[complex] = []
        for b, block in enumerate(cert.blocks):
            sub = kernel[np.ix_(block, block)]
            if np.abs(sub).max() <= thr:
                continue
            if len(block) == 1 and K.space.is_atom(block[0]):
                scalars.append(complex(sub[0, 0]))
            else:
                bad_blocks.append(b)
        checks["diagonal_blocks"] = CheckResult(
            not bad_blocks,
            f"nonzero non-atom diagonal blocks {bad_blocks}" if bad_blocks else "",
        )
        # greedy nearest matching of scalars against the nonzero spectrum
        eigs = [z for z in np.linalg.eigvals(K.entries) if abs(z) > thr]
        match_ok = len(eigs) == len(scalars)
        if match_ok:
            pool = list(eigs)
            for z in scalars:
                dists = [abs(z - w) for w in pool]
                if not dists or min(dists) > thr:
                    match_ok = False
                    break
                pool.pop(int(np.argmin(dists)))
        checks["scalar_eigenvalues"] = CheckResult(
            match_ok,
            ""
            if match_ok
            else f"scalars {scalars} do not match nonzero spectrum {eigs}",
        )

    m = len(cert.blocks)
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

    # the recorded diagonal against this verifier's own classes at the
    # structural zero of README "Tolerances"; a scalar's lambda within thr
    inside = (pos[:, None] == pos[None, :]) & (mag > ZERO_TOL * scale)
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


def _as_json(value) -> str:
    return canonical_dumps(value).rstrip("\n")
