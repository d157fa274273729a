"""The three workloads: seeded inputs, the timed operation, and the checks.

Each workload offers `round(k)`, the k-th list of operation inputs,
`run_op(item, call)`, one operation, and `key(item)`, which names the
distinct input an operation ran on. Every call into a kerneltri module goes
through `call(layer_name, fn, *args)`, so a traced run can record a span
around it. `check(kept)` rechecks one (input, output) pair per distinct
input independently and returns whether each is right, and the measured
input properties; it never raises.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from kerneltri import (
    FiniteRankOperator,
    StandardSet,
    TriangularizationCertificate,
    build_space,
    canonical_dumps,
    check_increasing_spectrum,
    densify,
    eigenvalues,
    find_nondegenerate_cycle,
    increasing_spectrum_block_form,
    kernel_operator,
    moment_identities,
    nested_chain,
    nilpotent_block_form,
    operator_from_dict,
    radius_profile,
    scc_triangularize,
    support_digraph,
    verify_certificate,
)

import instances as gen

TOL = gen.TOL


def _mix(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _histogram(values) -> dict:
    counts = Counter(values)
    return {str(v): counts[v] for v in sorted(counts)}


# --- sweep ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepInstance:
    cls: str  # "early" | "late" | "hold" | "sampled"
    family: str  # "dense" | "cycle2" | "hybrid" | "nilpotent" | "paper"
    space: object
    kernel: np.ndarray | None = None
    F: np.ndarray | None = None
    G: np.ndarray | None = None

    @property
    def holds(self) -> bool:
        return self.cls in ("hold", "sampled")

    def raw_kernel(self) -> np.ndarray:
        return self.kernel if self.kernel is not None else self.F @ self.G.T

    def entries(self) -> np.ndarray:
        w = gen.point_weights(self.space.num_cells, self.space.num_atoms)
        return self.raw_kernel() * w[None, :]

    def support(self) -> np.ndarray:
        kernel = self.raw_kernel()
        return np.abs(kernel) > gen.ZERO * gen.scale_of(kernel)


class Sweep:
    """One `check_increasing_spectrum` decision per operation; holding
    operators also get a certificate and `verify_certificate`.

    A round is 64 operators: 40 random dense ones that violate within six
    pairs, 8 with a 2-cycle planted on the two lowest-index points (the
    first witness comes after 5/9 of the pairs), 14 that hold (a full 3^p
    sweep) and 2 that hold on more than 12 points and take the sampled path.
    The holding ones set ops_per_s. The 11 full sweeps at p = 9 span the
    82nd to 98th percentiles, so op_tail_ms is the middle one of them, and
    the fail-fast majority sets op_p50_ms.
    """

    name = "sweep"
    MAX_POINTS = 12  # the library default: larger operators take the sampled path
    SAMPLES = 1000
    ROUND_SETS = 6

    def __init__(self, seed: int, tiny: bool = False):
        rng = _mix(seed, 1)
        if tiny:
            plan = [("early", "dense", p) for p in (5, 6)] + [
                ("late", "cycle2", 5), ("hold", "hybrid", 5), ("hold", "nilpotent", 6),
                ("hold", "paper", 5), ("sampled", "paper", 13),
            ]
        else:
            plan = (
                [("early", "dense", p) for p in (8, 9, 10, 11) for _ in range(10)]
                + [("late", "cycle2", p) for p in (8, 9) for _ in range(4)]
                + [("hold", "hybrid", 8), ("hold", "nilpotent", 8)]
                + [("hold", "paper", 9)] * 4 + [("hold", "hybrid", 9)] * 4
                + [("hold", "nilpotent", 9)] * 3
                + [("hold", "paper", 11), ("sampled", "paper", 13), ("sampled", "hybrid", 14)]
            )
        self.rounds = []
        for _ in range(1 if tiny else self.ROUND_SETS):
            items = [self._make(rng, *spec) for spec in plan]
            self.rounds.append([items[i] for i in rng.permutation(len(items))])

    @staticmethod
    def _make(rng, cls: str, family: str, p: int) -> SweepInstance:
        if family == "paper":
            space = build_space(0, range(2, p + 2))
            F, G = gen.paper_factors(rng, (p - 1) // 2)
            return SweepInstance(cls, family, space, F=F, G=G)
        cells = int(rng.integers(0, p // 2 + 1))
        space = build_space(cells, range(2, p - cells + 2))
        is_atom = np.arange(p) >= cells
        if family == "nilpotent":
            F, G = gen.nilpotent_factors(rng, p, int(rng.integers(2, 5)))
            return SweepInstance(cls, family, space, F=F, G=G)
        kernel = {
            "dense": lambda: gen.dense_kernel(rng, p),
            "cycle2": lambda: gen.late_violator_kernel(rng, is_atom),
            "hybrid": lambda: gen.hybrid_kernel(rng, is_atom),
        }[family]()
        return SweepInstance(cls, family, space, kernel=kernel)

    def round(self, k: int):
        return self.rounds[k % len(self.rounds)]

    def warmup(self, call):
        # first calls of every code path, on the smallest inputs
        for cls in ("early", "late", "hold"):
            for item in self.rounds[0]:
                if item.cls == cls and item.space.size <= 8:
                    self.run_op(item, call)
                    break

    def run_op(self, item: SweepInstance, call) -> dict:
        out = {}
        if item.F is not None:
            kfr = call("operators.build", FiniteRankOperator, item.space, item.F, item.G)
            K = call("operators.build", densify, kfr)
        else:
            K = call("operators.build", kernel_operator, item.space, item.kernel)
        rep = call(
            "increasing.check", check_increasing_spectrum, K,
            max_points=self.MAX_POINTS, samples=self.SAMPLES,
        )
        out["check"] = (rep.verdict, rep.pairs_checked, rep.exhaustive, rep.witness)
        if rep.verdict:
            if item.family == "nilpotent":
                cert = call("triangular.nilpotent", nilpotent_block_form, kfr)
                out["moments"] = call(
                    "cycles.moments",
                    lambda: moment_identities(
                        kfr, [StandardSet.from_indices(item.space, b) for b in cert.blocks]
                    ).passed,
                )
            else:
                cert = call("triangular.increasing", increasing_spectrum_block_form, K)
            out["blocks"] = cert.blocks
            out["verified"] = call("triangular.verify", verify_certificate, K, cert).passed
        return out

    @staticmethod
    def key(item: SweepInstance) -> int:
        return id(item)  # the instances live for the whole run

    def check(self, kept) -> tuple[list, dict]:
        ok = [self._correct(item, out) for item, out in kept]
        witness_pairs = [out["check"][1] for _, out in kept if not out["check"][0]]
        items = [item for r in self.rounds for item in r]
        props = {
            "points": _histogram(item.space.size for item in items),
            "hold_share": float(np.mean([item.holds for item in items])),
            "witness_pairs_mean": float(np.mean(witness_pairs)) if witness_pairs else 0.0,
            "acyclic_share": float(np.mean([gen.acyclic(item.support()) for item in items])),
        }
        return ok, props

    def _correct(self, item: SweepInstance, out: dict) -> bool:
        verdict, _, exhaustive, witness = out["check"]
        entries = item.entries()
        tol_eff = TOL * gen.scale_of(entries)
        if verdict != item.holds or exhaustive != (item.space.size <= self.MAX_POINTS):
            return False
        if not verdict:
            return gen.witness_holds(entries, witness, tol_eff)
        return (
            out["verified"]
            and out.get("moments", True)
            and gen.below_block_ok(item.support(), out["blocks"], item.space.size)
        )


# --- batch4 -----------------------------------------------------------------


class Batch4:
    """`kernel_operator` -> `check_increasing_spectrum` -> `scc_triangularize`
    -> `verify_certificate` on one 4x4 rank <= 2 sign matrix over 4 atoms,
    drawn from the 614,721-matrix family of the exhaustive acceptance
    sweep. Per-call overhead on tiny inputs dominates."""

    name = "batch4"
    ROUND = 64

    def __init__(self, seed: int, tiny: bool = False):
        rng = _mix(seed, 2)
        self.mats = gen.rank_le2_sign_matrices(rng, 128 if tiny else 16384)
        self.kernels = [m.astype(complex) for m in self.mats]
        self.space = build_space(0, [2, 3, 4, 5])

    def round(self, k: int):
        n = len(self.mats)
        start = (k * self.ROUND) % n
        return [(start + i) % n for i in range(self.ROUND)]

    def warmup(self, call):
        for i in range(16):
            self.run_op(i, call)

    def run_op(self, i: int, call) -> dict:
        K = call("operators.build", kernel_operator, self.space, self.kernels[i])
        rep = call("increasing.check", check_increasing_spectrum, K)
        cert = call("triangular.scc", scc_triangularize, K)
        ver = call("triangular.verify", verify_certificate, K, cert)
        return {
            "check": (rep.verdict, rep.pairs_checked, rep.exhaustive, rep.witness),
            "blocks": cert.blocks,
            "verified": ver.passed,
        }

    @staticmethod
    def key(i: int) -> int:
        return i

    def check(self, kept) -> tuple[list, dict]:
        used = [i for i, _ in kept]
        oracle = dict(zip(used, gen.oracle_increasing_4x4(self.mats[used])))
        ok = []
        witness_pairs = []
        for i, out in kept:
            verdict, pairs, exhaustive, witness = out["check"]
            good = verdict == oracle[i] and exhaustive and out["verified"]
            good = good and gen.below_block_ok(self.mats[i] != 0, out["blocks"], 4)
            if good and not verdict:
                good = gen.witness_holds(self.kernels[i], witness, TOL)
            ok.append(good)
            if not verdict:
                witness_pairs.append(pairs)
        props = {
            "points": {"4": len(used)},
            "hold_share": float(np.mean(list(oracle.values()))),
            "witness_pairs_mean": float(np.mean(witness_pairs)) if witness_pairs else 0.0,
            "acyclic_share": float(np.mean([gen.acyclic(self.mats[i] != 0) for i in used])),
        }
        return ok, props


# --- large ------------------------------------------------------------------


@dataclass(frozen=True)
class Descriptor:
    key: str
    family: str  # "volterra" | "ones" | "dense"
    desc: dict
    cert: dict
    kernel: np.ndarray  # raw kernel samples, for the checks
    cycles: tuple = ()  # planted cycles (dense only)


SUBCOMMANDS = ("spectrum", "cycles", "triangularize", "verify", "radius-profile")


def _with_dict(fn, *args, **kwargs):
    """fn's report and its `to_dict()`, so that one span charges the
    report's serialisation to the module that produced it."""
    report = fn(*args, **kwargs)
    return report, report.to_dict()


class Large:
    """One CLI subcommand per operation, as `kerneltri.cli` runs it:
    `operator_from_dict` -> library call -> `to_dict` -> `canonical_dumps`.
    A report's `to_dict` runs in the span of the call that produced it, so
    `jsonio.dump` is `canonical_dumps` alone.

    A round is 29 pipelines over volterra_linear descriptors of 128-512
    cells, ones_kernel(64) and a seeded sparse dense descriptor of 240
    points with planted cycles. Four exhaustive cycle searches on an acyclic
    192-cell Volterra support make up the top seventh of the latencies, so
    op_tail_ms is that search; three SCC certificates of the 256-cell
    Volterra operator sit in the middle, so op_p50_ms is one of them.
    """

    name = "large"
    STEPS = 16

    def __init__(self, seed: int, tiny: bool = False):
        rng = _mix(seed, 3)
        if tiny:
            sizes, ones, dense = (16, 24), 8, (12, 6)
            plan = [(cmd, f"V{n}") for n in sizes for cmd in SUBCOMMANDS]
        else:
            sizes, ones, dense = (128, 192, 256, 384, 512), 64, (180, 60)
            plan = (
                [("spectrum", "V512"), ("triangularize", "V512")]
                + [("verify", "V384"), ("radius-profile", "V384")]
                + [(c, "V256") for c in ("spectrum", "verify", "radius-profile")]
                + [("triangularize", "V256")] * 3
                + [("cycles", "V192")] * 4
                + [(c, "V128") for c in SUBCOMMANDS]
            )
        plan += [(c, "O") for c in SUBCOMMANDS] + [(c, "D") for c in SUBCOMMANDS]
        self.descs = {f"V{n}": self._volterra(n) for n in sizes}
        self.descs["O"] = self._ones(ones)
        desc, kernel, cycles, cert = gen.cyclic_dense_descriptor(
            rng, dense[0], dense[1], degree=2.0, windows=2 if tiny else 6
        )
        self.descs["D"] = Descriptor("D", "dense", desc, cert, kernel, tuple(map(tuple, cycles)))
        self.plan = [plan[i] for i in rng.permutation(len(plan))]

    @staticmethod
    def _volterra(n: int) -> Descriptor:
        blocks = [[i] for i in reversed(range(n))]
        cert = gen.scc_cert_dict(blocks, [("zero",)] * n)
        desc = {"kind": "named", "name": "volterra_linear", "cells": n}
        return Descriptor(f"V{n}", "volterra", desc, cert, gen.volterra_kernel(n))

    @staticmethod
    def _ones(n: int) -> Descriptor:
        cert = gen.scc_cert_dict([list(range(n))], [("irreducible",)])
        desc = {"kind": "named", "name": "ones_kernel", "cells": n}
        return Descriptor("O", "ones", desc, cert, np.ones((n, n)))

    def round(self, k: int):
        return [(cmd, self.descs[key]) for cmd, key in self.plan]

    def warmup(self, call):
        small = min((d for d in self.descs.values()), key=lambda d: d.kernel.shape[0])
        for cmd in SUBCOMMANDS:
            self.run_op((cmd, small), call)

    def run_op(self, item, call) -> dict:
        cmd, d = item
        K = call("jsonio.load", operator_from_dict, d.desc)
        out = {}
        if cmd == "spectrum":
            _, data = call("spectral.eigenvalues", _with_dict, eigenvalues, K, tol=TOL)
        elif cmd == "cycles":
            dg = call("cycles.digraph", support_digraph, K, None)
            cycle = call("cycles.find_cycle", find_nondegenerate_cycle, K, None)
            arcs = sum(len(s) for s in dg.successors)
            out["arcs"], out["cycle"] = arcs, cycle
            data = {
                "threshold": dg.threshold,
                "arcs": arcs,
                "cycle": None if cycle is None else list(cycle),
            }
        elif cmd == "triangularize":
            report, data = call("triangular.scc", _with_dict, scc_triangularize, K)
            out["blocks"] = report.blocks
        elif cmd == "verify":
            cert = TriangularizationCertificate.from_dict(d.cert)
            report, data = call(
                "triangular.verify", _with_dict, verify_certificate, K, cert, tol=TOL
            )
            out["verified"] = report.passed
        else:
            chain = call("spaces.chain", nested_chain, K.space, self.STEPS)
            profile = call("increasing.radius", radius_profile, K, chain)
            data = {
                "steps": self.STEPS,
                "profile": profile,
                "set_sizes": [s.size for s in chain],
            }
        out["text"] = call("jsonio.dump", canonical_dumps, data)
        return out

    @staticmethod
    def key(item) -> tuple:
        cmd, d = item
        return cmd, d.key

    def check(self, kept) -> tuple[list, dict]:
        ok = [self._correct(cmd, d, out) for (cmd, d), out in kept]
        plan = self.round(0)
        acyclic = {key: gen.acyclic(self._support(d)) for key, d in self.descs.items()}
        props = {
            "points": _histogram(d.kernel.shape[0] for _, d in plan),
            "acyclic_share": float(np.mean([acyclic[d.key] for _, d in plan])),
        }
        return ok, props

    @staticmethod
    def _support(d: Descriptor) -> np.ndarray:
        return np.abs(d.kernel) > gen.ZERO * gen.scale_of(d.kernel)

    def _correct(self, cmd: str, d: Descriptor, out: dict) -> bool:
        """Recheck one output against what the descriptor is known to be."""
        try:
            data = json.loads(out["text"])
        except ValueError:
            return False
        p = d.kernel.shape[0]
        support = self._support(d)
        if cmd == "spectrum":
            ok = len(data["eigenvalues"]) == p
            if d.family == "volterra":
                ok = ok and data["quasinilpotent"]
            if d.family == "ones":
                ok = ok and abs(data["radius"] - 1.0) <= TOL
            return ok
        if cmd == "cycles":
            cycle = out["cycle"]
            if data["arcs"] != int(support.sum()):
                return False
            if d.family == "volterra":
                return cycle is None
            if d.family == "ones":
                return cycle == (0, 1)
            girth = min(len(c) for c in d.cycles)
            return (
                cycle is not None
                and len(cycle) == girth
                and tuple(sorted(cycle)) in d.cycles
                and all(support[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            )
        if cmd == "triangularize":
            return gen.below_block_ok(support, out["blocks"], p)
        if cmd == "verify":
            return out["verified"]
        sizes, profile = data["set_sizes"], data["profile"]
        ok = len(sizes) == len(profile) and all(a < b for a, b in zip(sizes, sizes[1:]))
        if d.family == "volterra":
            ok = ok and max(profile) <= TOL
        if d.family == "ones":
            ok = ok and all(abs(r - s / p) <= TOL for r, s in zip(profile, sizes))
        return ok


WORKLOADS = {w.name: w for w in (Sweep, Batch4, Large)}
