import copy
import hashlib
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NEAR_DEGENERATE_ATOMS,
    count_decompositions,
    forbid_eigenvalues,
    random_nilpotent_instance,
    reference_canonical_dumps,
    reference_complex_matrix,
    volterra_and_two_cycle,
)

from kerneltri import (
    PreconditionError,
    StandardSet,
    canonical_dumps,
    densify,
    moment_identities,
    named_operator,
    nilpotent_block_form,
    operator_from_dict,
    sharpness_example,
)
from kerneltri.cli import MAX_POINTS_LIMIT, main
from kerneltri.jsonio import _complex_matrix
from kerneltri.operators import DEFAULT_TOL, magnitude


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def example_file(tmp_path):
    return write_json(tmp_path, "op.json", {"kind": "named", "name": "paper_example_2"})


class TestSpectrum:
    def test_named_example(self, tmp_path, example_file):
        code, text = run(tmp_path, "spectrum", "--in", example_file)
        assert code == 0
        data = json.loads(text)
        assert data["radius"] == pytest.approx(1.0)
        assert not data["quasinilpotent"]
        assert len(data["eigenvalues"]) == 5

    def test_dense_descriptor(self, tmp_path):
        op = write_json(
            tmp_path,
            "dense.json",
            {
                "kind": "dense",
                "space": {"cells": 0, "atoms": [2, 3]},
                "kernel": [[0.0, 1.0], [0.0, 0.0]],
            },
        )
        code, text = run(tmp_path, "spectrum", "--in", op)
        assert code == 0
        assert json.loads(text)["quasinilpotent"]

    def test_finite_rank_descriptor(self, tmp_path):
        op = write_json(
            tmp_path,
            "fr.json",
            {
                "kind": "finite_rank",
                "space": {"cells": 0, "atoms": [2, 3]},
                "F": [[1.0], [0.0]],
                "G": [[0.0], [[1.0, 0.0]]],
            },
        )
        code, text = run(tmp_path, "spectrum", "--in", op)
        assert code == 0


class TestCheckIncreasing:
    def test_example_passes(self, tmp_path, example_file):
        code, text = run(tmp_path, "check-increasing", "--in", example_file)
        assert code == 0
        data = json.loads(text)
        assert data["verdict"] and data["exhaustive"]
        assert data["pairs_checked"] == 243

    def test_violation_gives_exit_one_and_witness(self, tmp_path):
        op = write_json(
            tmp_path,
            "swap.json",
            {
                "kind": "dense",
                "space": {"cells": 0, "atoms": [2, 3]},
                "kernel": [[0.0, 1.0], [1.0, 0.0]],
            },
        )
        code, text = run(tmp_path, "check-increasing", "--in", op)
        assert code == 1
        data = json.loads(text)
        assert not data["verdict"]
        assert "witness" in data

    def test_structural_mode_above_max_points(self, tmp_path):
        op = write_json(
            tmp_path,
            "vol.json",
            {"kind": "named", "name": "volterra_linear", "cells": 16},
        )
        code, text = run(tmp_path, "check-increasing", "--in", op)
        assert code == 0
        assert not json.loads(text)["exhaustive"]

    def test_found_reproduction_fails_on_its_two_cycle(self, tmp_path, monkeypatch):
        # 128 Volterra cells plus two atoms carrying [[0, 1], [2, 0]]: one
        # eigen-decomposition, of the 2x2 compression to the cycle
        K = volterra_and_two_cycle(128)
        op = write_json(
            tmp_path,
            "found.json",
            {
                "kind": "dense",
                "space": {"cells": 128, "atoms": [2, 3]},
                "kernel": K.kernel_values.real.tolist(),
            },
        )
        counts = count_decompositions(monkeypatch)
        code, text = run(tmp_path, "check-increasing", "--in", op)
        assert code == 1
        assert counts == [(2, 1)]
        assert json.loads(text) == {
            "verdict": False,
            "pairs_checked": 1,
            "exhaustive": False,
            "tol": 1e-8,
            "witness": {"E": [128], "F": [128, 129], "eigenvalue": [0.0, 0.0]},
        }

    def test_tolerance_band_exits_two(self, tmp_path, capsys):
        # README Tolerances, example A on 13 atoms: the structural rule
        # proves neither verdict, and --max-points 13 decides it
        kernel = np.zeros((13, 13))
        kernel[0, 1] = kernel[1, 0] = 1e-9
        op = write_json(
            tmp_path,
            "band.json",
            {"kind": "dense", "space": {"atoms": list(range(2, 15))}, "kernel": kernel.tolist()},
        )
        capsys.readouterr()
        code, text = run(tmp_path, "check-increasing", "--in", op)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: the shortest cycle [0, 1] ")
        code, text = run(tmp_path, "check-increasing", "--in", op, "--max-points", "13")
        assert code == 0
        assert json.loads(text) == {
            "verdict": True, "pairs_checked": 3**13, "exhaustive": True, "tol": 1e-8
        }


class TestAcyclicSupportsNeedNoEigenvalues:
    """Spectra and profiles of exactly acyclic supports read the diagonal:
    no eigen-decomposition runs."""

    def test_volterra_512(self, tmp_path, monkeypatch):
        op = write_json(
            tmp_path, "v512.json", {"kind": "named", "name": "volterra_linear", "cells": 512}
        )
        forbid_eigenvalues(monkeypatch)
        code, text = run(tmp_path, "spectrum", "--in", op)
        assert code == 0
        data = json.loads(text)
        assert data["quasinilpotent"] and data["radius"] == 0.0
        assert data["eigenvalues"] == [[0.0, 0.0]] * 512
        for steps in ("16", str(10**12)):
            code, text = run(tmp_path, "radius-profile", "--in", op, "--steps", steps)
            assert code == 0
            data = json.loads(text)
            assert data["profile"] == [0.0] * len(data["set_sizes"])
        assert data["set_sizes"] == list(range(513))
        code, text = run(tmp_path, "check-increasing", "--in", op)
        assert code == 0
        assert json.loads(text) == {
            "verdict": True, "pairs_checked": 3**512, "exhaustive": False, "tol": 1e-8
        }


class TestCycles:
    def test_acyclic_example(self, tmp_path, example_file):
        code, text = run(tmp_path, "cycles", "--in", example_file)
        assert code == 0
        data = json.loads(text)
        assert data["cycle"] is None
        assert data["arcs"] == 12  # count of printed 1-entries

    def test_cycle_found_gives_exit_one(self, tmp_path):
        op = write_json(
            tmp_path,
            "swap.json",
            {
                "kind": "dense",
                "space": {"cells": 0, "atoms": [2, 3]},
                "kernel": [[0.0, 1.0], [1.0, 0.0]],
            },
        )
        code, text = run(tmp_path, "cycles", "--in", op)
        assert code == 1
        assert json.loads(text)["cycle"] == [0, 1]

    def test_threshold_removes_arcs(self, tmp_path):
        op = write_json(
            tmp_path,
            "weak.json",
            {
                "kind": "dense",
                "space": {"cells": 0, "atoms": [2, 3]},
                "kernel": [[0.0, 1e-6], [1e-6, 0.0]],
            },
        )
        code, text = run(tmp_path, "cycles", "--in", op, "--threshold", "1e-3")
        assert code == 0
        assert json.loads(text)["arcs"] == 0


class TestMoments:
    def test_nilpotent_kernel_passes(self, tmp_path):
        op = write_json(
            tmp_path,
            "nil.json",
            {
                "operator": {
                    "kind": "dense",
                    "space": {"cells": 0, "atoms": [2, 3, 4]},
                    "kernel": [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
                },
                "sets": [[0], [1, 2]],
            },
        )
        code, text = run(tmp_path, "moments", "--in", op)
        assert code == 0
        assert json.loads(text)["passed"]

    def test_missing_sets_is_input_error(self, tmp_path, example_file):
        code, _ = run(tmp_path, "moments", "--in", example_file)
        assert code == 2

    @pytest.mark.parametrize("tol", [[], ["--tol", "0"]], ids=["default-tol", "tol-0"])
    @pytest.mark.parametrize("cells", [8, 256])
    def test_volterra_singletons_have_exact_zero_residuals(self, tmp_path, cells, tol):
        # a strictly lower triangular kernel makes every a[x,y] a[y,x]
        # exactly 0, while its reconstruction from SVD factors leaves
        # roundoff of about 1e-18 there
        desc = {"kind": "named", "name": "volterra_linear", "cells": cells,
                "sets": [[i] for i in range(cells)]}
        op = write_json(tmp_path, "singletons.json", desc)
        code, text = run(tmp_path, "moments", "--in", op, *tol)
        assert code == 0
        assert '"max_residual":0.0,' in text

    def test_library_default_tol_is_the_cli_default(self, tmp_path):
        # the cross residual 5e-9 passes at DEFAULT_TOL = 1e-8, not at 1e-9
        operator = {
            "kind": "dense",
            "space": {"cells": 0, "atoms": [2, 3]},
            "kernel": [[0, 1], [5e-9, 0]],
        }
        op = write_json(tmp_path, "op.json", {"operator": operator, "sets": [[0], [1]]})
        code, text = run(tmp_path, "moments", "--in", op)
        K = operator_from_dict(operator)
        report = moment_identities(K, [StandardSet.from_indices(K.space, [i]) for i in (0, 1)])
        assert report.tol == DEFAULT_TOL and report.passed
        assert code == 0
        assert text == canonical_dumps(report.to_dict())

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_finite_rank_report_matches_library(self, seed):
        kfr, blocks = random_nilpotent_instance(np.random.default_rng(seed))
        desc = {
            "kind": "finite_rank",
            "space": {"cells": 0, "atoms": list(kfr.space.atom_ids)},
            "F": [[[z.real, z.imag] for z in row] for row in kfr.F],
            "G": [[[z.real, z.imag] for z in row] for row in kfr.G],
            "sets": blocks,
        }
        with tempfile.TemporaryDirectory() as tmp:
            op = write_json(Path(tmp), "op.json", desc)
            code, text = run(Path(tmp), "moments", "--in", op, "--tol", "1e-8")
        sets = [StandardSet.from_indices(kfr.space, b) for b in blocks]
        report = moment_identities(densify(kfr), sets, tol=1e-8)
        assert code == (0 if report.passed else 1)
        assert text == canonical_dumps(report.to_dict())


    @pytest.mark.parametrize("sets", [[[0.5]], [[0], [1.0]], [[True]], [0, 1], {"a": [0]}])
    def test_non_integer_sets_are_input_errors(self, tmp_path, sets):
        op = write_json(
            tmp_path,
            "nil.json",
            {
                "operator": {
                    "kind": "dense",
                    "space": {"cells": 0, "atoms": [2, 3]},
                    "kernel": [[0, 1], [0, 0]],
                },
                "sets": sets,
            },
        )
        code, text = run(tmp_path, "moments", "--in", op)
        assert code == 2
        assert text == ""

    def test_empty_sets_are_refused_at_once(self, tmp_path, capsys):
        # empty sets are disjoint from everything, so nothing else bounds
        # their number; the report would grow with its square
        op = write_json(
            tmp_path,
            "vol.json",
            {"kind": "named", "name": "volterra_linear", "cells": 8, "sets": [[]] * 2000},
        )
        start = time.perf_counter()
        code, text = run(tmp_path, "moments", "--in", op)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def flip_multiplicity_free(cert):
    return {**cert, "multiplicity_free": not cert["multiplicity_free"]}


class TestTriangularize:
    def test_scc(self, tmp_path, example_file):
        code, text = run(tmp_path, "triangularize", "--in", example_file, "--kind", "scc")
        assert code == 0
        data = json.loads(text)
        assert data["kind"] == "scc"
        assert sorted(i for b in data["blocks"] for i in b) == [0, 1, 2, 3, 4]

    def test_increasing_on_example(self, tmp_path, example_file):
        code, text = run(
            tmp_path, "triangularize", "--in", example_file, "--kind", "increasing"
        )
        assert code == 0
        data = json.loads(text)
        assert data["bound"] == {"m": 5, "limit": 5, "rank": 2}
        assert data["residual"] == 0.0

    def test_nilpotent_violation_reports_error(self, tmp_path):
        # nonzero spectrum that no atom diagonal carries
        op = write_json(
            tmp_path,
            "bad.json",
            {
                "kind": "dense",
                "space": {"cells": 0, "atoms": [2, 3]},
                "kernel": [[0.0, 1.0], [0.0, 1.0]],
            },
        )
        code, text = run(tmp_path, "triangularize", "--in", op, "--kind", "nilpotent")
        assert code == 2  # precondition, not a theorem violation

    def test_increasing_violation_prints_its_error_report(self, tmp_path, capsys):
        # the atom diagonal [0, 0] does not carry the spectrum {1, -1}: exit
        # 1, with the report on stdout since no --out is given
        desc = {"kind": "dense", "space": {"atoms": [2, 3]}, "kernel": [[0, 1], [1, 0]]}
        op = write_json(tmp_path, "swap.json", desc)
        assert main(["triangularize", "--in", op, "--kind", "increasing"]) == 1
        assert capsys.readouterr() == (
            '{"error":"atom diagonal multiset does not match the nonzero spectrum"}\n', ""
        )

    def test_nilpotent_on_volterra_uses_the_exact_kernel(self, tmp_path):
        # a refactored kernel carries roundoff into the zero triangle, which
        # made its 3-point compressions fail the nilpotence precondition
        desc = {"kind": "named", "name": "volterra_linear", "cells": 8}
        op = write_json(tmp_path, "v8.json", desc)
        code, text = run(tmp_path, "triangularize", "--in", op, "--kind", "nilpotent")
        assert code == 0
        assert json.loads(text)["residual"] == 0.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nilpotent_certificate_matches_library(self, seed):
        kfr, _ = random_nilpotent_instance(np.random.default_rng(seed))
        kernel = kfr.kernel_matrix()
        desc = {
            "kind": "dense",
            "space": {"cells": 0, "atoms": list(kfr.space.atom_ids)},
            "kernel": [[[z.real, z.imag] for z in row] for row in kernel],
        }
        with tempfile.TemporaryDirectory() as tmp:
            op = write_json(Path(tmp), "op.json", desc)
            code, text = run(Path(tmp), "triangularize", "--in", op, "--kind", "nilpotent")
        assert code == 0
        assert text == canonical_dumps(nilpotent_block_form(kfr).to_dict())

    def test_round_trip_verify(self, tmp_path, example_file):
        cert_file = tmp_path / "cert.json"
        code = main(
            [
                "triangularize",
                "--in",
                example_file,
                "--kind",
                "increasing",
                "--out",
                str(cert_file),
            ]
        )
        assert code == 0
        code, text = run(
            tmp_path, "verify", "--in", example_file, "--cert", str(cert_file)
        )
        assert code == 0
        assert json.loads(text)["passed"]

    @pytest.mark.parametrize(
        "kind, tamper, check",
        [
            ("increasing", lambda c: {**c, "blocks": c["blocks"][::-1]}, "residual"),
            ("increasing", lambda c: {**c, "bound": {**c["bound"], "m": 99}}, "recorded_counts"),
            ("increasing", lambda c: {**c, "bound": {**c["bound"], "limit": 1}}, "recorded_counts"),
            ("increasing", lambda c: {**c, "bound": {**c["bound"], "limit": None}}, "recorded_counts"),
            ("increasing", lambda c: {**c, "bound": {**c["bound"], "rank": 7}}, "recorded_counts"),
            ("increasing", flip_multiplicity_free, "recorded_counts"),
            ("nilpotent", lambda c: {**c, "bound": {**c["bound"], "m": 1}}, "recorded_counts"),
            ("nilpotent", lambda c: {**c, "bound": {**c["bound"], "rank": 0}}, "recorded_counts"),
            ("nilpotent", flip_multiplicity_free, "recorded_counts"),
            ("scc", lambda c: {**c, "bound": {**c["bound"], "m": 99}}, "recorded_counts"),
            ("scc", lambda c: {**c, "bound": {**c["bound"], "limit": 5}}, "recorded_counts"),
            ("scc", lambda c: {**c, "bound": {**c["bound"], "rank": 2}}, "recorded_counts"),
            ("scc", flip_multiplicity_free, "recorded_counts"),
            ("scc", lambda c: {**c, "residual": 5.0}, "recorded_counts"),
            ("nilpotent", lambda c: {**c, "residual": 1e-3}, "recorded_counts"),
            ("increasing", lambda c: {**c, "residual": -1.0}, "recorded_counts"),
        ],
        ids=[
            "increasing-reversed", "increasing-m", "increasing-limit", "increasing-limit-null",
            "increasing-rank", "increasing-multiplicity-free", "nilpotent-m", "nilpotent-rank",
            "nilpotent-multiplicity-free", "scc-m", "scc-limit", "scc-rank",
            "scc-multiplicity-free", "scc-residual", "nilpotent-residual",
            "increasing-residual",
        ],
    )
    def test_verify_rejects_tampered_certificate(self, tmp_path, kind, tamper, check):
        desc = (
            {"kind": "named", "name": "volterra_linear", "cells": 4}
            if kind == "nilpotent"
            else {"kind": "named", "name": "paper_example_2"}
        )
        op = write_json(tmp_path, "op.json", desc)
        cert_file = tmp_path / "cert.json"
        assert main(["triangularize", "--in", op, "--kind", kind, "--out", str(cert_file)]) == 0
        code, text = run(tmp_path, "verify", "--in", op, "--cert", str(cert_file))
        assert code == 0
        assert json.loads(text)["checks"]["recorded_counts"] == {"passed": True, "detail": ""}
        cert = json.loads(cert_file.read_text())
        cert_file.write_text(json.dumps(tamper(cert)))
        code, text = run(tmp_path, "verify", "--in", op, "--cert", str(cert_file))
        assert code == 1
        report = json.loads(text)
        assert not report["passed"]
        assert not report["checks"][check]["passed"]

    def test_verify_names_every_wrong_count(self, tmp_path):
        # the scc certificate of paper_example_1 with each recorded count
        # edited; the diagonal is left as recorded
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "paper_example_1"})
        cert = json.loads(Path(_certificate(tmp_path, op)).read_text())
        assert cert["bound"] == {"m": 3, "limit": None, "rank": None}
        assert cert["multiplicity_free"] is True
        cert.update(bound={"m": 99, "limit": 1, "rank": 7}, multiplicity_free=False)
        code, text = run(
            tmp_path, "verify", "--in", op, "--cert", write_json(tmp_path, "bad.json", cert)
        )
        assert code == 1
        assert json.loads(text)["checks"]["recorded_counts"] == {
            "passed": False,
            "detail": "bound.m 99 != 3; bound.limit 1 != null; bound.rank 7 != null; "
            "multiplicity_free false != true",
        }

    @pytest.mark.parametrize(
        "tamper, detail",
        [
            (
                lambda d: [{"block": e["block"], "class": "irreducible"} for e in d],
                "block 0 class irreducible != zero; block 1 class irreducible != scalar; "
                "block 2 class irreducible != zero",
            ),
            (lambda d: [d[1], d[0], d[2]], "blocks [1,0,2] != 0..2"),
            (lambda d: d[:2], "blocks [0,1] != 0..2"),
            (lambda d: d + [{"block": 3, "class": "zero"}], "blocks [0,1,2,3] != 0..2"),
            (
                lambda d: [{**d[0], "class": "irreducible"}] + d[1:],
                "block 0 class irreducible != zero",
            ),
            (lambda d: [d[0], {**d[1], "class": "zero"}, d[2]], "block 1 class zero != scalar"),
            (
                lambda d: [d[0], {**d[1], "lambda": [2.0, 0.0]}, d[2]],
                "block 1 lambda [2.0,0.0] != [1.0,0.0]",
            ),
            (
                lambda d: [d[0], {"block": 1, "class": "scalar"}, d[2]],
                "block 1 lambda null != [1.0,0.0]",
            ),
            (
                lambda d: [{**d[0], "lambda": [0.0, 0.0]}] + d[1:],
                "block 0 lambda [0.0,0.0] != null",
            ),
        ],
        ids=[
            "all-irreducible", "reordered", "dropped", "extra", "zero-class", "scalar-class",
            "lambda", "lambda-missing", "lambda-on-zero",
        ],
    )
    def test_verify_rechecks_the_recorded_diagonal(self, tmp_path, tamper, detail):
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "paper_example_1"})
        cert = json.loads(Path(_certificate(tmp_path, op)).read_text())
        assert cert["diagonal"] == [
            {"block": 0, "class": "zero"},
            {"block": 1, "class": "scalar", "lambda": [1.0, 0.0]},
            {"block": 2, "class": "zero"},
        ]
        cert["diagonal"] = tamper(cert["diagonal"])
        code, text = run(
            tmp_path, "verify", "--in", op, "--cert", write_json(tmp_path, "edited.json", cert)
        )
        assert code == 1
        report = json.loads(text)
        assert not report["passed"]
        assert report["checks"]["recorded_diagonal"] == {"passed": False, "detail": detail}
        assert [name for name, c in report["checks"].items() if not c["passed"]] == [
            "recorded_diagonal"
        ]

    @pytest.mark.parametrize(
        "kind, tamper, detail",
        [
            (
                "increasing",
                lambda d: [d[0], {**d[1], "lambda": [1.0, 1e-3]}] + d[2:],
                "block 1 lambda [1.0,0.001] != [1.0,0.0]",
            ),
            (
                "increasing",
                lambda d: [d[0], {"block": 1, "class": "zero"}] + d[2:],
                "block 1 class zero != scalar",
            ),
            (
                "nilpotent",
                lambda d: [{**d[0], "class": "irreducible"}] + d[1:],
                "block 0 class irreducible != zero",
            ),
        ],
        ids=["increasing-lambda", "increasing-class", "nilpotent-class"],
    )
    def test_verify_rechecks_the_diagonal_of_every_kind(self, tmp_path, kind, tamper, detail):
        desc = (
            {"kind": "named", "name": "volterra_linear", "cells": 4}
            if kind == "nilpotent"
            else {"kind": "named", "name": "paper_example_2"}
        )
        op = write_json(tmp_path, "op.json", desc)
        cert_file = tmp_path / "cert.json"
        assert main(["triangularize", "--in", op, "--kind", kind, "--out", str(cert_file)]) == 0
        cert = json.loads(cert_file.read_text())
        cert["diagonal"] = tamper(cert["diagonal"])
        cert_file.write_text(json.dumps(cert))
        code, text = run(tmp_path, "verify", "--in", op, "--cert", str(cert_file))
        assert code == 1
        report = json.loads(text)
        assert report["checks"]["recorded_diagonal"] == {"passed": False, "detail": detail}

    @pytest.mark.parametrize(
        "edit",
        [
            # a lambda within tol · max(1, max|k|) of k(x, x)
            lambda c: c["diagonal"][1].update({"lambda": [1.0 + 2**-30, -(2**-30)]}),
            # the recorded tol is not rechecked: an scc certificate may
            # record the spectral tol instead of the structural zero
            lambda c: c.update(tol=1e-8),
        ],
        ids=["lambda-within-tol", "tol"],
    )
    def test_verify_accepts_a_diagonal_that_holds(self, tmp_path, edit):
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "paper_example_1"})
        cert = json.loads(Path(_certificate(tmp_path, op)).read_text())
        edit(cert)
        code, text = run(
            tmp_path, "verify", "--in", op, "--cert", write_json(tmp_path, "edited.json", cert)
        )
        assert code == 0
        assert json.loads(text)["checks"]["recorded_diagonal"] == {"passed": True, "detail": ""}

    def test_verify_rejects_an_scc_block_that_is_not_strongly_connected(self, tmp_path):
        # one block of all three points, with every recorded field made to
        # agree with it: only the blocks' strong connectivity is wrong
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "paper_example_1"})
        cert = json.loads(Path(_certificate(tmp_path, op)).read_text())
        assert cert["blocks"] == [[0], [1], [2]]
        cert.update(
            blocks=[[0, 1, 2]],
            diagonal=[{"block": 0, "class": "irreducible"}],
            bound={**cert["bound"], "m": 1},
            multiplicity_free=False,
        )
        code, text = run(
            tmp_path, "verify", "--in", op, "--cert", write_json(tmp_path, "forged.json", cert)
        )
        assert code == 1
        report = json.loads(text)
        assert [name for name, c in report["checks"].items() if not c["passed"]] == [
            "strong_components"
        ]
        assert report["checks"]["strong_components"]["detail"] == (
            "blocks [0] are not strongly connected"
        )

    def test_verify_rejects_a_split_strong_component(self, tmp_path):
        # the one strong component of [[0, 1], [1e-9, 0]] split into two
        # singletons, with every recorded field made to agree: the arc back
        # lies inside the residual's tol * scale
        desc = {"kind": "dense", "space": {"atoms": [2, 3]}, "kernel": [[0, 1], [1e-9, 0]]}
        op = write_json(tmp_path, "op.json", desc)
        cert = json.loads(Path(_certificate(tmp_path, op)).read_text())
        assert cert["blocks"] == [[0, 1]]
        cert.update(
            blocks=[[0], [1]],
            diagonal=[{"block": 0, "class": "zero"}, {"block": 1, "class": "zero"}],
            bound={**cert["bound"], "m": 2},
            residual=1e-9,
            multiplicity_free=True,
        )
        code, text = run(
            tmp_path, "verify", "--in", op, "--cert", write_json(tmp_path, "forged.json", cert)
        )
        assert code == 1
        report = json.loads(text)
        assert [name for name, c in report["checks"].items() if not c["passed"]] == [
            "strong_components"
        ]
        assert report["checks"]["strong_components"]["detail"] == (
            "an arc leads back to an earlier block: 1.000e-09 > 1.000e-10"
        )

    @pytest.mark.parametrize(
        "residual, tol, detail",
        [
            (5.0, "1e-8", "residual 5.0 != 0.0"),
            # within tol · max(1, max|k|) of the measured 0.0, as rounding
            # on another BLAS may leave it
            (2**-30, "1e-8", ""),
            (0.0, "0", ""),
            (2**-30, "0", "residual 9.3132257461547852e-10 != 0.0"),
        ],
    )
    def test_verify_rechecks_the_recorded_residual(self, tmp_path, residual, tol, detail):
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "paper_example_1"})
        cert = json.loads(Path(_certificate(tmp_path, op)).read_text())
        assert cert["residual"] == 0.0
        cert["residual"] = residual
        code, text = run(
            tmp_path, "verify", "--in", op, "--cert", write_json(tmp_path, "edited.json", cert),
            "--tol", tol,
        )
        assert code == (1 if detail else 0)
        assert json.loads(text)["checks"]["recorded_counts"] == {
            "passed": not detail,
            "detail": detail,
        }

    @pytest.mark.parametrize("entry", [float, bool])
    def test_verify_reports_non_integer_block_entries(self, tmp_path, entry):
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "paper_example_1"})
        cert_file = tmp_path / "cert.json"
        assert main(["triangularize", "--in", op, "--kind", "scc", "--out", str(cert_file)]) == 0
        cert = json.loads(cert_file.read_text())
        cert["blocks"] = [[entry(i) if i < 2 else i for i in b] for b in cert["blocks"]]
        cert_file.write_text(json.dumps(cert))
        code, text = run(tmp_path, "verify", "--in", op, "--cert", str(cert_file))
        assert code == 1
        report = json.loads(text)
        assert not report["passed"]
        assert not report["checks"]["partition"]["passed"]


class TestRadiusProfile:
    def test_volterra(self, tmp_path):
        op = write_json(
            tmp_path,
            "vol.json",
            {"kind": "named", "name": "volterra_linear", "cells": 32},
        )
        code, text = run(tmp_path, "radius-profile", "--in", op, "--steps", "8")
        assert code == 0
        data = json.loads(text)
        assert data["set_sizes"] == [0, 4, 8, 12, 16, 20, 24, 28, 32]
        assert max(data["profile"]) <= 1e-10

    def test_rejects_atomic_space(self, tmp_path, example_file):
        code, _ = run(tmp_path, "radius-profile", "--in", example_file)
        assert code == 2

    def test_huge_steps_cost_one_pass_per_set(self, tmp_path):
        op = write_json(tmp_path, "vol.json", {"kind": "named", "name": "volterra_linear", "cells": 8})
        start = time.perf_counter()
        code, text = run(tmp_path, "radius-profile", "--in", op, "--steps", str(10**12))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(text)["set_sizes"] == list(range(9))


def _atoms(kernel) -> dict:
    """A dense descriptor of `kernel` on one atom per row."""
    return {"kind": "dense", "space": {"atoms": list(range(2, len(kernel) + 2))}, "kernel": kernel}


def _late_two_cycle(p: int, diagonal: bool) -> dict:
    """A 2-cycle on points 0 and 1 of `p`, upper triangular elsewhere (with
    a diagonal on points 2 .. p-1, or strictly)."""
    kernel = [[float(i + j) if 2 <= i <= j and (diagonal or i < j) else 0.0 for j in range(p)]
              for i in range(p)]
    kernel[0][1], kernel[1][0] = 1.5, -0.75
    return _atoms(kernel)


_VOLTERRA_8 = {"kind": "named", "name": "volterra_linear", "cells": 8}
_PATH_40 = _atoms([[1.0 if j == i + 1 else 0.0 for j in range(40)] for i in range(40)])


class TestHandBuiltDescriptors:
    """Whole commands on hand-built descriptors: the exit code and the
    fragments their output must hold (stdout for exit 0 and 1, the one
    stderr line for exit 2)."""

    @pytest.mark.parametrize(
        "desc, argv, code, fragments",
        [
            (_VOLTERRA_8, ["spectrum"], 0, ['"quasinilpotent":true']),
            (_VOLTERRA_8, ["cycles"], 0, ['"cycle":null']),
            (_VOLTERRA_8, ["triangularize", "--kind", "scc"], 0, ['"blocks":[[7],[6],']),
            # a planted 2-cycle on points 1 and 2, a self-loop and an arc into
            # the cycle
            (
                _atoms([[0, 1, 0, 0], [0, 0, 2, 0], [0, [0, 3], 0, 0], [0, 0, 1, 4]]),
                ["cycles"],
                1,
                ['"cycle":[1,2]'],
            ),
            # the paper's rank-3 example needs all 2n + 1 = 7 blocks
            (
                {"kind": "named", "name": "paper_example_3"},
                ["triangularize", "--kind", "increasing"],
                0,
                ['"m":7,'],
            ),
            # a directed path on 40 atoms, the most points the Python side
            # of the Frobenius form takes: Tarjan recurses 40 deep
            (_PATH_40, ["triangularize", "--kind", "scc"], 0, ['"blocks":[[0],[1],']),
            (_PATH_40, ["verify"], 0, ['"passed":true}']),
            # four atom diagonals within 1.2e-8 of 1: a pairing of the scalars
            # with the spectrum within tol exists, though not the nearest-first
            (
                _atoms(NEAR_DEGENERATE_ATOMS),
                ["verify", "increasing"],
                0,
                ['"scalar_eigenvalues":{"detail":"","passed":true}', '"passed":true}'],
            ),
            # a cyclic shift on 24 atoms: its one 24-cycle gives the witness
            (
                _atoms([[1.0 if j == (i + 1) % 24 else 0.0 for j in range(24)] for i in range(24)]),
                ["check-increasing"],
                1,
                ['"witness":{"E":[0],"F":[0,1,2,'],
            ),
            # the exhaustive scan meets the late 2-cycle's witness after 5/9
            # of the 3^12 pairs
            (
                _late_two_cycle(12, diagonal=True),
                ["check-increasing"],
                1,
                ['"pairs_checked":295246', '"witness":{"E":[1],"F":[0,1],'],
            ),
            # under a strictly upper triangular rest, the nilpotence scan
            # names {0, 1} after the 12 singletons and the 66 pairs
            (
                _late_two_cycle(12, diagonal=False),
                ["triangularize", "--kind", "nilpotent"],
                2,
                ["points [0, 1] is not nilpotent"],
            ),
        ],
        ids=[
            "volterra8-spectrum", "volterra8-cycles", "volterra8-scc", "planted-cycle",
            "paper3-increasing", "path40-scc", "path40-verify", "near-degenerate-verify",
            "shift24", "late12", "late12-nilpotent",
        ],
    )
    def test_exit_code_and_output(self, tmp_path, capsys, desc, argv, code, fragments):
        op = write_json(tmp_path, "op.json", desc)
        if argv[0] == "verify":  # of the certificate of kind argv[1:], or scc
            argv = ["verify", "--cert", _certificate(tmp_path, op, *argv[1:])]
        capsys.readouterr()
        got, text = run(tmp_path, argv[0], "--in", op, *argv[1:])
        err = capsys.readouterr().err
        assert got == code
        if code == 2:
            assert text == "" and err.startswith("error: ") and err.count("\n") == 1
            text = err
        for fragment in fragments:
            assert fragment in text


#: every certificate field the verifier does not read, each of the wrong type
_UNREAD_CERTIFICATE_FIELDS = {
    "tol": "abc",
    "residual": [1],
    "multiplicity_free": 5,
    "bound": {"m": "x", "limit": "y", "rank": {}},
    "diagonal": [{"block": "q", "class": "nonsense"}],
}


class TestErrorsAndDeterminism:
    def test_missing_file(self, tmp_path):
        code, _ = run(tmp_path, "spectrum", "--in", str(tmp_path / "absent.json"))
        assert code == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(tmp_path, "spectrum", "--in", str(path))
        assert code == 2

    def test_unknown_named_operator(self, tmp_path):
        op = write_json(tmp_path, "bad.json", {"kind": "named", "name": "nope"})
        code, _ = run(tmp_path, "spectrum", "--in", op)
        assert code == 2

    @pytest.mark.parametrize(
        "desc, name",
        [
            ({"kind": "named", "name": "volterra_linear", "cels": 8}, "'cels'"),
            ({"kind": "named", "name": "ones_kernel", "n": 8}, "'n'"),
            ({"kind": "named", "name": "paper_example_1", "n": 5}, "'n'"),
            ({"kind": "named", "name": "paper_example", "n": 2, "cells": 5}, "'cells'"),
        ],
        ids=["volterra-cels", "ones-n", "paper1-n", "paper-cells"],
    )
    def test_unknown_named_parameter_exits_two(self, tmp_path, capsys, desc, name):
        code, text = run(tmp_path, "spectrum", "--in", write_json(tmp_path, "op.json", desc))
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"takes no parameter {name}" in err

    def test_named_parameters_that_are_taken(self):
        # paper_example with n, and the top-level "sets" of a flat moments
        # descriptor, which is no parameter of the builder
        paper = operator_from_dict({"kind": "named", "name": "paper_example", "n": 2})
        assert paper.kernel_values.tobytes() == sharpness_example(2).kernel_values.tobytes()
        desc = {"kind": "named", "name": "volterra_linear", "cells": 4, "sets": [[0]]}
        assert operator_from_dict(desc).size == 4

    @pytest.mark.parametrize(
        "desc, message",
        [
            (
                {"kind": "dense", "space": {"cels": 1, "atoms": [2, 3]}, "kernel": [[0, 1], [0, 0]]},
                "a space takes no key 'cels'",
            ),
            (
                {"kind": "dense", "space": {"atoms": [2, 3]}, "kernel": [[0, 1], [0, 0]], "kernal": 5},
                "a 'dense' descriptor takes no key 'kernal'",
            ),
            (
                {"kind": "finite_rank", "space": {"atoms": [2]}, "F": [[1]], "G": [[0]], "H": [[1]]},
                "a 'finite_rank' descriptor takes no key 'H'",
            ),
        ],
        ids=["space-cels", "dense-kernal", "finite-rank-H"],
    )
    def test_unknown_descriptor_key_exits_two(self, tmp_path, capsys, desc, message):
        # before, "cels" was dropped and the space read as 2 atoms, exit 0
        code, text = run(tmp_path, "spectrum", "--in", write_json(tmp_path, "op.json", desc))
        err = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_flat_dense_moments_descriptor_is_taken(self, tmp_path):
        # the top-level "sets" of a flat moments descriptor is no key of
        # the operator (a flat finite_rank one is run in TestMoments)
        desc = {"kind": "dense", "space": {"cells": 1, "atoms": [2]}, "kernel": [[0, 1], [0, 0]],
                "sets": [[0], [1]]}
        code, text = run(tmp_path, "moments", "--in", write_json(tmp_path, "op.json", desc))
        assert code == 0 and json.loads(text)["passed"]

    @pytest.mark.parametrize(
        "desc, field",
        [
            ({"kind": "named"}, "name"),
            ({"kind": "named", "name": "paper_example"}, "n"),
            ({"kind": "dense", "space": {"atoms": [2]}}, "kernel"),
            ({"kind": "dense", "kernel": [[0.0]]}, "space"),
            ({"kind": "finite_rank", "space": {"atoms": [2]}, "F": [[1.0]]}, "G"),
        ],
        ids=["named-name", "paper-n", "dense-kernel", "dense-space", "finite-rank-G"],
    )
    def test_missing_descriptor_field_is_named(self, tmp_path, capsys, desc, field):
        message = f"missing field in operator descriptor: '{field}'"
        with pytest.raises(PreconditionError) as exc:
            operator_from_dict(desc)
        assert str(exc.value) == message
        code, text = run(tmp_path, "spectrum", "--in", write_json(tmp_path, "op.json", desc))
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("depth", [990, 100_000])
    @pytest.mark.parametrize("role", ["in", "cert"])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, role, depth):
        # the decoder recurses once per "[" and gives up at Python's
        # recursion limit: malformed input, not a failed verdict
        deep = tmp_path / "deep.json"
        deep.write_text("[" * depth)
        if role == "in":
            argv = ["spectrum", "--in", str(deep)]
        else:
            op = write_json(tmp_path, "op.json", {"kind": "named", "name": "paper_example_1"})
            argv = ["verify", "--in", op, "--cert", str(deep)]
        capsys.readouterr()
        code, text = run(tmp_path, *argv)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed JSON in {deep}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kernel, message",
        [([[0.0]], "matrix with 1 rows does not match 2 points"), ([], "matrix shape mismatch")],
        ids=["one-row", "empty"],
    )
    def test_shape_mismatch(self, tmp_path, capsys, kernel, message):
        op = write_json(
            tmp_path,
            "bad.json",
            {
                "kind": "dense",
                "space": {"cells": 0, "atoms": [2, 3]},
                "kernel": kernel,
            },
        )
        code, text = run(tmp_path, "spectrum", "--in", op)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "cert, op",
        [
            (lambda c: {**c, "blocks": [0, 1, 2]}, None),
            (lambda c: {**c, "blocks": None}, None),
            (lambda c: {**c, "diagonal": [5]}, None),
            (lambda c: {**c, "diagonal": [{**c["diagonal"][0], "lambda": 5}]}, None),
            (lambda c: {**c, "bound": "3"}, None),
            (lambda c: [c], None),
            (lambda c: {k: v for k, v in c.items() if k != "tol"}, None),
            (lambda c: {**c, "kind": "bogus"}, None),
            (lambda c: {**c, "tol": "abc"}, None),
            (lambda c: {**c, "tol": math.nan}, None),
            (lambda c: {**c, "residual": [1]}, None),
            (lambda c: {**c, "residual": True}, None),
            (lambda c: {**c, "multiplicity_free": 5}, None),
            (lambda c: {**c, "bound": {**c["bound"], "m": "x"}}, None),
            (lambda c: {**c, "bound": {**c["bound"], "m": None}}, None),
            (lambda c: {**c, "bound": {**c["bound"], "limit": 2.0}}, None),
            (lambda c: {**c, "bound": {**c["bound"], "rank": {}}}, None),
            (lambda c: {**c, "diagonal": [{**c["diagonal"][0], "block": "q"}]}, None),
            (lambda c: {**c, "diagonal": [{**c["diagonal"][0], "class": "nonsense"}]}, None),
            (lambda c: {**c, "diagonal": [{"block": 1, "class": "scalar", "lambda": [10**400, 0]}]}, None),
            (lambda c: {**c, **_UNREAD_CERTIFICATE_FIELDS}, None),
            (None, {"kind": "dense", "space": {"atoms": [2]}, "kernel": 5}),
            (None, {"kind": "dense", "space": {"atoms": [2]}, "kernel": [[{}]]}),
            (None, {"kind": "dense", "space": {"atoms": [2]}, "kernel": [[10**400]]}),
            (None, {"kind": "dense", "space": {"atoms": [2]}, "kernel": [["abc"]]}),
            (None, {"kind": "dense", "space": {"atoms": [2, 3]}, "kernel": [["5", True], [0, " 1e3 "]]}),
            (None, {"kind": "dense", "space": {"atoms": [2]}, "kernel": [[True]]}),
            (None, {"kind": "dense", "space": {"atoms": [2]}, "kernel": [[None]]}),
            (None, {"kind": "dense", "space": {"atoms": [2]}, "kernel": [[[1, "2"]]]}),
            (None, {"kind": "dense", "space": {"atoms": [2]}, "kernel": [[[1, False]]]}),
            (None, {"kind": "finite_rank", "space": {"atoms": [2, 3]}, "F": [["1"], [0]], "G": [[0], [1]]}),
            (None, {"kind": "finite_rank", "space": {"atoms": [2, 3]}, "F": [[1], [0]], "G": [[None], [1]]}),
            (None, {"kind": "finite_rank", "space": {"atoms": [2, 3]}, "F": [[1, 1], [1, 1]], "G": [[1, 0], [0, 1]]}),
            (None, {"kind": "dense", "space": {"atoms": [2, 3]}, "kernel": [[0.0, 1.0], [0.0]]}),
            (None, {"kind": "dense", "space": 5, "kernel": [[0.0]]}),
            (None, {"kind": "dense", "space": {"atoms": 2}, "kernel": [[0.0]]}),
            (None, {"kind": "named", "name": "paper_example", "n": None}),
            (None, {"kind": "named", "name": "paper_example", "n": 2.5}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": 8.7}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": True}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": "5"}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": 8.0}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": -1}),
            (None, {"kind": "dense", "space": {"atoms": [2.9]}, "kernel": [[1.0]]}),
            (None, [{"kind": "named", "name": "paper_example_1"}]),
            (None, 5),
        ],
        ids=[
            "blocks-flat", "blocks-null", "diagonal-non-dict", "lambda-number",
            "bound-string", "certificate-list", "certificate-missing-tol", "certificate-kind",
            "tol-string", "tol-nan", "residual-list", "residual-bool", "multiplicity-number",
            "bound-m-string", "bound-m-null", "bound-limit-float", "bound-rank-object", "block-string",
            "class-unknown", "lambda-huge-int", "unread-fields",
            "kernel-number", "kernel-dict-entry", "kernel-huge-int", "kernel-string",
            "kernel-numeric-strings", "kernel-bool", "kernel-null", "pair-string", "pair-bool",
            "F-string", "G-null", "F-dependent-columns",
            "kernel-ragged", "space-number", "atoms-number", "n-null", "n-float", "cells-float",
            "cells-bool", "cells-string", "cells-integral-float", "cells-negative", "atom-float",
            "descriptor-list", "descriptor-number",
        ],
    )
    def test_malformed_json_exits_two(self, tmp_path, capsys, cert, op):
        example = write_json(tmp_path, "ex.json", {"kind": "named", "name": "paper_example_1"})
        if cert is None:
            argv = ["spectrum", "--in", write_json(tmp_path, "op.json", op)]
        else:
            good = tmp_path / "good.json"
            main(["triangularize", "--in", example, "--kind", "scc", "--out", str(good)])
            bad = write_json(tmp_path, "cert.json", cert(json.loads(good.read_text())))
            argv = ["verify", "--in", example, "--cert", bad]
        code, text = run(tmp_path, *argv)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "desc",
        [
            {"kind": "named", "name": "volterra_linear", "cells": 100000},
            {"kind": "named", "name": "ones_kernel", "cells": 513},
            {"kind": "named", "name": "paper_example", "n": 256},
            {"kind": "named", "name": "paper_example_1000000"},
        ],
    )
    def test_oversized_named_operator_is_refused_before_building(self, tmp_path, desc):
        op = write_json(tmp_path, "big.json", desc)
        start = time.perf_counter()
        code, text = run(tmp_path, "spectrum", "--in", op)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert text == ""

    @pytest.mark.parametrize(
        "desc",
        [
            {"kind": "dense", "space": {"cells": 10**9}, "kernel": [[0]]},
            {"kind": "finite_rank", "space": {"cells": 10**9}, "F": [[1]], "G": [[1]]},
        ],
        ids=["dense", "finite-rank"],
    )
    def test_oversized_space_is_refused_before_building(self, tmp_path, desc):
        op = write_json(tmp_path, "big.json", desc)
        start = time.perf_counter()
        code, text = run(tmp_path, "spectrum", "--in", op)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert text == ""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("field", ["kernel", "F", "G"])
    def test_non_finite_entries_exit_two_without_warnings(self, tmp_path, capsys, field, value):
        if field == "kernel":
            desc = {"kind": "dense", "space": {"atoms": [2, 3]}, "kernel": [[0.0, 1.0], [0.0, 0.0]]}
        else:
            desc = {"kind": "finite_rank", "space": {"atoms": [2, 3]}, "F": [[1.0], [0.0]], "G": [[0.0], [1.0]]}
        desc[field][0][0] = value  # json.dumps writes NaN, Infinity, -Infinity
        op = write_json(tmp_path, "op.json", desc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, "spectrum", "--in", op)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite") and err.count("\n") == 1

    def test_overflowing_factors_exit_two_without_warnings(self, tmp_path, capsys):
        # finite factors whose product F @ G.T overflows to inf
        desc = {"kind": "finite_rank", "space": {"atoms": [2, 3]}, "F": [[1e200], [1]], "G": [[1e200], [0]]}
        op = write_json(tmp_path, "op.json", desc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, "spectrum", "--in", op)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: non-finite kernel values\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["check-increasing"],
            ["cycles"],
            ["moments"],
            ["triangularize", "--kind", "scc"],
            ["triangularize", "--kind", "nilpotent"],
            ["triangularize", "--kind", "increasing"],
            ["verify"],
            ["radius-profile"],
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("cells", [0, 1], ids=["atom", "cell"])
    def test_overflowing_modulus_exits_two_on_every_subcommand(self, tmp_path, capsys, argv, cells):
        # [1.7e308, 1.7e308] has finite parts and a modulus of 2.4e308, on
        # point 0: an atom, or a cell of weight 1
        space = {"cells": cells, "atoms": list(range(2, 4 - cells))}
        kernel = [[[1.7e308, 1.7e308], 1], [1, 0]]
        desc = {"operator": {"kind": "dense", "space": space, "kernel": kernel}, "sets": [[0], [1]]}
        op = write_json(tmp_path, "op.json", desc)
        if argv == ["verify"]:
            cert = {
                "kind": "scc",
                "blocks": [[0, 1]],
                "diagonal": [{"block": 0, "class": "irreducible"}],
                "bound": {"m": 1, "limit": None, "rank": None},
                "residual": 0.0,
                "tol": 1e-8,
                "multiplicity_free": False,
            }
            argv = argv + ["--cert", write_json(tmp_path, "cert.json", cert)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, *argv, "--in", op)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: kernel values whose modulus overflows\n"

    def test_rectangular_kernel_exits_two(self, tmp_path, capsys):
        desc = {"kind": "dense", "space": {"atoms": [2, 3]}, "kernel": [[1, 2, 3], [4, 5, 6]]}
        op = write_json(tmp_path, "op.json", desc)
        code, text = run(tmp_path, "spectrum", "--in", op)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: kernel shape (2, 3) does not match 2 points\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum",),
            ("check-increasing",),
            ("cycles",),
            ("moments",),
            ("triangularize", "--kind", "scc"),
            ("verify",),
            ("radius-profile",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_two(self, tmp_path, capsys, argv):
        desc = {"kind": "named", "name": "volterra_linear", "cells": 4, "sets": [[0], [1, 2]]}
        op = write_json(tmp_path, "op.json", desc)
        extra = ["--cert", _certificate(tmp_path, op)] if argv == ("verify",) else []
        out = tmp_path / "missing" / "x.json"
        code = main([argv[0], "--in", op, *argv[1:], *extra, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    def test_stdout_is_the_out_file(self, tmp_path, capsys, example_file):
        # the one write path that `run` does not take
        argv = ["triangularize", "--in", example_file, "--kind", "increasing"]
        code, text = run(tmp_path, *argv)
        capsys.readouterr()
        assert main(argv) == code == 0
        assert capsys.readouterr() == (text, "")

    def test_largest_named_operator_loads(self):
        assert named_operator("volterra_linear", cells=512).size == 512

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum",),
            ("check-increasing",),
            ("cycles",),
            ("triangularize", "--kind", "increasing"),
            ("radius-profile", "--steps", "4"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, tmp_path, argv):
        desc = (
            {"kind": "named", "name": "volterra_linear", "cells": 16}
            if argv[0] == "radius-profile"
            else {"kind": "named", "name": "paper_example_2"}
        )
        op = write_json(tmp_path, "op.json", desc)
        outputs = set()
        for i in range(3):
            out = tmp_path / f"out{i}.json"
            code = main(list(argv) + ["--in", op, "--out", str(out)])
            assert code == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1


class TestNumericFlags:
    """Numeric flags out of range exit 2 before the operator loads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-increasing", "--tol", "-1"),
            ("check-increasing", "--tol", "nan"),
            ("check-increasing", "--tol", "inf"),
            ("verify", "--tol", "nan", "--cert", "cert.json"),
            ("check-increasing", "--max-points", "-1"),
            ("check-increasing", "--max-points", str(MAX_POINTS_LIMIT + 1)),
            ("cycles", "--threshold", "-1"),
            ("cycles", "--threshold", "nan"),
            ("cycles", "--tol", "1e-8"),
            ("radius-profile", "--tol", "1e-8"),
            ("radius-profile", "--steps", "0"),
        ],
    )
    def test_refused_before_loading(self, tmp_path, capsys, argv):
        # the operator file does not exist: loading it would return 2, not exit
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--in", str(tmp_path / "absent.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err  # the parser's usage line, then one error line
        assert "absent.json" not in err and err.count("error:") == 1

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_sampled_mode_flags_are_gone(self, tmp_path, capsys, flag):
        # the check above --max-points is structural and draws nothing
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "volterra_linear", "cells": 16})
        with pytest.raises(SystemExit) as exc:
            main(["check-increasing", "--in", op, flag, "3", "--out", str(tmp_path / "out.json")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_zero_is_accepted(self, tmp_path):
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "volterra_linear", "cells": 4})
        assert run(tmp_path, "cycles", "--in", op, "--threshold", "0")[0] == 0
        code, text = run(
            tmp_path, "check-increasing", "--in", op, "--tol", "0", "--max-points", "2"
        )
        assert code == 0
        assert not json.loads(text)["exhaustive"]

    def test_max_points_limit_is_accepted(self, tmp_path):
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": "volterra_linear", "cells": 4})
        code, text = run(tmp_path, "check-increasing", "--in", op, "--max-points", str(MAX_POINTS_LIMIT))
        assert code == 0
        assert json.loads(text)["exhaustive"]


class TestComplexMatrixAgainstReference:
    @pytest.mark.parametrize(
        "rows",
        [
            [[0, -0.0, [1, -0.0]], [2**70, -(2**63) - 5, [0.5, 2**53 + 1]], [1e308, [-0.0, 0], 3]],
            [[math.nan, 1], [math.inf, [-math.inf, math.nan]]],
            [[10**300, [0, -5e-324]], [[-(10**300), 7], -1]],
            [[[1, 2]]],
            [[], []],
        ],
        ids=["signed-zeros-and-large-ints", "non-finite", "extremes", "one-pair", "no-columns"],
    )
    def test_matches_per_entry_loop(self, rows):
        mat = _complex_matrix(rows)
        assert mat.shape == (len(rows), len(rows[0]))
        assert mat.tobytes() == reference_complex_matrix(rows).tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_mixed_rows(self, seed):
        rng = np.random.default_rng(seed)
        p, q = (int(v) for v in rng.integers(1, 9, size=2))

        def number():
            if rng.random() < 0.3:
                return int(rng.integers(-(2**62), 2**62))
            return float(rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300)))

        rows = [
            [[number(), number()] if rng.random() < 0.4 else number() for _ in range(q)]
            for _ in range(p)
        ]
        assert _complex_matrix(rows).tobytes() == reference_complex_matrix(rows).tobytes()


def test_named_operator_round_trip_matches_library():
    K = operator_from_dict({"kind": "named", "name": "paper_example_3"})
    np.testing.assert_array_equal(K.kernel_values, sharpness_example(3).kernel_values)


def test_canonical_dumps_is_sorted_and_terminated():
    text = canonical_dumps({"b": 1, "a": [0.5, True, None]})
    assert text == '{"a":[0.5,true,null],"b":1}\n'


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"x": [1.0, math.nan]}, "cannot serialize non-finite number"),
        ([math.inf], "cannot serialize non-finite number"),
        ({"x": {1, 2}}, "cannot serialize set"),
        (object(), "cannot serialize object"),
    ],
    ids=["nan", "inf", "set", "object"],
)
def test_canonical_dumps_refusals(obj, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        canonical_dumps(obj)


class _Items(list):
    pass


class _Mapping(dict):
    pass


class _Text(str):
    pass


_EDGE_FLOATS = [
    -0.0, 0.0, 1e16, -1e16, float(np.nextafter(1e16, 0)), float(np.nextafter(1e16, 2e16)),
    1e300, -1e300, 0.1, math.nan, math.inf, -math.inf,
]
_emitter_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**16 - 1, 10**16, 10**16 + 1, -(10**40), 2**64]),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(),
    st.text(max_size=4),
    st.text(max_size=4).map(_Text),
    st.sets(st.integers(0, 3), max_size=2),
    st.builds(object),
)
_emitter_values = st.recursive(
    _emitter_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.lists(kids, max_size=4).map(_Items)
    | st.dictionaries(st.text(max_size=3), kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=4).map(_Mapping),
    max_leaves=12,
)


def _emitted(emitter, obj) -> tuple[str, str]:
    try:
        return "text", emitter(obj)
    except PreconditionError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(_emitter_values)
def test_canonical_dumps_matches_the_isinstance_chain(obj):
    assert _emitted(canonical_dumps, obj) == _emitted(reference_canonical_dumps, obj)


# sha256 of each canonical output on volterra_linear(512); every one is
# structural, so no LAPACK rounding enters it and a changed digest is a
# changed output
_V512_SHA256 = {
    "spectrum": "ac5c1de2d2b39c8d9470c59a92c711bca8befa84dbd626d07daafe0132f6e4bd",
    "cycles": "55f1bde61b90cbedf0aebe83c291abc474220027cc387d1df18ea6cfb8416190",
    "scc": "60c0f8a2d47432a85de8a286f57c6ccbecb8c8a029cc23a98f89077b42fcfc2b",
    "verify": "01877e954c5408fd7847807964805caccf7d34e39cae9f8e5642de4ff164714f",
    "radius-profile": "548fe4d686c7ee67eadd4ae2d137ccfc047371baab7f615724c79c2e17da9c0a",
}


def test_volterra512_outputs_are_pinned(tmp_path):
    desc = write_json(tmp_path, "v512.json", {"kind": "named", "name": "volterra_linear", "cells": 512})
    cert = tmp_path / "cert.json"
    argvs = {
        "spectrum": ["spectrum"],
        "cycles": ["cycles"],
        "scc": ["triangularize", "--kind", "scc", "--out", str(cert)],
        "verify": ["verify", "--cert", str(cert)],
        "radius-profile": ["radius-profile"],
    }
    digests = {}
    for name, argv in argvs.items():
        if "--out" in argv:
            assert main(argv + ["--in", desc]) == 0
            text = cert.read_text()
        else:
            code, text = run(tmp_path, *argv, "--in", desc)
            assert code == 0
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == _V512_SHA256


# small values only, so that every mutated operator stays cheap to check
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=5),
    st.floats(min_value=-2.0, max_value=5.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
)
_json_values = st.recursive(
    _json_leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, node):
    """`node` with one descendant replaced by an arbitrary JSON value, or
    one object key or list item deleted."""
    if isinstance(node, dict):
        keys = list(node)
    else:
        keys = list(range(len(node))) if isinstance(node, list) else []
    action = draw(st.sampled_from(["replace"] + (["descend", "delete"] if keys else [])))
    if action == "replace":
        return draw(_json_values)
    node = copy.copy(node)
    key = draw(st.sampled_from(keys))
    if action == "delete":
        del node[key]
    else:
        node[key] = draw(_mutated(node[key]))
    return node


@st.composite
def _wrong_claim(draw, cert, thr):
    """`cert` with exactly one recorded claim changed to a value that the
    verifier, at threshold `thr` = tol * scale, recomputes differently,
    and the check that rechecks it."""
    cert = copy.deepcopy(cert)
    lambdas = [d for d in cert["diagonal"] if "lambda" in d]
    claim = draw(
        st.sampled_from(
            ["bound.m", "bound.limit", "bound.rank", "multiplicity_free", "residual", "class"]
            + (["lambda"] if lambdas else [])
        )
    )
    far = draw(st.sampled_from([-1, 1])) * draw(st.floats(1.5, 1e3)) * thr
    if claim.startswith("bound."):
        key = claim[len("bound.") :]
        if cert["bound"][key] is None:
            cert["bound"][key] = draw(st.integers(-2, 5))
        else:
            cert["bound"][key] += draw(st.sampled_from([-1, 1]))
    elif claim == "multiplicity_free":
        cert["multiplicity_free"] = not cert["multiplicity_free"]
    elif claim == "residual":
        cert["residual"] += far
    elif claim == "class":
        entry = draw(st.sampled_from(cert["diagonal"]))
        others = [kind for kind in ("zero", "scalar", "irreducible") if kind != entry["class"]]
        entry["class"] = draw(st.sampled_from(others))
    else:
        draw(st.sampled_from(lambdas))["lambda"][draw(st.integers(0, 1))] += far
    return cert, ("recorded_diagonal" if claim in ("class", "lambda") else "recorded_counts")


_DESCRIPTORS = [
    {"kind": "named", "name": "paper_example_1", "sets": [[0], [1]]},
    {"kind": "named", "name": "volterra_linear", "cells": 4, "sets": [[0], [1, 2]]},
    {
        "operator": {
            "kind": "dense",
            "space": {"cells": 1, "atoms": [2, 3]},
            "kernel": [[0, 1, [0, 1]], [0, 0, 1], [0, 0, 2]],
        },
        "sets": [[0], [1]],
    },
    {
        "kind": "finite_rank",
        "space": {"cells": 0, "atoms": [2, 3, 4]},
        "F": [[1], [1], [0]],
        "G": [[0], [0], [1]],
        "sets": [[0, 1], [2]],
    },
]
# each descriptor with a kind that certifies it: paper_example_1 has a
# nonzero diagonal, so it has no nilpotent certificate
_CERTIFIED = [
    (_DESCRIPTORS[0], "scc"),
    (_DESCRIPTORS[0], "increasing"),
    (_DESCRIPTORS[1], "scc"),
    (_DESCRIPTORS[1], "nilpotent"),
    (_DESCRIPTORS[1], "increasing"),
]
_COMMANDS = [
    ["spectrum"],
    ["check-increasing"],
    ["cycles"],
    ["moments"],
    ["triangularize", "--kind", "scc"],
    ["triangularize", "--kind", "nilpotent"],
    ["triangularize", "--kind", "increasing"],
    ["radius-profile", "--steps", "3"],
    ["verify"],
]


class TestFuzzedInputs:
    """Every mutated descriptor or certificate ends in exit 0, 1 or 2,
    never in an uncaught exception."""

    @given(st.data(), st.sampled_from(_DESCRIPTORS), st.sampled_from(_COMMANDS))
    @settings(max_examples=300, deadline=None)
    def test_mutated_descriptors(self, data, desc, command):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            op = write_json(tmp, "op.json", data.draw(_mutated(desc)))
            extra = ["--cert", _certificate(tmp)] if command == ["verify"] else []
            code, _ = run(tmp, command[0], "--in", op, *command[1:], *extra)
        assert code in (0, 1, 2)

    @given(st.data(), st.sampled_from(_CERTIFIED), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_mutated_certificates(self, data, certified, one_claim):
        # an arbitrary mutation, or one recorded claim made wrong, which
        # exits 1 with only the check that rechecks that claim failed
        desc, kind = certified
        thr = DEFAULT_TOL * magnitude(operator_from_dict(desc).kernel_values)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            op = write_json(tmp, "op.json", desc)
            good = json.loads(Path(_certificate(tmp, op, kind)).read_text())
            if one_claim:
                bad, check = data.draw(_wrong_claim(good, thr))
            else:
                bad, check = data.draw(_mutated(good)), None
            cert = write_json(tmp, "bad.json", bad)
            code, text = run(tmp, "verify", "--in", op, "--cert", cert)
        if check is None:
            assert code in (0, 1, 2)
        else:
            assert code == 1
            failed = [name for name, c in json.loads(text)["checks"].items() if not c["passed"]]
            assert failed == [check]


def _certificate(tmp: Path, op: str | None = None, kind: str = "scc") -> str:
    """Path of the certificate of `op` (by default paper_example_1) made by
    `triangularize --kind kind`."""
    if op is None:
        op = write_json(tmp, "example.json", {"kind": "named", "name": "paper_example_1"})
    out = tmp / "cert.json"
    assert main(["triangularize", "--in", op, "--kind", kind, "--out", str(out)]) == 0
    return str(out)
