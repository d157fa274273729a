import copy
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
    count_decompositions,
    forbid_eigenvalues,
    random_nilpotent_instance,
    reference_complex_matrix,
    volterra_and_two_cycle,
)

from kerneltri import (
    canonical_dumps,
    named_operator,
    nilpotent_block_form,
    operator_from_dict,
    sharpness_example,
)
from kerneltri.cli import MAX_POINTS_LIMIT, main
from kerneltri.jsonio import _complex_matrix


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

    def test_shape_mismatch(self, tmp_path):
        op = write_json(
            tmp_path,
            "bad.json",
            {
                "kind": "dense",
                "space": {"cells": 0, "atoms": [2, 3]},
                "kernel": [[0.0]],
            },
        )
        code, _ = run(tmp_path, "spectrum", "--in", op)
        assert code == 2

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
            (None, {"kind": "dense", "space": {"atoms": [2, 3]}, "kernel": [[0.0, 1.0], [0.0]]}),
            (None, {"kind": "dense", "space": 5, "kernel": [[0.0]]}),
            (None, {"kind": "dense", "space": {"atoms": 2}, "kernel": [[0.0]]}),
            (None, {"kind": "named", "name": "paper_example", "n": None}),
            (None, {"kind": "named", "name": "paper_example", "n": 2.5}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": 8.7}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": True}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": "5"}),
            (None, {"kind": "named", "name": "volterra_linear", "cells": 8.0}),
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
            "F-string", "G-null",
            "kernel-ragged", "space-number", "atoms-number", "n-null", "n-float", "cells-float",
            "cells-bool", "cells-string", "cells-integral-float", "atom-float",
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
        name = "volterra_linear" if argv[0] == "radius-profile" else "paper_example_2"
        op = write_json(tmp_path, "op.json", {"kind": "named", "name": name, "cells": 16})
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
        assert "absent.json" not in capsys.readouterr().err

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

    @given(st.data(), st.sampled_from(_CERTIFIED))
    @settings(max_examples=300, deadline=None)
    def test_mutated_certificates(self, data, certified):
        desc, kind = certified
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            op = write_json(tmp, "op.json", desc)
            good = json.loads(Path(_certificate(tmp, op, kind)).read_text())
            cert = write_json(tmp, "bad.json", data.draw(_mutated(good)))
            code, _ = run(tmp, "verify", "--in", op, "--cert", cert)
        assert code in (0, 1, 2)


def _certificate(tmp: Path, op: str | None = None, kind: str = "scc") -> str:
    """Path of the certificate of `op` (by default paper_example_1) made by
    `triangularize --kind kind`."""
    if op is None:
        op = write_json(tmp, "example.json", {"kind": "named", "name": "paper_example_1"})
    out = tmp / "cert.json"
    assert main(["triangularize", "--in", op, "--kind", kind, "--out", str(out)]) == 0
    return str(out)
