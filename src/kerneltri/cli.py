"""Command-line front end.

Exit codes, decided in `main` alone: 0 = verdict/construction succeeded,
1 = property or verification failed (a report is still written), 2 = input,
size or write error (one `error:` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import KernelTriError, TheoremViolationError
from .increasing import check_increasing_spectrum, radius_profile
from .jsonio import canonical_dumps, is_integer, operator_from_dict
from .cycles import moment_identities, shortest_cycle, support_digraph
from .operators import Operator
from .spaces import DEFAULT_MAX_POINTS, StandardSet, nested_chain
from .spectral import DEFAULT_TOL, eigenvalues
from .triangular import (
    TriangularizationCertificate,
    increasing_spectrum_block_form,
    nilpotent_block_form,
    scc_triangularize,
    verify_certificate,
)


#: largest --max-points accepted: a holding operator on 16 points has 3^16
#: (about 43 million) pairs, and its level spectra take 2^16·16 complex
#: values (16 MB); the library's `max_points` parameter has no bound
MAX_POINTS_LIMIT = 16


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _load_operator(path: str) -> tuple[Operator, dict]:
    data = _load_json(path)
    payload = data.get("operator", data) if isinstance(data, dict) else data
    try:
        return operator_from_dict(payload), data
    except KeyError as exc:
        raise InputError(f"missing field in operator descriptor: {exc}") from exc


def _write(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


# Each subcommand maps (operator, descriptor, args) to (report, ok); main
# loads the operator, writes the report and turns ok into exit 0 or 1.


def _cmd_spectrum(K, data, args) -> tuple[dict, bool]:
    return eigenvalues(K, tol=args.tol).to_dict(), True


def _cmd_check_increasing(K, data, args) -> tuple[dict, bool]:
    report = check_increasing_spectrum(K, tol=args.tol, max_points=args.max_points)
    return report.to_dict(), report.verdict


def _cmd_cycles(K, data, args) -> tuple[dict, bool]:
    dg = support_digraph(K, args.threshold)
    cycle = shortest_cycle(dg)
    report = {
        "threshold": dg.threshold,
        "arcs": int(dg.arcs.sum()),
        "cycle": None if cycle is None else list(cycle),
    }
    return report, cycle is None


def _cmd_moments(K, data, args) -> tuple[dict, bool]:
    if "sets" not in data:
        raise InputError("moments needs a top-level \"sets\" list of index lists")
    if not isinstance(data["sets"], list) or not all(
        isinstance(idx, list) and all(map(is_integer, idx)) for idx in data["sets"]
    ):
        raise InputError("\"sets\" must be a list of lists of integer point indices")
    # disjoint nonempty sets number at most one per point
    if not all(data["sets"]):
        raise InputError("\"sets\" must not hold an empty index list")
    sets = [StandardSet.from_indices(K.space, idx) for idx in data["sets"]]
    report = moment_identities(K, sets, tol=args.tol)
    return report.to_dict(), report.passed


def _cmd_triangularize(K, data, args) -> tuple[dict, bool]:
    try:
        if args.kind == "scc":
            cert = scc_triangularize(K)
        elif args.kind == "nilpotent":
            cert = nilpotent_block_form(K, tol=args.tol)
        else:
            cert = increasing_spectrum_block_form(K, tol=args.tol)
    except TheoremViolationError as exc:
        return {"error": str(exc)}, False
    return cert.to_dict(), True


def _cmd_verify(K, data, args) -> tuple[dict, bool]:
    try:
        cert = TriangularizationCertificate.from_dict(_load_json(args.cert))
    except KeyError as exc:
        raise InputError(f"missing field in certificate: {exc}") from exc
    report = verify_certificate(K, cert, tol=args.tol)
    return report.to_dict(), report.passed


def _cmd_radius_profile(K, data, args) -> tuple[dict, bool]:
    chain = nested_chain(K.space, args.steps)
    report = {
        "steps": args.steps,
        "profile": radius_profile(K, chain),
        "set_sizes": [s.size for s in chain],
    }
    return report, True


def _nonnegative_real(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")
    return value


def _bounded_int(low: int, high: int | None = None):
    """argparse type for an integer in [low, high] (no upper bound when
    high is None)."""

    def integer(text: str) -> int:  # argparse reports "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, not {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, not {text!r}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerneltri",
        description="Spectrum-inclusion checks and triangularization "
        "certificates for discretized kernel operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", required=True, help="operator JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    def tolerance(p):
        p.add_argument("--tol", type=_nonnegative_real, default=DEFAULT_TOL)

    p = sub.add_parser("spectrum", help="eigenvalue report")
    common(p)
    tolerance(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("check-increasing", help="increasing-spectrum verdict")
    common(p)
    tolerance(p)
    p.add_argument(
        "--max-points", type=_bounded_int(0, MAX_POINTS_LIMIT), default=DEFAULT_MAX_POINTS
    )
    p.set_defaults(fn=_cmd_check_increasing)

    p = sub.add_parser("cycles", help="support digraph and non-degenerate cycle search")
    common(p)
    p.add_argument("--threshold", type=_nonnegative_real, default=None)
    p.set_defaults(fn=_cmd_cycles)

    p = sub.add_parser("moments", help="moment-matrix trace identities")
    common(p)
    tolerance(p)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("triangularize", help="construct a certificate")
    common(p)
    tolerance(p)
    p.add_argument("--kind", choices=("scc", "nilpotent", "increasing"), required=True)
    p.set_defaults(fn=_cmd_triangularize)

    p = sub.add_parser("verify", help="re-verify a certificate")
    common(p)
    tolerance(p)
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("radius-profile", help="spectral radius along the nested chain")
    common(p)
    p.add_argument("--steps", type=_bounded_int(1), default=16)
    p.set_defaults(fn=_cmd_radius_profile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        K, data = _load_operator(args.infile)
        report, ok = args.fn(K, data, args)
        _write(canonical_dumps(report), args.out)
    except (InputError, KernelTriError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
