"""Command-line front end.

Exit codes, decided in `main` alone: 0 = verdict/construction succeeded,
1 = property or verification failed (a report is still written), 2 = any
`KernelTriError`: input, size or write error (one `error:` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import KernelTriError, PreconditionError, TheoremViolationError
from .increasing import check_increasing_spectrum, radius_profile
from .jsonio import canonical_dumps, is_integer, operator_from_dict
from .cycles import moment_identities, shortest_cycle, support_digraph
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


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError, bytes that are not UTF-8, or arrays nested deeper
    # than the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise PreconditionError(f"malformed JSON in {path}: {exc}") from exc


def _write(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {out}: {exc}") from exc


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
        raise PreconditionError("moments needs a top-level \"sets\" list of index lists")
    if not isinstance(data["sets"], list) or not all(
        isinstance(idx, list) and all(map(is_integer, idx)) for idx in data["sets"]
    ):
        raise PreconditionError("\"sets\" must be a list of lists of integer point indices")
    # disjoint nonempty sets number at most one per point
    if not all(data["sets"]):
        raise PreconditionError("\"sets\" must not hold an empty index list")
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
    cert = TriangularizationCertificate.from_dict(_load_json(args.cert))
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


#: the subcommands in the order `kerneltri -h` lists them: name -> (handler,
#: help, whether it takes --tol, its own arguments as flag -> add_argument
#: keywords); each also takes --in and --out
SUBCOMMANDS = {
    "spectrum": (_cmd_spectrum, "eigenvalue report", True, {}),
    "check-increasing": (_cmd_check_increasing, "increasing-spectrum verdict", True, {
        "--max-points": dict(type=_bounded_int(0, MAX_POINTS_LIMIT), default=DEFAULT_MAX_POINTS)
    }),
    "cycles": (_cmd_cycles, "support digraph and non-degenerate cycle search", False, {
        "--threshold": dict(type=_nonnegative_real, default=None)
    }),
    "moments": (_cmd_moments, "moment-matrix trace identities", True, {}),
    "triangularize": (_cmd_triangularize, "construct a certificate", True, {
        "--kind": dict(choices=("scc", "nilpotent", "increasing"), required=True)
    }),
    "verify": (_cmd_verify, "re-verify a certificate", True, {
        "--cert": dict(required=True, help="certificate JSON file")
    }),
    "radius-profile": (_cmd_radius_profile, "spectral radius along the nested chain", False, {
        "--steps": dict(type=_bounded_int(1), default=16)
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerneltri",
        description="Spectrum-inclusion checks and triangularization "
        "certificates for discretized kernel operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, takes_tol, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True, help="operator JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if takes_tol:
            p.add_argument("--tol", type=_nonnegative_real, default=DEFAULT_TOL)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = _load_json(args.infile)
        K = operator_from_dict(data.get("operator", data) if isinstance(data, dict) else data)
        report, ok = args.fn(K, data, args)
        _write(canonical_dumps(report), args.out)
    except KernelTriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
