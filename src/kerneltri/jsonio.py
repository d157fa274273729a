"""Canonical JSON emission and operator descriptors.

Output is byte-stable: keys sorted, reals printed with 17 significant
digits, complex numbers as [re, im] pairs.
"""

from __future__ import annotations

import math
import re
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .operators import (
    FiniteRankOperator,
    Operator,
    densify,
    kernel_operator,
    ones_kernel,
    sharpness_example,
    volterra_linear,
)
from .spaces import MeasureSpace, build_space
from .spectral import MAX_DENSE_SIZE


def _format_real(x: float) -> str:
    if not math.isfinite(x):
        raise PreconditionError("cannot serialize non-finite number")
    if abs(x) < 1e16 and x == int(x):
        return f"{x:.1f}"
    return format(x, ".17g")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text; identical inputs give identical bytes.

    A node of exact type float, int, list, tuple, dict or str takes its
    branch at once; any other node takes the isinstance rules after them,
    which emit a subclass of list, tuple or dict as the plain container of
    its items. Strings are quoted by encode_basestring_ascii, which is
    json.dumps of a str with the default arguments."""
    out: list[str] = []
    append = out.append

    def emit(node: Any):
        kind = type(node)
        if kind is float:
            append(_format_real(node))
        elif kind is int:
            append(str(node))
        elif kind is list or kind is tuple:
            sep = "["
            for item in node:
                append(sep)
                sep = ","
                emit(item)
            append("]" if sep == "," else "[]")
        elif kind is dict:
            sep = "{"
            for key in sorted(node):
                append(sep)
                sep = ","
                append(encode_basestring_ascii(str(key)))
                append(":")
                emit(node[key])
            append("}" if sep == "," else "{}")
        elif kind is str:
            append(encode_basestring_ascii(node))
        elif node is None:
            append("null")
        elif isinstance(node, bool):
            append("true" if node else "false")
        elif isinstance(node, (int, np.integer)):
            append(str(int(node)))
        elif isinstance(node, (float, np.floating)):
            append(_format_real(float(node)))
        elif isinstance(node, complex):
            emit([node.real, node.imag])
        elif isinstance(node, str):
            append(encode_basestring_ascii(node))
        elif isinstance(node, (list, tuple)):
            emit(list(node))
        elif isinstance(node, dict):
            emit({key: node[key] for key in node})
        else:
            raise PreconditionError(f"cannot serialize {type(node).__name__}")

    emit(obj)
    append("\n")
    return "".join(out)


def is_integer(value) -> bool:
    """The one rule for integer fields read from JSON: an int or NumPy
    integer, and not a bool (True == 1 would pass otherwise)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    if not is_integer(value):
        raise PreconditionError(f"{what} must be an integer, not {value!r}")
    return int(value)


def _space_fields(data: dict) -> tuple[int, list[int]]:
    if not isinstance(data, dict) or not isinstance(data.get("atoms", []), list):
        raise PreconditionError('a space must be an object with an "atoms" list')
    _takes_only("a space", data, "cells", "atoms")
    cells = _integer(data.get("cells", 0), '"cells"')
    return cells, [_integer(a, "an atom id") for a in data.get("atoms", [])]


def _space_for(data: dict, *matrices: np.ndarray) -> MeasureSpace:
    """The descriptor's space, built only once every matrix has one row per
    declared point: build_space allocates per cell, so an inflated
    "cells" must be refused before it runs."""
    cells, atoms = _space_fields(data["space"])
    points = cells + len(atoms)
    for mat in matrices:
        if mat.shape[0] != points:
            raise DimensionMismatchError(
                f"matrix with {mat.shape[0]} rows does not match {points} points"
            )
    return build_space(cells, atoms)


#: the types json.load gives a JSON number; a bool is an int subclass, not one of them
_NUMBER_TYPES = frozenset({int, float})


def is_number(value) -> bool:
    """The one rule for real fields read from JSON: an int or float, not a
    bool, string or null."""
    return type(value) in _NUMBER_TYPES


def _is_pair(value) -> bool:
    """A complex number read from JSON: an [re, im] list of two numbers."""
    return type(value) is list and len(value) == 2 and all(map(is_number, value))


def _complex_matrix(rows) -> np.ndarray:
    """Rows of numbers or [re, im] pairs, filled into the real and imaginary
    parts row by row; every entry is type-checked, so no string or bool is
    cast to a number."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise PreconditionError("a matrix must be a list of rows")
    if not rows:
        raise DimensionMismatchError("matrix shape mismatch")
    mat = np.zeros((len(rows), len(rows[0])), dtype=complex)
    try:
        for i, row in enumerate(rows):
            if len(row) != mat.shape[1]:
                raise PreconditionError("matrix rows must have equal length")
            if set(map(type, row)) <= _NUMBER_TYPES:
                mat.real[i] = row
                continue
            bad = [v for v in row if not (is_number(v) or _is_pair(v))]
            if bad:
                raise PreconditionError(
                    f"matrix entries must be numbers or [re, im] pairs, not {bad[0]!r}"
                )
            mat.real[i] = [v[0] if type(v) is list else v for v in row]
            mat.imag[i] = [v[1] if type(v) is list else 0.0 for v in row]
    except OverflowError as exc:  # an int beyond the float range
        raise PreconditionError(f"matrix entry out of range: {exc}") from exc
    return mat


_NAMED_WITH_INDEX = re.compile(r"^paper_example_(\d+)$")


def _check_points(name: str, points: int) -> None:
    if points > MAX_DENSE_SIZE:
        raise PreconditionError(
            f"{name} with {points} points exceeds the dense limit {MAX_DENSE_SIZE}"
        )


def _takes_only(what: str, params: dict, *takes: str, noun: str = "key") -> None:
    """Refuse a key of `params` other than `takes`, so that a misspelled
    key is not read as its default; `what` names the object."""
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise PreconditionError(
            f"{what} takes no {noun} {unknown[0]!r}"
            + (f" (it takes {', '.join(takes)})" if takes else "")
        )


def named_operator(name: str, **params) -> Operator:
    """Built-in operators so checks need no external data files.

    `paper_example` takes `n`, `volterra_linear` and `ones_kernel` take
    `cells` (default 64), and `paper_example_<n>` takes no parameter; any
    other parameter is refused. Sizes whose point count (2n+1 for
    paper_example, `cells` otherwise) exceeds MAX_DENSE_SIZE are refused
    before any kernel is built.
    """
    m = _NAMED_WITH_INDEX.match(name)
    if m or name == "paper_example":
        _takes_only(f"named operator {name!r}", params, *(() if m else ("n",)), noun="parameter")
        n = int(m.group(1)) if m else _integer(params["n"], '"n"')
        _check_points(name, 2 * n + 1)
        return sharpness_example(n)
    builders = {"volterra_linear": volterra_linear, "ones_kernel": ones_kernel}
    if name in builders:
        _takes_only(f"named operator {name!r}", params, "cells", noun="parameter")
        cells = _integer(params.get("cells", 64), '"cells"')
        _check_points(name, cells)
        return builders[name](cells)
    raise PreconditionError(f"unknown named operator: {name!r}")


def operator_from_dict(data: dict) -> Operator:
    """The operator of a descriptor. A named descriptor passes its keys
    other than "kind", "name" and the "sets" of `kerneltri moments` to
    :func:`named_operator` as parameters. A dense or finite-rank
    descriptor, and its "space", refuse every key they do not read, and a
    missing field raises a PreconditionError that names it."""
    if not isinstance(data, dict):
        raise PreconditionError("an operator descriptor must be a JSON object")
    kind = data.get("kind")
    try:
        if kind == "named":
            extra = {k: v for k, v in data.items() if k not in ("kind", "name", "sets")}
            return named_operator(str(data["name"]), **extra)
        if kind == "dense":
            _takes_only("a 'dense' descriptor", data, "kind", "space", "kernel", "sets")
            kernel = _complex_matrix(data["kernel"])
            return kernel_operator(_space_for(data, kernel), kernel)
        if kind == "finite_rank":
            _takes_only("a 'finite_rank' descriptor", data, "kind", "space", "F", "G", "sets")
            F = _complex_matrix(data["F"])
            G = _complex_matrix(data["G"])
            space = _space_for(data, F, G)
            return densify(FiniteRankOperator(space=space, F=F, G=G))
    except KeyError as exc:
        raise PreconditionError(f"missing field in operator descriptor: {exc}") from exc
    raise PreconditionError(f"unknown operator kind: {kind!r}")
