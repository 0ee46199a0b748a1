"""Reading and writing matroid spec files (JSON).

Supported shapes:
  {"type": "bases", "n": 5, "bases": ["345", "135", ...]}
  {"type": "uniform", "r": 2, "n": 4}
  {"type": "graphic", "vertices": 4, "edges": [[1, 2], ...]}
  {"type": "linear", "p": 7, "matrix": [[...], ...]}
  {"type": "dual", "of": <spec>}
"""

from __future__ import annotations

import json

from .bitsets import parse_subset, subset_str
from .errors import ParseError
from .matroid import Matroid, from_bases, graphic, linear_over_prime_field, uniform


def _require(spec: dict, field: str, types) -> object:
    if field not in spec:
        raise ParseError(f"missing field {field!r} for type {spec.get('type')!r}")
    value = spec[field]
    # bool is a subclass of int, and no field takes a boolean
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"field {field!r} has wrong type {type(value).__name__}")
    return value


def _int_lists(rows: list, field: str, length: int | None = None) -> list[list[int]]:
    """Check that each row is a list of integers (of ``length`` if given)."""
    for row in rows:
        if (
            not isinstance(row, list)
            or length is not None and len(row) != length
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        ):
            raise ParseError(f"bad entry {row!r} in field {field!r}")
    return rows


def matroid_from_dict(spec: dict) -> Matroid:
    if not isinstance(spec, dict):
        raise ParseError(f"matroid spec must be an object, got {type(spec).__name__}")
    kind = _require(spec, "type", str)
    if kind == "bases":
        n = _require(spec, "n", int)
        raw = _require(spec, "bases", list)
        if not all(isinstance(s, str) for s in raw):
            raise ParseError("field 'bases' needs subset strings")
        try:
            masks = [parse_subset(s, n) for s in raw]
        except ValueError as exc:
            raise ParseError(f"bad subset in field 'bases': {exc}") from exc
        return from_bases(n, masks)
    if kind == "uniform":
        return uniform(_require(spec, "r", int), _require(spec, "n", int))
    if kind == "graphic":
        vertices = _require(spec, "vertices", int)
        edges = _int_lists(_require(spec, "edges", list), "edges", length=2)
        return graphic(vertices, [(u, v) for u, v in edges])
    if kind == "linear":
        return linear_over_prime_field(
            _require(spec, "p", int), _int_lists(_require(spec, "matrix", list), "matrix")
        )
    if kind == "dual":
        return matroid_from_dict(_require(spec, "of", dict)).dual
    raise ParseError(f"unknown matroid type {kind!r}")


def parse_spec(text: str | bytes) -> Matroid:
    """Parse a JSON matroid spec; construction errors propagate unchanged."""
    try:
        return matroid_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:  # from json.loads: an integer past sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # JSON or "dual" levels nested past the recursion limit
        raise ParseError("spec nested too deeply") from exc


def spec_dict(matroid: Matroid) -> dict:
    """An explicit-bases spec reproducing the matroid."""
    return {
        "type": "bases",
        "n": matroid.n,
        "bases": [subset_str(b, matroid.n) for b in matroid.bases],
    }
