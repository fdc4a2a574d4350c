"""Strict decoding of parsed JSON payloads.

Every ``from_json`` reads outside input through these helpers.  An int
must be a JSON integer (a bool, float or string is rejected), a list
must have the length asked for, and a coefficient must be a string in
the text form of ``qcoeff``.  Each failure raises ``PayloadError``
naming the JSON path of the bad value, e.g.
``terms[0].chords[0][0]: expected int, got 1.5``.  ``field`` returns a
value with its path, so calls nest: ``integer(*field(data, "rank"))``.
"""

from __future__ import annotations

import json

from .qcoeff import QCoeff
from .qcoeff import parse as parse_coeff


class PayloadError(ValueError):
    """A JSON payload of the wrong shape; the message names the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)


def _got(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return json.dumps(value)


def _expect(value, kind: type, name: str, path: str):
    if type(value) is not kind:
        raise PayloadError(path, f"expected {name}, got {_got(value)}")
    return value


def field(data, key: str, path: str = "") -> tuple[object, str]:
    """(data[key], its path) of an object that must have the field."""
    _expect(data, dict, "an object", path)
    if key not in data:
        raise PayloadError(path, f"missing field {json.dumps(key)}")
    return data[key], f"{path}.{key}" if path else key


def entries(value, path: str, length: int | None = None) -> list[tuple[str, object]]:
    """(path, item) for each item of a list, of the given length if any."""
    _expect(value, list, "a list", path)
    if length is not None and len(value) != length:
        raise PayloadError(path, f"expected {length} entries, got {len(value)}")
    return [(f"{path}[{i}]", item) for i, item in enumerate(value)]


def integer(value, path: str) -> int:
    return _expect(value, int, "int", path)


def boolean(value, path: str) -> bool:
    return _expect(value, bool, "true or false", path)


def int_list(value, path: str, length: int | None = None) -> tuple[int, ...]:
    return tuple(integer(x, p) for p, x in entries(value, path, length))


def int_matrix(value, path: str, rows: int | None = None, cols: int | None = None) -> tuple:
    return tuple(int_list(row, p, cols) for p, row in entries(value, path, rows))


def coeff(value, path: str) -> QCoeff:
    text = _expect(value, str, "a coefficient string", path)
    try:
        return parse_coeff(text)
    except ValueError as exc:
        raise PayloadError(path, str(exc)) from exc
