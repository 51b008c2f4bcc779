"""System definition documents: parse and emit canonical / network configs.

A config is a single JSON object with a 'kind' discriminator and explicit
dimension fields, e.g.

    {"kind": "canonical", "m": 2, "a": 0.4, "d": -4.0, "mu_hat": 0.8,
     "b_vec": [0.0, 0.0], "e_vec": [1.0, 0.5],
     "A_block": [[0.5, 0.0], [0.0, 0.6]], "h_Y": [0.0, 1.0]}

    {"kind": "plrnn", "M": 3, "A_diag": [...], "W": [[...], ...],
     "h": [...], "relaxed_diagonal": true}

Floats are emitted via repr, which round-trips exactly, so writing and
re-reading a system reproduces it bit for bit.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .cycle_solver import CanonicalSystem
from .errors import ConfigError
from .plrnn import PLRNNSystem

__all__ = [
    "parse_config",
    "read_config",
    "config_to_text",
    "write_config",
]


class _Kind(NamedTuple):
    cls: type
    dim: str  # the dimension field, the size of every vector and matrix
    minimum: int  # the least dimension
    # field -> rank in parse order: 0 a number, 1 a vector, 2 a square
    # matrix, None a boolean that is false when absent
    fields: dict
    # the field a ValueError of cls is reported against, or None
    checked: str | None = None


_SCHEMA = {
    "canonical": _Kind(CanonicalSystem, "m", 0, {
        "a": 0, "d": 0, "b_vec": 1, "e_vec": 1, "A_block": 2, "h_Y": 1, "mu_hat": 0,
    }),
    "plrnn": _Kind(PLRNNSystem, "M", 1, {
        "relaxed_diagonal": None, "A_diag": 1, "W": 2, "h": 1,
    }, checked="W"),
}


def _require(doc: dict, field: str):
    if field not in doc:
        raise ConfigError(f"missing field {field!r}")
    return doc[field]


def _where(field: str, *index) -> str:
    return f"field {field!r}" + "".join(f"[{i}]" for i in index if i is not None)


def _number(value, field: str, row: int | None = None, col: int | None = None):
    """value if it is a finite number; an error names field[row][col]."""
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{_where(field, row, col)} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int literal beyond the float range
        raise ConfigError(f"{_where(field, row, col)} must fit in a float") from None
    if not finite:
        # a number field's message shows the value, an entry's does not
        got = "" if col is not None else f", got {value!r}"
        raise ConfigError(f"{_where(field, row, col)} must be finite{got}")
    return value


def _field(doc: dict, field: str, rank: int | None, size: int):
    if rank is None:
        value = doc.get(field, False)
        if not isinstance(value, bool):
            raise ConfigError(f"{_where(field)} must be a boolean, got {value!r}")
        return value
    value = _require(doc, field)
    if rank == 0:
        return float(_number(value, field))
    if rank == 1:
        if not isinstance(value, list):
            raise ConfigError(f"{_where(field)} must be a list of numbers")
        if len(value) != size:
            raise ConfigError(f"{_where(field)} must have length {size}, got {len(value)}")
        value = [value]  # checked below as a matrix of one row
    elif not isinstance(value, list):
        raise ConfigError(f"{_where(field)} must be a list of {size} rows")
    elif len(value) != size:
        raise ConfigError(f"{_where(field)} must have {size} rows, got {len(value)}")
    out = np.empty((size,) * rank)
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != size:
            raise ConfigError(f"{_where(field)} row {r} must be a list of {size} numbers")
        at, target = (None, out) if rank == 1 else (r, out[r])
        for c, entry in enumerate(row):
            target[c] = _number(entry, field, at, c)
    return out


def parse_config(text: str):
    """Parse a config document into a CanonicalSystem or PLRNNSystem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"not valid JSON: {err.msg} (line {err.lineno}, column {err.colno})"
        ) from err
    except RecursionError:
        raise ConfigError("document nested too deeply to parse") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ConfigError("integer literal has too many digits to parse") from None
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be a JSON object")
    kind = _require(doc, "kind")
    schema = _SCHEMA.get(kind) if isinstance(kind, str) else None
    if schema is None:
        kinds = " or ".join(map(repr, _SCHEMA))
        raise ConfigError(f"field 'kind' must be {kinds}, got {kind!r}")
    unknown = sorted(set(doc) - {"kind", schema.dim, *schema.fields})
    if unknown:
        raise ConfigError(f"unknown fields: {', '.join(repr(f) for f in unknown)}")
    size = _require(doc, schema.dim)
    if isinstance(size, bool) or not isinstance(size, int):
        raise ConfigError(f"field {schema.dim!r} must be an integer, got {size!r}")
    if size < schema.minimum:
        raise ConfigError(f"field {schema.dim!r} must be >= {schema.minimum}, got {size}")
    values = {f: _field(doc, f, rank, size) for f, rank in schema.fields.items()}
    try:
        return schema.cls(**values)
    except ValueError as err:
        if schema.checked is None:
            raise
        raise ConfigError(f"field {schema.checked!r}: {err}") from err


def read_config(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_text(sys) -> str:
    """Serialize a system to its config document (sorted keys, LF, repr floats)."""
    for kind, schema in _SCHEMA.items():
        if isinstance(sys, schema.cls):
            doc = {"kind": kind, schema.dim: getattr(sys, schema.dim)}
            for f, rank in schema.fields.items():
                value = getattr(sys, f)
                doc[f] = value.tolist() if rank else value
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise TypeError(f"cannot serialize {type(sys).__name__}")


def write_config(path: str, sys) -> None:
    text = config_to_text(sys)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
