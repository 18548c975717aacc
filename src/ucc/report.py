"""Report serialization, the part every verb runs.

:func:`record_obj` turns a result record into its report object (its
fields are the keys) and :func:`render` writes a report object as stable
JSON, human-readable ``key  value`` lines, or ``key,value`` CSV.  Each
verb builds its own report object in :mod:`ucc.cli` and renders it here,
in whichever of the three forms ``--format`` names.

JSON is rendered with sorted keys and fixed separators, floats through
Python's shortest-roundtrip repr, exact rationals as {"num", "den"}
objects; the human and CSV forms keep the report's key order.
Byte-identical output for identical inputs is a contract, so nothing
here may embed wall-clock times, paths or hostnames.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

__all__ = ["frac_obj", "record_obj", "render"]


def frac_obj(fr: Fraction) -> dict[str, int]:
    return {"num": fr.numerator, "den": fr.denominator}


def record_obj(rec: Any) -> Any:
    """JSON-ready form of a result record: its report keys are its fields.

    A NamedTuple becomes a dict of its fields in field order, tuples and
    lists become lists, a Fraction becomes :func:`frac_obj`, and anything
    else passes through unchanged; nested values are converted the same
    way.
    """
    if isinstance(rec, tuple) and hasattr(rec, "_fields"):
        return {name: record_obj(value) for name, value in zip(rec._fields, rec)}
    if isinstance(rec, (tuple, list)):
        return [record_obj(value) for value in rec]
    if isinstance(rec, Fraction):
        return frac_obj(rec)
    return rec


def _flatten(obj: Any, prefix: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for key in obj:
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            rows.append((prefix, "[]"))
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}[{i}]", rows)
    elif isinstance(obj, bool):
        rows.append((prefix, "true" if obj else "false"))
    elif obj is None:
        rows.append((prefix, "null"))
    else:
        rows.append((prefix, repr(obj) if isinstance(obj, float) else str(obj)))


def render(obj: dict[str, Any], fmt: str) -> str:
    """Render a report object as 'json', 'human', or 'csv' text."""
    if fmt == "json":
        # allow_nan=False: a non-finite float raises ValueError rather than
        # printing Infinity or NaN, which are not JSON
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten(obj, "", rows)
    if fmt == "csv":
        lines = ["key,value"]
        lines.extend(f"{k},{v}" for k, v in rows)
        return "\n".join(lines) + "\n"
    if fmt == "human":
        width = max((len(k) for k, _ in rows), default=0)
        return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)
    raise ValueError(f"unknown format {fmt!r}")
