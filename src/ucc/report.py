"""Report serialization, the part every verb runs.

:func:`record_obj` turns a result record into its report object (its
fields are the keys) and :func:`render` writes a report object as stable
JSON.  Each verb builds its own report object in :mod:`ucc.cli` and
renders it here; JSON is the one report form.

JSON is rendered with sorted keys and fixed separators, floats through
Python's shortest-roundtrip repr, exact rationals as {"num", "den"}
objects.  Byte-identical output for identical inputs is a contract, so
nothing here may embed wall-clock times, paths or hostnames.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

__all__ = ["record_obj", "render"]


def record_obj(rec: Any) -> Any:
    """JSON-ready form of a result record: its report keys are its fields.

    A NamedTuple becomes a dict of its fields in field order, tuples and
    lists become lists, a Fraction becomes {"num", "den"}, and anything
    else passes through unchanged; nested values are converted the same
    way.
    """
    if isinstance(rec, tuple) and hasattr(rec, "_fields"):
        return {name: record_obj(value) for name, value in zip(rec._fields, rec)}
    if isinstance(rec, (tuple, list)):
        return [record_obj(value) for value in rec]
    if isinstance(rec, Fraction):
        return {"num": rec.numerator, "den": rec.denominator}
    return rec


def render(obj: dict[str, Any]) -> str:
    """Render a report object as one line of JSON."""
    # allow_nan=False: a non-finite float raises ValueError rather than
    # printing Infinity or NaN, which are not JSON
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
