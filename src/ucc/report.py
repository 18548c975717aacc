"""Report serialization: stable JSON, human-readable text, and CSV.

JSON is rendered with sorted keys and fixed separators, floats through
Python's shortest-roundtrip repr, exact rationals as {"num", "den"}
objects.  Byte-identical output for identical inputs is a contract, so
nothing here may embed wall-clock times, paths, hostnames, or dict
iteration order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, TextIO

if TYPE_CHECKING:
    from .entropy import TheoremReport
    from .setfamily import FrequencyProfile, SetFamily

__all__ = [
    "frac_obj",
    "record_obj",
    "theorem_obj",
    "inapplicable_theorem_obj",
    "family_check_obj",
    "render",
]


def frac_obj(fr: Fraction) -> dict[str, int]:
    return {"num": fr.numerator, "den": fr.denominator}


def record_obj(rec: Any) -> Any:
    """JSON-ready form of a result record: its report keys are its fields.

    A NamedTuple becomes a dict of its fields in field order, tuples and
    lists become lists, a dict is sorted by key, a Fraction becomes
    :func:`frac_obj`, and anything else passes through unchanged; nested
    values are converted the same way.
    """
    if isinstance(rec, tuple) and hasattr(rec, "_fields"):
        return {name: record_obj(value) for name, value in zip(rec._fields, rec)}
    if isinstance(rec, (tuple, list)):
        return [record_obj(value) for value in rec]
    if isinstance(rec, dict):
        return {key: record_obj(rec[key]) for key in sorted(rec)}
    if isinstance(rec, Fraction):
        return frac_obj(rec)
    return rec


def theorem_obj(rep: TheoremReport) -> dict[str, Any]:
    return {
        "applicable": rep.applicable,
        "satisfied": rep.satisfied,
    }


def inapplicable_theorem_obj(note: str) -> dict[str, Any]:
    return {"applicable": False, "satisfied": True, "note": note}


def family_check_obj(family: SetFamily, profile: FrequencyProfile,
                     epsilon: Fraction, union_closed: bool,
                     theorem: dict[str, Any], delta: float,
                     psi_minus_delta: float) -> dict[str, Any]:
    """Envelope shared by the check and entropy commands."""
    from .analytic.scalars import PSI  # loaded by then: entropy imports it
    return {
        "family_size": family.size,
        "universe": family.universe_size,
        "union_closed": union_closed,
        "epsilon": frac_obj(epsilon),
        "delta": delta,
        "psi_minus_delta": psi_minus_delta,
        "psi": PSI,
        "max_freq": frac_obj(profile.max_freq),
        "max_freq_element": profile.argmax + 1,
        "theorem": theorem,
    }


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
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
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


def write_grid_csv(fh: TextIO, grid, blocks) -> None:
    """CSV dump of a margin sweep: columns x,y,f,margin, fixed header.

    ``blocks`` yields ``(f_rows, margin_rows)`` in row order, as from
    :func:`ucc.analytic.scalars.grid_margin_rows`; each block is written out before
    the next one is computed.
    """
    fh.write("x,y,f,margin\n")
    labels = [repr(v) for v in grid.tolist()]
    xs = iter(labels)
    for f_rows, margin_rows in blocks:
        for frow, mrow in zip(f_rows.tolist(), margin_rows.tolist()):
            x = next(xs)
            fh.write("".join(f"{x},{y},{f!r},{m!r}\n"
                             for y, f, m in zip(labels, frow, mrow)))
