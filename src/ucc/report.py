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

from .analytic.scalars import PSI

if TYPE_CHECKING:
    from .analytic.certify import BoundaryScan, Certificate, ViolationBox
    from .analytic.scalars import DiagonalMinimum, GridCheck
    from .entropy import BoundReport, TheoremReport
    from .generators import ExampleStats
    from .setfamily import FrequencyProfile, SetFamily

__all__ = [
    "frac_obj",
    "bound_report_obj",
    "theorem_obj",
    "inapplicable_theorem_obj",
    "family_check_obj",
    "entropy_report_obj",
    "certificate_obj",
    "grid_check_obj",
    "minimize_obj",
    "example_stats_obj",
    "render",
]


def frac_obj(fr: Fraction) -> dict[str, int]:
    return {"num": fr.numerator, "den": fr.denominator}


def bound_report_obj(rep: BoundReport) -> dict[str, Any]:
    return {
        "check": rep.check,
        "lhs_bits": rep.lhs_bits,
        "rhs_bits": rep.rhs_bits,
        "margin_bits": rep.margin_bits,
        "satisfied": rep.satisfied,
        "applicable": rep.applicable,
        "inputs": dict(sorted(rep.inputs.items())),
    }


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


def entropy_report_obj(base: dict[str, Any], entropy_union_bits: float,
                       lower: BoundReport, upper: BoundReport,
                       chain: BoundReport) -> dict[str, Any]:
    out = dict(base)
    out["entropy_union_bits"] = entropy_union_bits
    out["lower_bound"] = bound_report_obj(lower)
    out["upper_bound"] = bound_report_obj(upper)
    out["chain_rule"] = bound_report_obj(chain)
    return out


def _violation_obj(v: ViolationBox) -> dict[str, float]:
    return {"x_lo": v.x_lo, "x_hi": v.x_hi, "y_lo": v.y_lo, "y_hi": v.y_hi,
            "f_upper": v.f_upper}


def _boundary_obj(b: BoundaryScan) -> dict[str, Any]:
    return {
        "points_per_strip": b.points_per_strip,
        "min_value": b.min_value,
        "min_location": list(b.min_location),
        "all_above_threshold": b.all_above_threshold,
    }


def certificate_obj(cert: Certificate) -> dict[str, Any]:
    return {
        "threshold": cert.threshold,
        "eta": cert.eta,
        "region": [list(cert.region[0]), list(cert.region[1])],
        "boxes_processed": cert.boxes_processed,
        "max_depth_used": cert.max_depth_used,
        "verified": cert.verified,
        "status": cert.status,
        "accepted_boxes": cert.accepted_boxes,
        "indeterminate_boxes": cert.indeterminate_boxes,
        "violation_boxes": [_violation_obj(v) for v in cert.violation_boxes],
        "worst_box": _violation_obj(cert.worst_box) if cert.worst_box else None,
        "boundary": _boundary_obj(cert.boundary),
        "trace_digest": cert.trace_digest,
        "limitation": cert.limitation,
    }


def grid_check_obj(gc: GridCheck) -> dict[str, Any]:
    return {
        "grid_points": gc.grid_points,
        "min_margin": gc.min_margin,
        "argmin": list(gc.argmin),
        "argmin_margin": gc.argmin_margin,
    }


def minimize_obj(dm: DiagonalMinimum) -> dict[str, Any]:
    return {
        "x_star": dm.x_star,
        "value": dm.value,
        "grid_points": dm.grid_points,
        "refine_tol": dm.refine_tol,
    }


def example_stats_obj(stats: ExampleStats) -> dict[str, Any]:
    return {
        "example": {
            "n": stats.n,
            "k": stats.k,
            "m": stats.m,
            "log2_f1": stats.log2_f1,
            "log2_f2": stats.log2_f2,
            "size_ratio": stats.size_ratio,
            "max_freq_exact": stats.max_freq_exact,
            "closure_deficit": float(stats.closure_deficit),
            "log2_inv_closure_deficit": stats.log2_inv_closure_deficit,
            "delta": stats.delta,
            "psi_minus_delta": stats.psi_minus_delta,
        }
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
    :func:`ucc.analytic.grid_margin_rows`; each block is written out before
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
