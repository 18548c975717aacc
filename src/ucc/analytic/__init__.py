"""Analytic side of the toolkit: entropy scalars, interval enclosures, and
the branch-and-bound certificate for the minimum of f.

The names below are resolved on first use (PEP 562), so importing one
submodule does not load the others.
"""

import importlib

# home module -> the names this package re-exports from it
_EXPORTS = {
    "scalars": (
        "HALF_INV_PHI", "PHI", "PSI", "DiagonalMinimum", "GridCheck",
        "big_g_of", "binary_entropy", "corollary_grid_check",
        "corollary_margin", "diagonal_ratio", "f_ratio", "g_of",
        "g_prime_of", "grid_margin_rows", "grid_margins",
        "minimize_diagonal"),
    "intervals": (
        "TRANSCENDENTAL_SLACK", "Interval", "big_g_enclosure",
        "f_gradient_enclosure", "f_mean_value", "f_point_enclosure",
        "g_enclosure", "product_enclosure"),
    "certify": (
        "BoundaryScan", "Box", "Certificate", "ViolationBox",
        "certify_lower_bound"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
