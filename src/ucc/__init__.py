"""Verification toolkit for a frequency lower bound on union-closed set systems.

The package has three layers.  `setfamily` holds the exact combinatorial
core (bitmask families, closure deficit, frequencies).  `entropy` checks
the information-theoretic inequalities behind the bound using exact
rational arithmetic on counts.  `analytic` studies the scalar landscape
those inequalities reduce to, up to an interval-arithmetic certificate of
the key two-variable lower bound.  `generators` builds example and fuzz
families, and `cli` wires everything into the `ucc` command.

The names below are resolved on first use (PEP 562): ``import ucc`` loads
no submodule, and ``ucc.SetFamily`` imports ``ucc.setfamily`` when it is
first read.  ``_EXPORTS`` is the one table of where each public name
lives.  ``ucc.cli`` reads its library names through the same table, each
the first time a handler reads it.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names this package re-exports from it
_EXPORTS = {
    "analytic.scalars": (
        "HALF_INV_PHI", "PHI", "PSI", "DiagonalMinimum", "GridCheck",
        "binary_entropy", "corollary_grid_check", "corollary_margin",
        "f_ratio", "g_of", "minimize_diagonal"),
    "analytic.intervals": ("Interval",),
    "analytic.certify": ("Certificate", "certify_lower_bound"),
    "entropy": (
        "BoundReport", "TheoremReport", "UnionDistribution",
        "chain_rule_check", "check_lower_bound", "check_theorem",
        "check_upper_bound", "union_distribution"),
    "generators": (
        "RANDOM_KINDS", "ExampleSpec", "ExampleStats",
        "enumerate_union_closed", "random_families", "slice_example",
        "slice_stats"),
    "rng": ("SplitMix64", "derive_seed"),
    "setfamily": (
        "FrequencyProfile", "SetFamily", "UCFormatError",
        "closure_fraction_unordered", "element_frequencies", "format_family",
        "load_family", "parse_family", "union_closure"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "CapExceededError", "__version__"]


class CapExceededError(RuntimeError):
    """A size guard tripped (closure blow-up, histogram cells, grid points,
    materialization).

    Defined here rather than in its raisers so that ``ucc.cli`` can catch it
    without loading them."""


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
