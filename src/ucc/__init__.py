"""Verification toolkit for a frequency lower bound on union-closed set systems.

The package has three layers.  `setfamily` holds the exact combinatorial
core (bitmask families, closure fractions, frequencies).  `entropy` checks
the information-theoretic inequalities behind the bound using exact
rational arithmetic on counts.  `analytic` studies the scalar landscape
those inequalities reduce to, up to an interval-arithmetic certificate of
the key two-variable lower bound.  `generators` builds example and fuzz
families, and `cli` wires everything into the `ucc` command.
"""

from .analytic import (
    HALF_INV_PHI,
    PHI,
    PSI,
    Certificate,
    DiagonalMinimum,
    GridCheck,
    Interval,
    binary_entropy,
    certify_lower_bound,
    corollary_grid_check,
    corollary_margin,
    diagonal_ratio,
    f_ratio,
    g_of,
    grid_margins,
    minimize_diagonal,
)
from .entropy import (
    BoundReport,
    TheoremReport,
    UnionDistribution,
    chain_rule_check,
    check_lower_bound,
    check_theorem,
    check_upper_bound,
    shannon_entropy,
    union_distribution,
)
from .generators import (
    ExampleSpec,
    ExampleStats,
    enumerate_union_closed,
    random_families,
    slice_example,
    slice_max_frequency,
    slice_stats,
)
from .rng import SplitMix64, derive_seed
from .setfamily import (
    FrequencyProfile,
    SetFamily,
    UCFormatError,
    CapExceededError,
    closure_fraction,
    closure_fraction_unordered,
    dump_family,
    element_frequencies,
    format_family,
    is_union_closed,
    load_family,
    parse_family,
    union_closure,
)

__version__ = "0.1.0"

__all__ = [
    "HALF_INV_PHI",
    "PHI",
    "PSI",
    "BoundReport",
    "CapExceededError",
    "Certificate",
    "DiagonalMinimum",
    "ExampleSpec",
    "ExampleStats",
    "FrequencyProfile",
    "GridCheck",
    "Interval",
    "SetFamily",
    "SplitMix64",
    "TheoremReport",
    "UCFormatError",
    "UnionDistribution",
    "binary_entropy",
    "certify_lower_bound",
    "chain_rule_check",
    "check_lower_bound",
    "check_theorem",
    "check_upper_bound",
    "closure_fraction",
    "closure_fraction_unordered",
    "corollary_grid_check",
    "corollary_margin",
    "derive_seed",
    "diagonal_ratio",
    "dump_family",
    "element_frequencies",
    "enumerate_union_closed",
    "f_ratio",
    "format_family",
    "g_of",
    "grid_margins",
    "is_union_closed",
    "load_family",
    "minimize_diagonal",
    "parse_family",
    "random_families",
    "shannon_entropy",
    "slice_example",
    "slice_max_frequency",
    "slice_stats",
    "union_closure",
    "union_distribution",
    "__version__",
]
