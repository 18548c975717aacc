"""Analytic side of the toolkit: entropy scalars, interval enclosures, and
the branch-and-bound certificate for the minimum of f."""

from .scalars import (
    HALF_INV_PHI,
    PHI,
    PSI,
    DiagonalMinimum,
    GridCheck,
    big_g_of,
    binary_entropy,
    corollary_grid_check,
    corollary_margin,
    diagonal_ratio,
    f_ratio,
    g_of,
    g_prime_of,
    grid_margin_rows,
    grid_margins,
    minimize_diagonal,
)
from .intervals import (
    TRANSCENDENTAL_SLACK,
    Interval,
    big_g_enclosure,
    f_gradient_enclosure,
    f_mean_value,
    f_point_enclosure,
    g_enclosure,
    product_enclosure,
)
from .certify import (
    BoundaryScan,
    Box,
    Certificate,
    ViolationBox,
    certify_lower_bound,
)

__all__ = [
    "HALF_INV_PHI", "PHI", "PSI",
    "DiagonalMinimum", "GridCheck",
    "big_g_of", "binary_entropy", "corollary_grid_check", "corollary_margin",
    "diagonal_ratio", "f_ratio", "g_of", "g_prime_of",
    "grid_margin_rows", "grid_margins", "minimize_diagonal",
    "TRANSCENDENTAL_SLACK", "Interval",
    "big_g_enclosure", "f_gradient_enclosure", "f_mean_value",
    "f_point_enclosure", "g_enclosure", "product_enclosure",
    "BoundaryScan", "Box", "Certificate", "ViolationBox",
    "certify_lower_bound",
]
