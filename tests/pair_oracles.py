"""Pure-Python pair walks: the slow paths the pair-union kernel replaced.

Each walks all |F|^2 ordered pairs (or all pairs of prefix cells) one at a
time, with no shared histogram and no numpy, so agreement with
:func:`ucc.setfamily.pair_union_counts` and the checks built on it is
evidence that the fast path counts the same thing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ucc import SetFamily, binary_entropy


def pair_union_counts(family: SetFamily) -> dict[int, int]:
    counts: dict[int, int] = {}
    sets = family.sets
    for i, a in enumerate(sets):
        counts[a] = counts.get(a, 0) + 1  # diagonal pair (A, A)
        for b in sets[i + 1:]:
            u = a | b
            counts[u] = counts.get(u, 0) + 2  # (A, B) and (B, A)
    return counts


def is_union_closed(family: SetFamily) -> bool:
    members = frozenset(family.sets)
    sets = family.sets
    for i, a in enumerate(sets):
        for b in sets[i:]:
            if a | b not in members:
                return False
    return True


def closure_fraction(family: SetFamily) -> Fraction:
    members = frozenset(family.sets)
    sets = family.sets
    hits = 0
    for i, a in enumerate(sets):
        if a in members:  # diagonal pair, always true
            hits += 1
        for b in sets[i + 1:]:
            if a | b in members:
                hits += 2  # (A,B) and (B,A)
    return Fraction(hits, family.size ** 2)


def closure_fraction_unordered(family: SetFamily) -> Fraction:
    members = frozenset(family.sets)
    sets = family.sets
    hits = 0
    for i, a in enumerate(sets):
        for b in sets[i:]:
            if a | b in members:
                hits += 1
    s = family.size
    return Fraction(hits, s * (s + 1) // 2)


def union_entropy(family: SetFamily) -> float:
    """H(A | B) in bits from the pair walk's probabilities."""
    total = family.size ** 2
    return -math.fsum(c / total * math.log2(c / total)
                      for c in pair_union_counts(family).values())


def _h_of_counts(part: int, whole: int) -> float:
    if part == 0 or part == whole:
        return 0.0
    return binary_entropy(part / whole)


def chain_sum(family: SetFamily) -> float:
    """sum_i H(U_i | U below i), one prefix grouping per coordinate."""
    total = family.size ** 2
    union_counts = pair_union_counts(family)
    out = 0.0
    for i in range(family.universe_size):
        pmask = (1 << i) - 1
        groups: dict[int, list[int]] = {}
        for mask, c in union_counts.items():
            cell = groups.setdefault(mask & pmask, [0, 0])
            cell[mask >> i & 1] += c
        out += math.fsum((c0 + c1) / total * _h_of_counts(c1, c0 + c1)
                         for c0, c1 in groups.values())
    return out


def data_processing_sum(family: SetFamily) -> float:
    """sum_i H(U_i | A below i, B below i), summed over every pair of cells."""
    total = family.size ** 2
    out = 0.0
    for i in range(family.universe_size):
        pmask = (1 << i) - 1
        prefix_groups: dict[int, list[int]] = {}
        for mask in family.sets:
            cell = prefix_groups.setdefault(mask & pmask, [0, 0])
            cell[0] += 1
            if not mask >> i & 1:
                cell[1] += 1  # members avoiding element i+1
        cells = list(prefix_groups.values())
        terms = []
        for na, za in cells:
            for nb, zb in cells:
                w = na * nb
                terms.append(w / total * _h_of_counts(za * zb, w))
        out += math.fsum(terms)
    return out
