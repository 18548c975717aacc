"""Pure-Python pair walks: the slow paths the fast ones replaced.

Each walks all |F|^2 ordered pairs (or all pairs of prefix cells) one at a
time, with no shared histogram and no numpy, so agreement with
:func:`ucc.setfamily.pair_union_counts` and the checks built on it is
evidence that the fast path counts the same thing.  :func:`chain_sum` and
:func:`decomposition` write H(A | B) two more ways, identities that hold
for every family; they take the pair walk's counts when a caller already
has them, so one walk serves both.  The encoding scan
:func:`union_closed_by_encoding` tests every member set for closure, the
oracle for the depth-first walk of :func:`ucc.enumerate_union_closed`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ucc import SetFamily, binary_entropy

#: how far an oracle's float sum of H(A | B) may stray from the kernel's
ENTROPY_TOL = 1e-12


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


def _entropy(counts: list[int]) -> float:
    total = sum(counts)
    return -math.fsum(c / total * math.log2(c / total) for c in counts)


def union_entropy(family: SetFamily) -> float:
    """H(A | B) in bits from the pair walk's probabilities."""
    return _entropy(list(pair_union_counts(family).values()))


def _h_of_counts(part: int, whole: int) -> float:
    if part == 0 or part == whole:
        return 0.0
    return binary_entropy(part / whole)


def chain_sum(family: SetFamily, union_counts: dict[int, int] | None = None) -> float:
    """sum_i H(U_i | U below i), one prefix grouping per coordinate."""
    total = family.size ** 2
    if union_counts is None:
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


def decomposition(family: SetFamily,
                  union_counts: dict[int, int] | None = None) -> float:
    """H(I) + Pr[I=1] H(U | I=1) + Pr[I=0] H(U | I=0) for U = A | B and the
    member indicator I = [U in F], the split the upper bound rests on."""
    if union_counts is None:
        union_counts = pair_union_counts(family)
    members = frozenset(family.sets)
    parts: tuple[list[int], list[int]] = ([], [])  # unions outside F, inside F
    for u, c in union_counts.items():
        parts[u in members].append(c)
    total = family.size ** 2
    out = binary_entropy(sum(parts[0]) / total)
    for part in parts:
        if part:
            out += sum(part) / total * _entropy(part)
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


def union_closed_by_encoding(n: int):
    """Every nonempty union-closed family over [n], in increasing encoding
    order, by testing all 2^(2^n) - 1 member sets: n <= 4 in practice."""
    for encoding in range(1, 1 << (1 << n)):
        members = [m for m in range(1 << n) if encoding >> m & 1]
        if all(encoding >> (a | b) & 1 for i, a in enumerate(members)
               for b in members[i:]):
            yield SetFamily(n, tuple(members))
