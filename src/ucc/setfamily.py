"""Finite set families over a ground set {1, ..., n}, stored as bit masks.

Element j of the ground set is bit j-1 of a Python int, so set union is
``|``.  A family is its sorted masks, ``sets``, and the statistics cached
on it; it is built from masks or parsed from ``.uc`` text.  The
universe is capped at 63 elements: families we materialize must fit in a
machine word per set, and everything larger is handled symbolically by the
generator module.

All closure and frequency statistics returned here are exact: integer
counts or :class:`fractions.Fraction` values.  The closure statistic is
one number, the deficit eps: the share of the |F|^2 ordered pairs whose
union is not a member, 0 exactly when the family is union closed.
Downstream inequality checks convert to float at the last moment, so no
rounding error is inherited from this layer.

Every pair statistic, here and in :mod:`ucc.entropy`, derives from one
histogram: the exact count of ordered pairs (A, B) in F x F, over all
|F|^2 of them, whose union is each mask U.  :func:`pair_union_counts`
builds it as an OR convolution, ``u = mobius(zeta(1_F)^2)`` (Yates 1937;
Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007), choosing its regime
from the input: a dense int64 transform over all 2^n cells when
2^n <= min(|F|^2, 2^24), otherwise blocked pairwise ORs that never
allocate anything of size 2^n.  The histogram is a pair of int64 arrays,
the unions in ascending order and their positive counts, 16 bytes a cell.
One cell cap bounds its memory in both regimes: a histogram of more than
2^24 distinct unions is refused with :class:`CapExceededError`.  The
pairwise build peaks near three times the size of what it builds (72 MiB
for the 24 MiB histogram of 1.5M cells), mostly one ``bitwise_or.outer``
block of ``_PAIR_BLOCK_CELLS`` cells and the temporaries of its
``np.unique``: with blocks of 2^17 cells that peak is 41 MiB, but the
build is slower.  The one pass that reads every cell of a built
histogram, :attr:`SetFamily.union_entropy`, turns its counts into Python
ints ``_CHUNK_CELLS`` cells at a time, so on top of the histogram it holds
no per-cell buffer beyond one chunk; the closure deficit,
:attr:`SetFamily.closure_deficit`, reads only the cells of the |F| members,
once per family, for the unordered closure fraction, the theorem check and
the upper bound.  :attr:`SetFamily.union_counts` computes the histogram at
most once per family, so the closure deficit, the union distribution, both
entropy bounds and the chain rule share one build.  Member lookups are
binary searches in the sorted unions, never a table over 2^n masks.
:attr:`SetFamily.union_entropy` caches the entropy of that histogram, read
by the union distribution and all three entropy checks, and
:attr:`SetFamily.frequency_profile` the element counts and largest
frequency that the theorem check and the lower bound share.

The text format (``.uc``) is a header line ``n=<universe size>`` followed
by one bit string per set, leftmost character = element 1.  ``#`` starts a
comment, blank lines are skipped, CRLF is tolerated, and
:func:`load_family` skips a leading UTF-8 byte order mark.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import index
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import CapExceededError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WORD_CAP",
    "UCFormatError",
    "CapExceededError",
    "SetFamily",
    "FrequencyProfile",
    "parse_family",
    "format_family",
    "load_family",
    "closure_fraction_unordered",
    "element_frequencies",
    "union_closure",
    "pair_union_counts",
]

WORD_CAP = 63
#: most members :func:`union_closure` builds before it gives up
_CLOSURE_CAP = 1_000_000
#: cells of one ``bitwise_or.outer`` block in the pairwise regime (8 MB);
#: the block and its ``np.unique`` temporaries are most of the build's peak,
#: but at 2^19 cells 1,000 masks over [40] took 2.5 times as long
_PAIR_BLOCK_CELLS = 1 << 20
#: most cells a pair-union histogram may hold (4096^2): 256 MB as two int64
#: arrays, one chunk more in the passes that read it, and a peak near three
#: times its size while the pairwise regime builds it
_MAX_CELLS = 1 << 24
#: cells that one step of a pass over a built histogram reads: 32 KB of
#: int64, and enough for the 2,080 cells of 64 sets in one step
_CHUNK_CELLS = 1 << 12


class UCFormatError(ValueError):
    """Malformed ``.uc`` input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SetFamily:
    """Canonical, deduplicated family of subsets of {1, ..., universe_size}.

    ``sets`` holds Python ints, strictly increasing, which fixes one
    canonical order for iteration, serialization, and hashing.  It is a
    tuple whatever iterable it is given, so a family built from a list or
    a generator equals and hashes like one built from a tuple.  A mask
    that is not an int is stored as ``operator.index`` of it, so a numpy
    integer is taken, and a float or any other non-integer raises
    ValueError naming the mask.  A family has at least one set: an empty
    ``sets`` raises ValueError, so no statistic below needs to check for
    one.  A family is treated as immutable: equality and hashing read
    ``(universe_size, sets)``, and the statistics cached on it are
    computed once.  It is no container: its members are ``sets`` and
    their number ``size``.
    """

    def __init__(self, universe_size: int, sets: Iterable[int]) -> None:
        n = universe_size
        sets = tuple(sets)  # a tuple is kept as it is, not copied
        if not 1 <= n <= WORD_CAP:
            raise ValueError(f"universe size must be in 1..{WORD_CAP}, got {n}")
        if not sets:
            raise ValueError("empty family: a family has at least one set")
        limit = 1 << n
        prev = -1
        converted = False
        for m in sets:
            # only a mask that is not a plain int pays for index():
            # calling it on every mask slowed the n = 5 enumeration by a fifth
            if m.__class__ is not int:  # a numpy integer, a bool, a float
                try:
                    m = index(m)
                except TypeError:
                    raise ValueError(f"mask {m!r} is not an integer") from None
                converted = True
            if not 0 <= m < limit:
                raise ValueError(f"mask {m} out of range for universe of size {n}")
            if m <= prev:
                raise ValueError("sets must be strictly increasing (canonical order)")
            prev = m
        self.universe_size = universe_size
        self.sets = tuple(map(index, sets)) if converted else sets

    def __repr__(self) -> str:
        return f"SetFamily(universe_size={self.universe_size!r}, sets={self.sets!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.universe_size, self.sets) == (other.universe_size, other.sets)

    def __hash__(self) -> int:
        return hash((self.universe_size, self.sets))

    @classmethod
    def from_masks(cls, universe_size: int, masks: Iterable[int]) -> "SetFamily":
        """Build from arbitrary mask iterable; duplicates are collapsed."""
        return cls(universe_size, tuple(sorted(set(masks))))

    @property
    def size(self) -> int:
        return len(self.sets)

    @cached_property
    def union_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair-union histogram ``(unions, counts)`` of
        :func:`pair_union_counts`, built on first use and kept for the life
        of the family.  Both arrays are read-only."""
        unions, counts = pair_union_counts(self.universe_size, self.sets)
        unions.flags.writeable = False
        counts.flags.writeable = False
        return unions, counts

    @cached_property
    def closure_deficit(self) -> Fraction:
        """eps, the share of ordered pairs (A, B), diagonal included, whose
        union is not a member, from :attr:`union_counts`; computed on first
        use and kept for the life of the family, so the unordered closure
        fraction, the theorem check and the upper bound share one search.
        0 exactly when the family is union closed, and at most
        1 - 1/|F|, as the |F| diagonal pairs give their own members back.

        Every member A is a union, of the diagonal pair (A, A), so a binary
        search in the sorted unions finds each one; nothing as wide as the
        mask range is allocated.
        """
        import numpy as np

        unions, counts = self.union_counts
        members = np.searchsorted(unions, np.array(self.sets, dtype=np.int64))
        total = self.size ** 2
        return Fraction(total - sum(counts[members].tolist()), total)

    @cached_property
    def union_entropy(self) -> float:
        """Entropy in bits of A | B for independent uniform draws A, B,
        from :attr:`union_counts`; computed on first use and kept for the
        life of the family, so every entropy check reads this one value.
        The one pass that reads every cell: the int64 counts become Python
        ints ``_CHUNK_CELLS`` at a time, so no list longer than a chunk is
        built."""
        counts = self.union_counts[1]
        step = _CHUNK_CELLS
        cells = chain.from_iterable(counts[lo:lo + step].tolist()
                                    for lo in range(0, len(counts), step))
        return _entropy_from_counts(cells, self.size ** 2)

    @cached_property
    def frequency_profile(self) -> FrequencyProfile:
        """Element counts of :func:`element_frequencies`, computed on first
        use and kept for the life of the family.  The counts are ints and
        share the denominator |F|, so the densest element is found on them
        and ``max_freq`` is the one Fraction built."""
        counts = [0] * self.universe_size
        for mask in self.sets:
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
        argmax = counts.index(max(counts))
        return FrequencyProfile(counts=tuple(counts), argmax=argmax,
                                max_freq=Fraction(counts[argmax], self.size))


def _entropy_from_counts(counts: Iterable[int], total: int) -> float:
    # H = log2(T) - (1/T) sum c log2 c over the positive integer counts
    acc = math.fsum(c * math.log2(c) for c in counts)
    return math.log2(total) - acc / total


class FrequencyProfile(NamedTuple):
    """Per-element membership counts of a family.

    ``counts[i]`` is the number of member sets containing ground element
    i+1, so its frequency is ``counts[i] / |F|``.  ``argmax`` is the
    smallest 0-based index with the largest count, and ``max_freq`` is
    that count over |F|, the densest element's frequency.
    """

    counts: tuple[int, ...]
    argmax: int
    max_freq: Fraction


def parse_family(text: str) -> SetFamily:
    """Parse ``.uc`` text into a :class:`SetFamily`.

    Raises :class:`UCFormatError` with a line number on malformed input:
    missing or bad header, wrong-width or non-binary rows, duplicates,
    universe size outside 1..63.  A header with no set after it is no
    family: :class:`SetFamily` refuses it with a ValueError.
    """
    n: int | None = None
    masks: list[int] = []
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise UCFormatError("expected header of the form n=<universe size>", lineno)
            body = line[2:].strip()
            # str.isdigit alone also accepts non-ASCII digits such as "³"
            if not (body.isascii() and body.isdigit()):
                raise UCFormatError(f"bad universe size {body!r}", lineno)
            n = int(body)
            if not 1 <= n <= WORD_CAP:
                raise UCFormatError(f"universe size must be in 1..{WORD_CAP}, got {n}", lineno)
            continue
        if len(line) != n:
            raise UCFormatError(f"expected {n} characters, got {len(line)}", lineno)
        rest = line.lstrip("01")  # from the first character that is not a bit
        if rest:
            raise UCFormatError(f"invalid character {rest[0]!r} in bit string", lineno)
        mask = int(line[::-1], 2)  # the leftmost character is bit 0
        if mask in seen:
            raise UCFormatError(f"duplicate of the set on line {seen[mask]}", lineno)
        seen[mask] = lineno
        masks.append(mask)
    if n is None:
        raise UCFormatError("empty input: missing n=<universe size> header")
    return SetFamily(n, tuple(sorted(masks)))


def format_family(family: SetFamily) -> str:
    """Serialize to ``.uc`` text; ``parse_family`` round-trips it exactly."""
    n = family.universe_size
    # n binary digits, reversed so that element 1 (bit 0) comes first
    return f"n={n}\n" + "".join(f"{mask:0{n}b}"[::-1] + "\n" for mask in family.sets)


def load_family(path: str) -> SetFamily:
    # utf-8-sig skips the byte order mark some editors write at the start
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_family(fh.read())


def pair_union_counts(universe_size: int,
                      sets: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Number of ordered pairs (A, B) of ``sets`` with A | B = U, for every U.

    Returns ``(unions, counts)``, two int64 arrays: every U reached by some
    pair, strictly ascending, and its count, always positive.  Exact over
    all len(sets)^2 ordered pairs (diagonal included), so every member of
    ``sets`` is among the unions.  ``sets`` must be one or more distinct
    masks below 2^universe_size.  Dense regime
    (2^n <= min(|F|^2, ``_MAX_CELLS``)): zeta transform of the indicator,
    squared pointwise, then the Mobius transform, all in int64 over 2^n
    cells.  Pairwise regime otherwise:
    ``bitwise_or.outer`` over row blocks of at most ``_PAIR_BLOCK_CELLS``
    cells, each counted with ``np.unique`` and merged into the sorted
    pair; it never allocates anything of size 2^n, and raises
    :class:`CapExceededError` as soon as the merged histogram holds more
    than ``_MAX_CELLS`` cells.  int64 cannot overflow: counts are at most
    |F|^2 <= 4^24 in the dense regime and sum to |F|^2 in the other.
    """
    import numpy as np

    size = len(sets)
    masks = np.array(sets, dtype=np.int64)
    if 1 << universe_size <= min(size * size, _MAX_CELLS):
        f = np.zeros(1 << universe_size, dtype=np.int64)
        f[masks] = 1
        for i in range(universe_size):  # zeta: f[S] = #members inside S
            v = f.reshape(-1, 2, 1 << i)
            v[:, 1, :] += v[:, 0, :]
        f *= f  # pairs with both members inside S
        for i in range(universe_size):  # Mobius: pairs whose union is S
            v = f.reshape(-1, 2, 1 << i)
            v[:, 1, :] -= v[:, 0, :]
        support = np.flatnonzero(f)
        return support.astype(np.int64, copy=False), f[support]
    unions = counts = None
    rows = max(1, _PAIR_BLOCK_CELLS // size)
    for start in range(0, size, rows):
        block = np.bitwise_or.outer(masks[start:start + rows], masks)
        values, hits = np.unique(block, return_counts=True)
        hits = hits.astype(np.int64, copy=False)
        if unions is None:
            unions, counts = values, hits
        else:  # add the counts of known unions, insert the new ones in order
            at = np.searchsorted(unions, values)
            known = at < len(unions)
            known[known] = unions[at[known]] == values[known]
            counts[at[known]] += hits[known]
            fresh = ~known
            unions = np.insert(unions, at[fresh], values[fresh])
            counts = np.insert(counts, at[fresh], hits[fresh])
        if len(unions) > _MAX_CELLS:
            raise CapExceededError(
                f"pair-union histogram exceeds cap of {_MAX_CELLS} cells")
    return unions, counts


def closure_fraction_unordered(family: SetFamily) -> Fraction:
    """Share of unordered pairs {A, B}, A = B allowed, whose union is a
    member.

    Every off-diagonal unordered pair is two ordered ones and every
    diagonal pair is a hit, so from the ordered hits |F|^2 (1 - eps) the
    share is (|F|^2 (1 - eps) + |F|) / (|F| (|F| + 1)).  Secondary
    diagnostic only; the theorem checks read eps itself.
    """
    s = family.size
    return (s * s * (1 - family.closure_deficit) + s) / (s * (s + 1))


def element_frequencies(family: SetFamily) -> FrequencyProfile:
    """Membership count of every ground element and the exact largest
    frequency (cached per family)."""
    return family.frequency_profile


def union_closure(family: SetFamily) -> SetFamily:
    """Smallest union-closed family containing the input.

    Folds the generators in one at a time: the closure of the ones so far
    plus g is that closure, g, and g | c for each c in it.  For generators
    S and closure F that is O(|S| |F|) unions, where a worklist combining
    each new union with every member is O(|F|^2).  Raises
    :class:`CapExceededError` once the closure grows past ``_CLOSURE_CAP``
    members (a closure can reach 2^|S| - 1 distinct unions).
    """
    closure: set[int] = set()
    for g in family.sets:
        closure |= {g | c for c in closure}
        closure.add(g)
        if len(closure) > _CLOSURE_CAP:
            raise CapExceededError(
                f"union closure exceeded cap of {_CLOSURE_CAP} members")
    return SetFamily(family.universe_size, tuple(sorted(closure)))
