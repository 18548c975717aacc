"""Bitmask set families, the .uc format, and exact closure statistics."""

import functools
import json
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucc
import ucc.setfamily
from tests.conftest import DATA_DIR
from ucc.cli import run_cli
from ucc.setfamily import WORD_CAP, union_closure


def masks_families(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=20)))


def test_from_masks_sorts_and_dedupes():
    fam = ucc.SetFamily.from_masks(2, [3, 1, 3, 0])
    assert fam.sets == (0, 1, 3)
    assert fam.size == 3


def test_universe_size_bounds():
    with pytest.raises(ValueError):
        ucc.SetFamily.from_masks(0, [0])
    with pytest.raises(ValueError):
        ucc.SetFamily.from_masks(WORD_CAP + 1, [0])
    with pytest.raises(ValueError):
        ucc.SetFamily.from_masks(2, [4])  # mask outside universe


def test_masks_are_python_ints():
    # the statistics use int methods (check_theorem's int.bit_length), so
    # a numpy mask is stored as an int and a float is refused
    with pytest.raises(ValueError, match=r"mask 1\.0 is not an integer"):
        ucc.SetFamily(3, (0, 1.0))
    with pytest.raises(ValueError, match="mask '1' is not an integer"):
        ucc.SetFamily.from_masks(3, ["1"])
    fam = ucc.SetFamily.from_masks(3, np.arange(8))
    assert fam.sets == tuple(range(8))
    assert {type(m) for m in fam.sets} == {int}
    assert fam == ucc.SetFamily(3, tuple(range(8)))
    assert ucc.check_theorem(fam).satisfied is True


def test_sets_are_stored_as_a_tuple():
    # a list or a generator of masks gives the family a tuple built from
    # the same masks gives: equal, hashable with the same hash, and sized
    want = ucc.SetFamily(3, (0, 1, 5))
    assert ucc.SetFamily(3, want.sets).sets is want.sets  # a tuple is not copied
    for sets in ([0, 1, 5], (m for m in (0, 1, 5))):
        fam = ucc.SetFamily(3, sets)
        assert type(fam.sets) is tuple
        assert fam == want and hash(fam) == hash(want)
        assert fam.size == 3 and fam.sets == (0, 1, 5)
    with pytest.raises(ValueError, match="empty family"):
        ucc.SetFamily(3, (m for m in ()))


# .uc round trips

def test_format_parse_round_trip(powerset3):
    text = ucc.format_family(powerset3)
    assert ucc.parse_family(text) == powerset3


@given(masks_families())
@settings(max_examples=200)
def test_round_trip_random(nm):
    n, masks = nm
    fam = ucc.SetFamily.from_masks(n, masks)
    assert ucc.parse_family(ucc.format_family(fam)) == fam


def test_parse_accepts_comments_blank_lines_and_crlf():
    fam = ucc.parse_family("# leading comment\r\nn=2\r\n\r\n10\r\n# mid\r\n01\r\n")
    assert fam.sets == (0b01, 0b10)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ucc.UCFormatError, match="line 3") as exc:
        ucc.parse_family("n=2\n10\n10\n")
    assert exc.value.line == 3
    with pytest.raises(ucc.UCFormatError, match="line 2"):
        ucc.parse_family("n=2\n102\n")
    with pytest.raises(ucc.UCFormatError, match="header"):
        ucc.parse_family("10\n01\n")
    with pytest.raises(ucc.UCFormatError):
        ucc.parse_family("n=zzz\n")
    # a header with no set after it is no family
    with pytest.raises(ValueError, match="empty family"):
        ucc.parse_family("n=2\n")


@pytest.mark.parametrize("header", ["n=³", "n=١٢"])
def test_parse_rejects_non_ascii_header_digits(header):
    # str.isdigit accepts both; int() raises on the first and reads the
    # second (Arabic-Indic digits) as 12
    with pytest.raises(ucc.UCFormatError, match="line 1") as exc:
        ucc.parse_family(f"{header}\n101\n")
    assert exc.value.line == 1


def test_duplicate_error_names_both_lines():
    with pytest.raises(ucc.UCFormatError, match="line 2"):
        ucc.parse_family("n=1\n1\n1\n")


# closure statistics

def test_is_union_closed(powerset3):
    assert powerset3.closure_deficit == 0
    assert ucc.SetFamily.from_masks(2, [1, 2]).closure_deficit != 0


def test_closure_fraction_ordered_oracle():
    # {∅,{1},{2}}: 9 ordered pairs, the two mixed singleton pairs escape
    fam = ucc.SetFamily.from_masks(2, [0b00, 0b01, 0b10])
    assert fam.closure_deficit == Fraction(2, 9)
    assert ucc.closure_fraction_unordered(fam) == Fraction(5, 6)


def test_closure_fraction_two_singletons():
    fam = ucc.SetFamily.from_masks(2, [1, 2])
    assert fam.closure_deficit == Fraction(1, 2)
    assert ucc.closure_fraction_unordered(fam) == Fraction(2, 3)


def test_closure_fraction_one_on_union_closed(powerset3):
    assert powerset3.closure_deficit == 0


@given(masks_families())
@settings(max_examples=100)
def test_closure_fraction_brute_force(nm):
    n, masks = nm
    fam = ucc.SetFamily.from_masks(n, masks)
    members = set(fam.sets)
    good = sum((a | b) in members for a in fam.sets for b in fam.sets)
    assert fam.closure_deficit == 1 - Fraction(good, fam.size ** 2)


def test_element_frequencies_oracle():
    fam = ucc.SetFamily.from_masks(2, [0b01, 0b11])
    prof = ucc.element_frequencies(fam)
    assert prof.counts == (2, 1)
    assert all(type(c) is int for c in prof.counts)
    assert [Fraction(c, fam.size) for c in prof.counts] == [Fraction(1), Fraction(1, 2)]
    assert prof.max_freq == 1
    assert prof.argmax == 0
    assert 1 - prof.max_freq == 0


@given(masks_families())
@settings(max_examples=100)
def test_element_counts_brute_force(nm):
    n, masks = nm
    fam = ucc.SetFamily.from_masks(n, masks)
    prof = ucc.element_frequencies(fam)
    counts = tuple(sum(m >> i & 1 for m in fam.sets) for i in range(n))
    assert prof.counts == counts
    assert prof.argmax == counts.index(max(counts))
    assert prof.max_freq == Fraction(max(counts), fam.size)


def test_profile_builds_one_fraction(monkeypatch):
    # the counts are ints over the shared denominator |F|, so only the
    # densest element's frequency is ever a Fraction
    built: list[Fraction] = []

    def counting(*args):
        built.append(Fraction(*args))
        return built[-1]

    monkeypatch.setattr(ucc.setfamily, "Fraction", counting)
    fam = ucc.SetFamily.from_masks(6, range(1, 64, 3))
    prof = ucc.element_frequencies(fam)
    assert len(built) == 1
    assert prof.max_freq == Fraction(11, 21)
    assert (prof.counts, prof.argmax) == ((11, 10, 11, 10, 11, 10), 0)


def test_frequency_argmax_prefers_smallest_element():
    fam = ucc.SetFamily.from_masks(3, [0b011, 0b110, 0b101])
    prof = ucc.element_frequencies(fam)
    assert prof.max_freq == Fraction(2, 3)
    assert prof.argmax == 0


@pytest.fixture()
def profiles_built(monkeypatch):
    built: list[int] = []
    profile = ucc.setfamily.FrequencyProfile

    def counting(**fields):
        built.append(1)
        return profile(**fields)

    monkeypatch.setattr(ucc.setfamily, "FrequencyProfile", counting)
    return built


def test_frequencies_computed_once_per_entropy_run(profiles_built, capsys):
    assert run_cli(["entropy", str(DATA_DIR / "near_closed.uc")]) == 0
    capsys.readouterr()
    assert len(profiles_built) == 1


def test_frequencies_computed_once_per_fuzz_family(profiles_built, capsys):
    argv = ["fuzz", "--n", "5", "--count", "40", "--seed", "11", "--entropy-checks"]
    assert run_cli(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(profiles_built) == rep["theorem_checked"] > 0


def test_frequencies_refuse_the_empty_family():
    # a family has at least one set, so no statistic ever meets an empty one
    with pytest.raises(ValueError, match="empty family"):
        ucc.element_frequencies(ucc.SetFamily(3, ()))
    with pytest.raises(ValueError, match="empty family"):
        ucc.SetFamily.from_masks(3, [])


def test_union_closure_fixed_point():
    fam = ucc.SetFamily.from_masks(2, [1, 2])
    closed = union_closure(fam)
    assert closed.sets == (1, 2, 3)
    assert closed.closure_deficit == 0


def test_union_closure_is_idempotent(powerset3):
    assert union_closure(powerset3) == powerset3


@given(masks_families())
@settings(max_examples=100)
def test_union_closure_contains_family_and_is_closed(nm):
    n, masks = nm
    fam = ucc.SetFamily.from_masks(n, masks)
    closed = union_closure(fam)
    assert set(fam.sets) <= set(closed.sets)
    assert closed.closure_deficit == 0
    # and smallest: each member is the union of the input sets inside it
    for c in closed.sets:
        assert functools.reduce(operator.or_, (a for a in fam.sets if a & c == a), 0) == c


def test_union_closure_at_the_word_cap():
    # 30 random masks over [63]: a closure of tens of thousands of members,
    # about 10^9 pair unions for a worklist over the closure
    rng = random.Random(63)
    fam = ucc.SetFamily.from_masks(WORD_CAP, [rng.getrandbits(WORD_CAP) for _ in range(30)])
    closed = union_closure(fam)
    assert closed.size == 31_692
    assert set(fam.sets) <= set(closed.sets)
    for c in closed.sets:
        assert functools.reduce(operator.or_, (a for a in fam.sets if a & c == a), 0) == c


def test_union_closure_cap(monkeypatch):
    monkeypatch.setattr(ucc.setfamily, "_CLOSURE_CAP", 1000)
    fam = ucc.SetFamily.from_masks(16, [1 << i for i in range(16)])
    with pytest.raises(ucc.CapExceededError, match="cap of 1000 members"):
        union_closure(fam)


def test_load_dump(tmp_path, powerset3):
    path = tmp_path / "fam.uc"
    path.write_text(ucc.format_family(powerset3), encoding="utf-8")
    assert ucc.load_family(path) == powerset3
