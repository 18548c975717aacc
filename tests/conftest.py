"""Shared fixtures: golden families on disk and the seeded fuzz corpus."""

from __future__ import annotations

import json
import pathlib

import pytest

import ucc

DATA_DIR = pathlib.Path(__file__).parent / "data"

MASTER_SEED = 20260816

# (kind, universe, requested size) combinations for the fuzz corpus; the
# closure kinds stay at n <= 6, where a closure has at most 64 members
FUZZ_COMBOS = tuple(
    [("uniform", n, s) for n in (5, 6, 7, 8) for s in (6, 10, 16)]
    + [("closure-of-random", n, s) for n in (4, 5, 6) for s in (5, 8, 12)]
    + [("noisy-uc", n, s) for n in (4, 5, 6) for s in (5, 8, 12)]
)

FUZZ_TOTAL = 10_000


def strict_json(text: str):
    """Parse a report as RFC 8259 JSON: the Infinity, -Infinity and NaN that
    Python's json module reads by default raise ValueError instead."""

    def reject(name: str):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def build_fuzz_corpus() -> list[ucc.SetFamily]:
    """Deterministic 10^4-family corpus cycling kinds and parameters."""
    per, extra = divmod(FUZZ_TOTAL, len(FUZZ_COMBOS))
    out: list[ucc.SetFamily] = []
    for pos, (kind, n, size) in enumerate(FUZZ_COMBOS):
        count = per + (1 if pos < extra else 0)
        seed = ucc.derive_seed(MASTER_SEED, pos)
        out.extend(ucc.random_families(n, size, count, seed, kind))
    assert len(out) == FUZZ_TOTAL
    return out


@pytest.fixture(scope="session")
def fuzz_corpus() -> list[ucc.SetFamily]:
    return build_fuzz_corpus()


@pytest.fixture(scope="session")
def enumerated() -> dict[int, tuple[ucc.SetFamily, ...]]:
    """All union-closed families on [n] for n = 1..3 (n=4 is scanned where

    the scan itself is under test, so its timing stays honest)."""
    return {n: tuple(ucc.enumerate_union_closed(n)) for n in range(1, 4)}


@pytest.fixture()
def powerset3() -> ucc.SetFamily:
    return ucc.load_family(DATA_DIR / "powerset3.uc")


@pytest.fixture()
def near_closed() -> ucc.SetFamily:
    return ucc.load_family(DATA_DIR / "near_closed.uc")
