"""Shared oracle helpers for the test suite."""

import random

import numpy as np
import pytest

import symfai as s
from symfai.gf2 import bit_array_to_int
from symfai.immunity import _orbits


def fai_brute(f: s.Sanfv) -> tuple[int, int]:
    """(AI, FAI) through the pure-dense pipeline, the independent slow route."""
    d = s.dense_from_sanfv(f)
    a = s.ai(d)
    if a <= 1:
        return a, 2 * a
    best = 2 * a
    for e in range(1, a):
        result = s.min_multiplier_degree(d, e)
        assert result.annihilator is None, "annihilator below AI"
        best = min(best, e + result.d)
    return a, best


def iter_bits_reference(bits: int):
    """Set bit positions, ascending: the loop that the bulk listing replaced."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def graded_reference(bits: int) -> tuple[int, ...]:
    """Monomial masks of an ANF in graded order, by the pure-Python definition."""
    return tuple(sorted(iter_bits_reference(bits), key=lambda c: (c.bit_count(), c)))


def json_reference(masks) -> list[list[int]]:
    """JSON variable lists of monomial masks, by the pure-Python definition."""
    return [list(iter_bits_reference(m)) for m in masks]


def orbit_rows_reference(n: int, k: int) -> tuple[int, ...]:
    """Orbit rows of the weight-k point orbits by their definition, over the points.

    Every weight-k point is tested against every orbit rep in one int64
    outer product, then the tests are XOR-reduced per point orbit: the
    construction the per-block parity tables replaced.
    """
    orbits = _orbits(n)
    lo, hi = orbits.start[k], orbits.start[k + 1]
    points = np.flatnonzero((orbits.rank >= lo) & (orbits.rank < hi))
    points = points[np.argsort(orbits.rank[points], kind="stable")]
    first = np.searchsorted(orbits.rank[points], np.arange(lo, hi))
    within = (points[:, None] & orbits.reps) == points[:, None]
    return tuple(bit_array_to_int(row) for row in np.bitwise_xor.reduceat(within, first, axis=0))


def random_sanfv(rng: random.Random, n: int) -> s.Sanfv:
    return s.Sanfv(n, rng.getrandbits(n + 1))


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xC0FFEE)
