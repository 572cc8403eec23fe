"""Shared oracle helpers for the test suite."""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symfai as s
from symfai.gf2 import bit_array_to_int


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports the same symfai as this process."""
    src = str(Path(s.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120, **kwargs)


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


def naive_rank(rows, width: int) -> int:
    """GF(2) rank of int bit vectors by textbook Gauss-Jordan elimination over the columns."""
    work = list(rows)
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(work)) if (work[i] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and (work[i] >> col) & 1:
                work[i] ^= work[rank]
        rank += 1
    return rank


def graded_reference(bits: int) -> tuple[int, ...]:
    """Monomial masks of an ANF in graded order, by the pure-Python definition."""
    return tuple(sorted(iter_bits_reference(bits), key=lambda c: (c.bit_count(), c)))


def json_reference(masks) -> list[list[int]]:
    """JSON variable lists of monomial masks, by the pure-Python definition."""
    return [list(iter_bits_reference(m)) for m in masks]


def _block_canon(level: int) -> np.ndarray:
    """Least orbit member of every subset of a block of 2^level variables.

    The block's group C2 wr ... wr C2 acts on each half by the group one
    level down and swaps the halves, so the least member of an orbit puts
    the larger of the halves' least members low and the smaller one high.
    """
    canon = np.arange(2, dtype=np.int64)
    for width in (1 << i for i in range(level)):
        subsets = np.arange(1 << (2 * width), dtype=np.int64)
        lo = canon[subsets & ((1 << width) - 1)]
        hi = canon[subsets >> width]
        canon = np.maximum(lo, hi) | np.minimum(lo, hi) << width
    return canon


@functools.lru_cache(maxsize=None)
def orbit_rank_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Graded orbit reps and the orbit rank of every mask, by a pass over all 2^n masks.

    The least member of a mask's P-orbit is the least member of each block's
    part, found by one _block_canon lookup per block (smallest block lowest):
    the construction the composed block orbits of _orbits(n) replaced.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    least = np.zeros_like(masks)
    shift = 0
    for level in range(n.bit_length()):
        if n >> level & 1:
            width = 1 << level
            least |= _block_canon(level)[masks >> shift & ((1 << width) - 1)] << shift
            shift += width
    reps = np.flatnonzero(least == masks)
    reps = reps[np.lexsort((reps, np.bitwise_count(reps)))]
    rank = np.zeros(1 << n, dtype=np.int64)
    rank[reps] = np.arange(len(reps))
    rank = rank[least]
    reps.flags.writeable = rank.flags.writeable = False
    return reps, rank


def orbit_rows_reference(n: int, k: int) -> tuple[int, ...]:
    """Orbit rows of the weight-k point orbits by their definition, over the points.

    Every weight-k point is tested against every orbit rep in one int64
    outer product, then the tests are XOR-reduced per point orbit: the
    construction the per-block parity tables replaced.  The orbits come
    from orbit_rank_reference, not from the engine's tables.
    """
    reps, rank = orbit_rank_reference(n)
    lo, hi = np.searchsorted(np.bitwise_count(reps), [k, k + 1])
    points = np.flatnonzero((rank >= lo) & (rank < hi))
    points = points[np.argsort(rank[points], kind="stable")]
    first = np.searchsorted(rank[points], np.arange(lo, hi))
    within = (points[:, None] & reps) == points[:, None]
    return tuple(bit_array_to_int(row) for row in np.bitwise_xor.reduceat(within, first, axis=0))


def random_sanfv(rng: random.Random, n: int) -> s.Sanfv:
    return s.Sanfv(n, rng.getrandbits(n + 1))


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xC0FFEE)
