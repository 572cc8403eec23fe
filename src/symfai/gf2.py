"""Low-level GF(2) bit machinery.

Bit vectors are plain Python ints (bit i = entry i).  numpy serves the bulk
steps: packing and unpacking bit vectors to 0/1 arrays (truth tables,
lookup tables) and listing the monomial masks of a witness in graded
order.  Everything is exact, no floating point anywhere.
"""

from __future__ import annotations

import functools

import numpy as np


def parity_binomial(k: int, i: int) -> int:
    """C(k, i) mod 2 via the bitwise subset test (Lucas' theorem for p = 2)."""
    if k < 0 or i < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if i > k:
        return 0
    return 1 if (i & k) == i else 0


@functools.lru_cache(maxsize=None)
def _butterfly_masks(log_size: int) -> tuple[int, ...]:
    """For each index-bit b, the mask of positions whose index has bit b clear.

    Each mask repeats a block of 2^b ones in every period of 2^(b+1)
    positions; it is built by doubling the repeated part, which stays
    linear in the size where a big-int division by the repunit does not.
    """
    size = 1 << log_size
    masks = []
    for b in range(log_size):
        mask = (1 << (1 << b)) - 1
        width = 1 << (b + 1)
        while width < size:
            mask |= mask << width
            width <<= 1
        masks.append(mask)
    return tuple(masks)


def subset_xor_transform(bits: int, log_size: int) -> int:
    """Self-inverse zeta/Moebius transform mod 2 over the subset lattice.

    out[k] = XOR of in[i] over all i with i a bit-submask of k, for indices
    0 <= k < 2**log_size.  Applying it twice gives the identity.
    """
    for b, mask in enumerate(_butterfly_masks(log_size)):
        bits ^= (bits & mask) << (1 << b)
    return bits


def int_to_bit_array(bits: int, length: int) -> np.ndarray:
    """Unpack an int bit vector into a uint8 array of 0/1 entries."""
    nbytes = (length + 7) // 8
    raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length]


def bit_array_to_int(arr: np.ndarray) -> int:
    """Pack a 0/1 array into an int bit vector (entry i -> bit i)."""
    packed = np.packbits(np.asarray(arr, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def graded_masks(bits: int, n: int) -> tuple[int, ...]:
    """Set positions of a 2^n-bit vector in graded order (popcount, then value).

    Read as an ANF coefficient vector, these are its monomial masks.
    """
    masks = np.flatnonzero(int_to_bit_array(bits, 1 << n))
    # flatnonzero lists the masks ascending, so a stable sort by popcount suffices
    return tuple(masks[np.argsort(np.bitwise_count(masks), kind="stable")].tolist())


def iter_bits(bits: int):
    """Yield the positions of set bits in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class BitBasis:
    """Incremental echelon basis of int bit vectors over GF(2), with combinations.

    The pivot of a stored vector is its highest set bit; pivots are pairwise
    distinct, so any nonzero combination of stored vectors has the highest
    involved pivot as its own leading bit.  ``insert`` fully reduces a vector
    against the basis and either adopts it (returning its pivot) or reports
    linear dependence with pivot ``None``.

    The basis is one dict pivot -> (row, comb), where comb is the
    combination of inserted vectors that produced the row, as a bit mask
    over insertion indices: XOR-ing the inserted vectors it names gives the
    row.  On a dependent insert the returned combination names inserted
    vectors that XOR to zero.
    """

    __slots__ = ("_rows", "count")

    def __init__(self):
        self._rows: dict[int, tuple[int, int]] = {}
        self.count = 0

    def insert(self, vec: int) -> tuple[int | None, int, int]:
        """Reduce ``vec`` and adopt it if independent.

        Returns (pivot, reduced_vector, combination); pivot is None and the
        reduced vector 0 when ``vec`` depends on earlier insertions.
        """
        comb = 1 << self.count
        self.count += 1
        rows = self._rows
        while vec:
            p = vec.bit_length() - 1
            entry = rows.get(p)
            if entry is None:
                rows[p] = (vec, comb)
                return p, vec, comb
            row, row_comb = entry
            vec ^= row
            comb ^= row_comb
        return None, 0, comb
