"""The GF(2) bit kit underneath everything else."""

import random

from symfai.gf2 import (
    BitBasis,
    _butterfly_masks,
    bit_array_to_int,
    int_to_bit_array,
    iter_bits,
    parity_binomial,
    subset_xor_transform,
)

from conftest import naive_rank


def test_transform_is_involution():
    rng = random.Random(5)
    for log_size in range(1, 12):
        bits = rng.getrandbits(1 << log_size)
        assert subset_xor_transform(subset_xor_transform(bits, log_size), log_size) == bits


def test_butterfly_masks_match_division_formula():
    for log_size in range(17):
        size = 1 << log_size
        expected = tuple(
            ((1 << (1 << b)) - 1) * (((1 << size) - 1) // ((1 << (1 << (b + 1))) - 1))
            for b in range(log_size)
        )
        assert _butterfly_masks.__wrapped__(log_size) == expected, log_size


def test_transform_matches_naive():
    rng = random.Random(6)
    for log_size in (1, 2, 3, 4):
        size = 1 << log_size
        bits = rng.getrandbits(size)
        out = subset_xor_transform(bits, log_size)
        for k in range(size):
            expected = 0
            for i in range(size):
                if i & k == i:
                    expected ^= (bits >> i) & 1
            assert (out >> k) & 1 == expected


def test_bit_array_round_trip():
    rng = random.Random(7)
    for length in (1, 7, 8, 9, 64, 100):
        bits = rng.getrandbits(length)
        assert bit_array_to_int(int_to_bit_array(bits, length)) == bits


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_rank_against_naive_elimination():
    rng = random.Random(8)
    for _ in range(50):
        rows = [rng.getrandbits(12) for _ in range(rng.randrange(1, 10))]
        basis = BitBasis()
        adopted = sum(basis.insert(r)[0] is not None for r in rows)
        assert adopted == naive_rank(rows, 12)


def test_basis_combination_tracking():
    rng = random.Random(9)
    for _ in range(30):
        vectors = [rng.getrandbits(16) for _ in range(12)]
        basis = BitBasis()
        for idx, v in enumerate(vectors):
            pivot, row, comb = basis.insert(v)
            recombined = 0
            for j in iter_bits(comb):
                recombined ^= vectors[j]
            # an adopted row is the XOR of the inserted vectors its comb names;
            # a dependent insert's comb names vectors that XOR to zero
            assert recombined == row and (comb >> idx) & 1
            assert (pivot is None) == (row == 0)
            if pivot is not None:
                assert row.bit_length() - 1 == pivot


def test_parity_binomial_edge():
    assert parity_binomial(0, 0) == 1
    assert parity_binomial(3, 5) == 0
