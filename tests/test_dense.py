"""Dense oracle: ANF transform, annihilators, low-degree multiples."""

import random

import pytest

import symfai as s
from symfai import dense
from symfai.errors import CapabilityError, InvariantViolation

from conftest import iter_bits_reference, naive_rank, random_sanfv


def x_i(n, i):
    return s.DenseBooleanFunction(n, sum(1 << x for x in range(1 << n) if (x >> i) & 1))


def test_echelon_rank_against_naive_elimination():
    # the oracle's own elimination against the naive reference that also checks gf2.BitBasis
    rng = random.Random(8)
    for _ in range(50):
        rows = [rng.getrandbits(12) for _ in range(rng.randrange(1, 10))]
        echelon = {}
        adopted = sum(dense._echelon_insert(echelon, r, 1 << i)[0] is not None for i, r in enumerate(rows))
        assert adopted == len(echelon) == naive_rank(rows, 12)


def test_echelon_combination_tracking():
    rng = random.Random(9)
    for _ in range(30):
        vectors = [rng.getrandbits(16) for _ in range(12)]
        echelon = {}
        for idx, v in enumerate(vectors):
            pivot, row, comb = dense._echelon_insert(echelon, v, 1 << idx)
            recombined = 0
            for j in iter_bits_reference(comb):
                recombined ^= vectors[j]
            # an adopted row is the XOR of the columns its comb names; a
            # dependent insert's comb names columns that XOR to zero
            assert recombined == row and (comb >> idx) & 1
            assert (pivot is None) == (row == 0)
            if pivot is not None:
                assert row.bit_length() - 1 == pivot and echelon[pivot] == (row, comb)


def test_oracle_shares_no_elimination_with_the_engine():
    # the immunity engine eliminates inside _multiplier_scan, and gf2.BitBasis
    # is the elimination it used before; the oracle must reach neither
    assert not hasattr(dense, "BitBasis") and not hasattr(dense, "immunity")
    for fn in (dense._annihilator_search, dense.min_multiplier_degree):
        assert not {"BitBasis", "immunity", "_multiplier_scan"} & set(fn.__code__.co_names)


def test_moebius_hand_example():
    f = s.DenseBooleanFunction(2, 0b1000)  # 1 only at x = 11
    assert s.moebius(f).bits == 1 << 3  # the monomial x0*x1


def test_moebius_involution(rng):
    for _ in range(40):
        n = rng.randrange(1, 13)
        f = s.DenseBooleanFunction(n, rng.getrandbits(1 << n))
        assert s.anf_to_table(s.moebius(f)) == f


def test_sigma2_dense_anf():
    anf = s.moebius(s.dense_from_sanfv(s.sigma(3, 2)))
    assert anf.monomials() == (0b011, 0b101, 0b110)


def test_dense_degree_examples():
    n = 3
    ones = s.DenseBooleanFunction(n, (1 << (1 << n)) - 1)
    assert s.dense_degree(ones) == 0
    assert s.dense_degree(s.DenseBooleanFunction(n, 0)) is None
    product = s.dense_mul(s.dense_from_sanfv(s.sigma(3, 1)), s.dense_from_sanfv(s.sigma(3, 2)))
    assert s.dense_degree(product) == 3


def test_dense_mul_idempotent(rng):
    f = s.DenseBooleanFunction(5, rng.getrandbits(32))
    assert s.dense_mul(f, f) == f
    with pytest.raises(ValueError):
        s.dense_mul(f, s.DenseBooleanFunction(4, 0))


def test_oracle_caches_hold_at_most_two_n():
    for n in (12, 13, 14):
        assert s.ai(s.dense_from_sanfv(s.threshold(n, (n + 1) // 2))) == (n + 1) // 2
    for cache in (dense._popcounts, dense._weight_class_tables, dense._rank_tables, dense._monomial_tables):
        assert cache.cache_info().currsize <= 2, cache


def _values_by_point(v):
    return sum(((v.bits >> x.bit_count()) & 1) << x for x in range(1 << v.n))


def test_dense_from_values_matches_pointwise_definition():
    for n in range(1, 9):
        for bits in range(1 << (n + 1)):
            v = s.WeightValueVector(n, bits)
            assert s.dense_from_values(v).bits == _values_by_point(v), (n, bits)
    gen = random.Random(20261019)
    for n in (12, 13, 14):
        for _ in range(3):
            v = s.WeightValueVector(n, gen.getrandbits(n + 1))
            assert s.dense_from_values(v).bits == _values_by_point(v), (n, v.bits)


def test_dense_n_limit():
    with pytest.raises(CapabilityError):
        s.DenseBooleanFunction(15, 0)


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def test_min_annihilator_coordinate():
    for n in (3, 5):
        d, witness = s.min_annihilator_degree(x_i(n, 0))
        assert d == 1
        assert witness.bits == 0b11  # 1 + x0


def test_min_annihilator_constants():
    zero = s.DenseBooleanFunction(4, 0)
    assert s.min_annihilator_degree(zero) == (0, s.DenseAnf(4, 1))
    ones = zero.complement()
    assert s.min_annihilator_degree(ones) == (None, None)


def test_min_annihilator_majority5():
    d, witness = s.min_annihilator_degree(s.dense_from_sanfv(s.majority(5)))
    assert d == 3
    assert witness.degree() == 3


def test_ai_examples():
    assert s.ai(s.dense_from_sanfv(s.sigma(8, 4))) == 4
    assert s.ai(x_i(6, 2)) == 1
    assert s.ai(s.dense_from_sanfv(s.majority(9))) == 5
    assert s.ai(s.DenseBooleanFunction(3, 0)) == 0


def test_ai_checks_its_witness(monkeypatch):
    def reject(f, g, d):
        raise InvariantViolation("rejected")

    monkeypatch.setattr(dense, "_check_annihilator", reject)
    with pytest.raises(InvariantViolation):
        s.ai(s.dense_from_sanfv(s.majority(5)))


def test_ai_is_least_annihilator_degree_of_either_side(rng):
    fs = [s.DenseBooleanFunction(n, bits) for n in (1, 2, 3) for bits in range(1 << (1 << n))]
    for _ in range(40):
        n = rng.randrange(1, 9)
        fs.append(s.DenseBooleanFunction(n, rng.getrandbits(1 << n)))
    zero = s.DenseBooleanFunction(5, 0)
    fs += [zero, zero.complement()]
    for f in fs:
        sides = (s.min_annihilator_degree(f)[0], s.min_annihilator_degree(f.complement())[0])
        assert s.ai(f) == min(d for d in sides if d is not None), f


def test_ai_complement_symmetry(rng):
    for _ in range(40):
        n = rng.randrange(2, 9)
        f = s.DenseBooleanFunction(n, rng.getrandbits(1 << n))
        assert s.ai(f) == s.ai(f.complement())


# ---------------------------------------------------------------------------
# low-degree multiples
# ---------------------------------------------------------------------------


def test_min_multiplier_high_cap_reaches_courtois_bound(rng):
    for _ in range(25):
        n = rng.randrange(3, 8)
        f = s.DenseBooleanFunction(n, rng.getrandbits(1 << n))
        if f.bits == 0:
            continue
        result = s.min_multiplier_degree(f, n - 1)
        assert result.combined_minimum <= 1


def test_min_multiplier_sigma4_n8():
    result = s.min_multiplier_degree(s.dense_from_sanfv(s.sigma(8, 4)), 1)
    assert result.d == 5
    assert result.annihilator is None
    assert result.g.degree() == 1
    assert result.h.degree() == 5
    # sigma_2 * majority(9) has degree 6
    assert s.min_multiplier_degree(s.dense_from_sanfv(s.majority(9)), 2).d <= 6


def test_min_multiplier_annihilator_case():
    # sigma_3 on n=4 has AI 1: sigma_1 + 1 annihilates it, yet the minimal
    # nonvanishing product must still be reported.
    f = s.dense_from_sanfv(s.sigma(4, 3))
    result = s.min_multiplier_degree(f, 1)
    assert result.annihilator is not None
    assert s.dense_mul(s.anf_to_table(result.annihilator), f).bits == 0
    assert result.d is not None
    product = s.dense_mul(s.anf_to_table(result.g), f)
    assert s.moebius(product) == result.h
    assert result.h.degree() == result.d


def test_min_multiplier_single_point_support():
    # support {1111}: every g with g(1111) = 0 annihilates, the rest give
    # back the point indicator of degree n
    f = s.dense_from_sanfv(s.to_sanfv(s.WeightValueVector(4, 0b10000)))
    result = s.min_multiplier_degree(f, 1)
    assert result.annihilator is not None
    assert result.d == 4
    assert result.combined_minimum == 0


def test_min_multiplier_monotone_in_e(rng):
    for _ in range(15):
        n = rng.randrange(4, 9)
        f = random_sanfv(rng, n)
        dense_f = s.dense_from_sanfv(f)
        a = s.ai(dense_f)
        if a < 3:
            continue
        values = [s.min_multiplier_degree(dense_f, e).d for e in range(1, a)]
        assert all(x >= y for x, y in zip(values, values[1:]))


def test_min_multiplier_witnesses_verify(rng):
    for _ in range(25):
        n = rng.randrange(3, 9)
        f = s.DenseBooleanFunction(n, rng.getrandbits(1 << n))
        if f.bits == 0:
            continue
        e = rng.randrange(1, n)
        result = s.min_multiplier_degree(f, e)
        g_deg = result.g.degree()
        assert g_deg is not None and 1 <= g_deg <= e
        if result.d is not None:
            h = s.moebius(s.dense_mul(s.anf_to_table(result.g), f))
            assert h == result.h
            assert h.degree() == result.d


def _naive_table(n, anf_bits):
    """Truth table of an ANF by its definition, and so (an involution) ANF of a truth table.

    Point x is 1 when an odd number of the ANF's monomials lie inside x.
    """
    return sum(
        1 << x for x in range(1 << n) if sum(x & c == c for c in iter_bits_reference(anf_bits)) & 1
    )


def test_min_multiplier_matches_brute_force():
    # Every g of degree <= e is enumerated in Gray-code order, so g and the
    # product h = g*f (ANF in graded coordinates) change by one monomial
    # column per step.
    rng = random.Random(14)
    for n in (2, 3, 4):
        graded = sorted(range(1 << n), key=lambda c: (c.bit_count(), c))
        position = {c: r for r, c in enumerate(graded)}
        for _ in range(12):
            f = s.DenseBooleanFunction(n, rng.getrandbits(1 << n))
            for e in range(1, n):
                monos = [c for c in graded if c.bit_count() <= e]
                cols = []  # ANF of m*f in graded coordinates, one per monomial m
                for m in monos:
                    product_anf = _naive_table(n, _naive_table(n, 1 << m) & f.bits)
                    cols.append(sum(1 << position[c] for c in iter_bits_reference(product_anf)))
                # lead: least bit length (leading graded rank + 1) of a nonzero h
                lead, annihilated = None, False
                g = h = 0
                for step in range(1, 1 << len(monos)):
                    i = (step & -step).bit_length() - 1
                    g ^= 1 << monos[i]
                    h ^= cols[i]
                    if g == 1:
                        continue
                    if h == 0:
                        annihilated = True
                    elif lead is None or h.bit_length() < lead:
                        lead = h.bit_length()
                result = s.min_multiplier_degree(f, e)
                assert (result.annihilator is not None) == annihilated, (n, f.bits, e)
                if annihilated:
                    k = result.annihilator
                    assert k.bits not in (0, 1) and k.degree() <= e
                    assert _naive_table(n, k.bits) & f.bits == 0
                if lead is None:
                    assert result.d is None
                    continue
                assert result.d == graded[lead - 1].bit_count(), (n, f.bits, e)
                assert result.g.bits not in (0, 1) and result.g.degree() <= e
                assert _naive_table(n, result.g.bits) & f.bits == _naive_table(n, result.h.bits)
                h_graded = sum(1 << position[c] for c in iter_bits_reference(result.h.bits))
                assert h_graded.bit_length() == lead, (n, f.bits, e)


def test_min_multiplier_zero_function():
    result = s.min_multiplier_degree(s.DenseBooleanFunction(4, 0), 2)
    assert result.d is None
    assert result.annihilator is not None


def test_min_multiplier_range_error():
    f = s.dense_from_sanfv(s.sigma(5, 2))
    with pytest.raises(ValueError):
        s.min_multiplier_degree(f, 0)
    with pytest.raises(ValueError):
        s.min_multiplier_degree(f, 5)
