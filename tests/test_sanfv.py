"""Core SANFV algebra: conversions, products, decomposition, splitting."""

import math
import random

import pytest

import symfai as s
from symfai.gf2 import parity_binomial
from symfai.sanfv import one, zero

from conftest import random_sanfv


# ---------------------------------------------------------------------------
# binomial parity
# ---------------------------------------------------------------------------


def test_binom_parity_examples():
    assert parity_binomial(5, 1) == 1
    assert parity_binomial(4, 2) == 0
    for k in range(20):
        assert parity_binomial(k, 0) == 1


def test_binom_parity_matches_factorials():
    for k in range(13):
        for i in range(13):
            assert parity_binomial(k, i) == math.comb(k, i) % 2


def test_binom_parity_rejects_negative():
    with pytest.raises(ValueError):
        parity_binomial(-1, 0)


# ---------------------------------------------------------------------------
# constructors and representations
# ---------------------------------------------------------------------------


def test_sigma_examples():
    assert s.sigma(4, 2).to_string() == "00100"
    assert s.to_values(s.sigma(3, 0)).to_string() == "v:1111"
    assert s.to_values(s.sigma(4, 2)).to_string() == "v:00110"


def test_sigma_range_error():
    with pytest.raises(ValueError):
        s.sigma(4, 5)
    with pytest.raises(ValueError):
        s.sigma(4, -1)


def test_string_round_trip():
    f = s.Sanfv.from_string(6, "0110001")
    assert f.to_string() == "0110001"
    assert s.Sanfv.from_string(6, f.to_string()) == f
    v = s.WeightValueVector.from_string(6, "v:1010101")
    assert v.to_string() == "v:1010101"
    with pytest.raises(ValueError):
        s.Sanfv.from_string(6, "011")
    with pytest.raises(ValueError):
        s.Sanfv.from_string(2, "01x")


def test_parse_function_forms():
    assert s.parse_function(8, "sigma:4") == s.sigma(8, 4)
    assert s.parse_function(5, "majority") == s.majority(5)
    assert s.parse_function(2, "101") == s.Sanfv.from_string(2, "101")
    assert s.parse_function(2, "v:110") == s.to_sanfv(s.WeightValueVector.from_string(2, "110"))


# ---------------------------------------------------------------------------
# value-vector conversion
# ---------------------------------------------------------------------------


def test_conversion_hand_example():
    f = s.Sanfv.from_string(2, "101")  # 1 + sigma_2
    assert s.to_values(f).to_string() == "v:110"


def test_conversion_zero():
    assert s.to_values(zero(9)).bits == 0


def test_conversion_involution_exhaustive_small():
    for n in range(1, 9):
        for bits in range(1 << (n + 1)):
            f = s.Sanfv(n, bits)
            assert s.to_sanfv(s.to_values(f)) == f


def test_conversion_matches_dense_oracle(rng):
    for n in (9, 10, 11, 12):
        for _ in range(150):
            f = random_sanfv(rng, n)
            v = s.to_values(f)
            assert s.to_sanfv(v) == f
            dense_f = s.dense_from_sanfv(f)
            for k in range(n + 1):
                point = (1 << k) - 1
                assert v.value_at(k) == dense_f.evaluate(point)


# ---------------------------------------------------------------------------
# addition and multiplication
# ---------------------------------------------------------------------------


def test_add_basics():
    f = s.Sanfv.from_indices(5, [1, 3])
    assert s.add(f, f).is_zero()
    assert s.add(s.sigma(5, 1), s.sigma(5, 2)) == s.Sanfv.from_indices(5, [1, 2])
    with pytest.raises(ValueError):
        s.add(s.sigma(5, 1), s.sigma(6, 1))


def test_add_matches_dense(rng):
    for _ in range(80):
        n = rng.randrange(2, 11)
        f, g = random_sanfv(rng, n), random_sanfv(rng, n)
        lhs = s.dense_from_sanfv(s.add(f, g)).bits
        assert lhs == s.dense_from_sanfv(f).bits ^ s.dense_from_sanfv(g).bits


def test_mul_or_rule_examples():
    assert s.mul(s.sigma(3, 1), s.sigma(3, 2)) == s.sigma(3, 3)
    for n in (4, 7):
        for j in range(n + 1):
            assert s.mul(s.sigma(n, j), s.sigma(n, j)) == s.sigma(n, j)
    assert s.mul(s.sigma(6, 4), s.sigma(6, 3)).is_zero()


def test_mul_truncation_hand_expansion():
    # (x1+x2)*x1x2 = x1x2 + x1x2 = 0, so sigma_1*sigma_2 vanishes on n=2
    assert s.mul(s.sigma(2, 1), s.sigma(2, 2)).is_zero()


def test_mul_idempotent_and_dense_agreement(rng):
    for _ in range(80):
        n = rng.randrange(2, 11)
        f, g = random_sanfv(rng, n), random_sanfv(rng, n)
        assert s.mul(f, f) == f
        assert s.dense_from_sanfv(s.mul(f, g)).bits == (
            s.dense_from_sanfv(f).bits & s.dense_from_sanfv(g).bits
        )


def test_mul_is_pointwise_and_on_value_vectors(rng):
    for _ in range(60):
        n = rng.randrange(2, 30)
        f, g = random_sanfv(rng, n), random_sanfv(rng, n)
        assert s.to_values(s.mul(f, g)).bits == s.to_values(f).bits & s.to_values(g).bits


@pytest.mark.parametrize("n", [4097, 65535])
def test_mul_at_large_n_idempotent_and_or_rule(n):
    rng = random.Random(n)
    for _ in range(3):
        f = s.Sanfv(n, rng.getrandbits(n + 1))
        assert s.mul(f, f) == f
    for _ in range(40):
        f_terms = rng.sample(range(n + 1), rng.randint(1, 8))
        g_terms = rng.sample(range(n + 1), rng.randint(1, 8))
        expected = 0
        for i in f_terms:
            for j in g_terms:
                if i | j <= n:
                    expected ^= 1 << (i | j)
        product = s.mul(s.Sanfv.from_indices(n, f_terms), s.Sanfv.from_indices(n, g_terms))
        assert product.bits == expected


def test_ring_laws(rng):
    for _ in range(60):
        n = rng.randrange(2, 17)
        f, g, h = (random_sanfv(rng, n) for _ in range(3))
        assert s.mul(f, g) == s.mul(g, f)
        assert s.mul(s.mul(f, g), h) == s.mul(f, s.mul(g, h))
        assert s.mul(f, s.add(g, h)) == s.add(s.mul(f, g), s.mul(f, h))


def test_degree_closure_under_products():
    # deg(g) <= 2^k - 1 and deg(f) <= t*2^k - 1 force deg(g*f) <= t*2^k - 1.
    # Products are bilinear, so checking all sigma pairs suffices.
    for n in range(2, 11):
        for k in range(1, n.bit_length() + 1):
            block = 1 << k
            for t in range(1, n // block + 2):
                cap = t * block - 1
                for i in range(min(block - 1, n) + 1):
                    for j in range(min(cap, n) + 1):
                        d = s.mul(s.sigma(n, i), s.sigma(n, j)).degree()
                        assert d is None or d <= cap


def test_degree_closure_random(rng):
    for _ in range(120):
        n = rng.randrange(4, 17)
        k = rng.randrange(1, 4)
        block = 1 << k
        t = rng.randrange(1, max(2, n // block + 1))
        cap = t * block - 1
        g = s.Sanfv(n, rng.getrandbits(min(block, n + 1)))
        f = s.Sanfv(n, rng.getrandbits(min(cap + 1, n + 1)))
        d = s.mul(g, f).degree()
        assert d is None or d <= cap


def test_power_of_two_null_products():
    for n in range(2, 21):
        m = n.bit_length() - 1
        top = 1 << m
        for j in range(max(0, n - top + 1), min(top, n + 1)):
            if n - top < j < top:
                assert s.mul(s.sigma(n, top), s.sigma(n, j)).is_zero()


# ---------------------------------------------------------------------------
# the binomial expansion route
# ---------------------------------------------------------------------------


def test_sigma_product_binomial_hand_case():
    assert s.sigma_product_binomial(3, 5, 8) == s.sigma(8, 7)


def test_sigma_product_binomial_square():
    for n in (5, 9):
        for j in range(n + 1):
            assert s.sigma_product_binomial(j, j, n) == s.sigma(n, j)


def test_sigma_product_binomial_matches_mul():
    for n in range(1, 8):
        for i in range(n + 1):
            for j in range(n + 1):
                assert s.sigma_product_binomial(i, j, n) == s.mul(s.sigma(n, i), s.sigma(n, j))


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------


def test_degree_examples():
    assert s.Sanfv.from_string(3, "0101").degree() == 3
    assert zero(4).degree() is None
    assert one(4).degree() == 0


def test_product_degree_matches_dense(rng):
    for _ in range(100):
        n = rng.randrange(2, 11)
        f, g = random_sanfv(rng, n), random_sanfv(rng, n)
        product = s.mul(f, g)
        assert product.degree() == s.dense_degree(s.dense_from_sanfv(product))


# ---------------------------------------------------------------------------
# decomposition and splitting
# ---------------------------------------------------------------------------


def test_decompose_examples():
    d = s.decompose(s.sigma(5, 5))
    assert d.m == 2
    assert d.bits == 1 << 5  # y1*y3, the monomial with index 101
    d = s.decompose(s.sigma(3, 3))
    assert d.m == 1 and d.bits == 1 << 3  # y1*y2


def test_decompose_compose_round_trip(rng):
    for n in range(1, 9):
        for bits in range(1 << (n + 1)):
            f = s.Sanfv(n, bits)
            assert s.compose(s.decompose(f), n) == f
    for _ in range(50):
        n = rng.randrange(9, 40)
        f = random_sanfv(rng, n)
        assert s.compose(s.decompose(f), n) == f


def test_compose_domain_error():
    # index 6 > n = 5 carries sigma_6, which does not exist
    with pytest.raises(ValueError):
        s.compose(s.DecomposedForm(2, 1 << 6), 5)
    with pytest.raises(ValueError):
        s.compose(s.DecomposedForm(3, 1), 5)  # wrong m


def test_composition_evaluates_through_power_sigmas(rng):
    # f(x) must equal F(sigma_1(x), sigma_2(x), sigma_4(x), ...) pointwise.
    for n in (5, 6, 7):
        m = n.bit_length() - 1
        powers = [s.dense_from_sanfv(s.sigma(n, 1 << k)).bits for k in range(m + 1)]
        for _ in range(25):
            f = random_sanfv(rng, n)
            form = s.decompose(f)
            dense_f = s.dense_from_sanfv(f)
            for x in range(1 << n):
                y = 0
                for k in range(m + 1):
                    y |= ((powers[k] >> x) & 1) << k
                value = form.coefficient(0)
                # evaluate F at y by summing coefficients over submasks
                value = 0
                j = form.bits
                while j:
                    low = j & -j
                    idx = low.bit_length() - 1
                    if idx & y == idx:
                        value ^= 1
                    j ^= low
                assert value == dense_f.evaluate(x)


def test_compose_is_ring_homomorphism_sampled(rng):
    # tau: B_k -> SB_n restricted to degree < 2^k respects + and *.
    for k, n in ((4, 15), (5, 31)):
        for _ in range(60):
            fa = rng.getrandbits(1 << k)
            fb = rng.getrandbits(1 << k)
            a = s.compose(s.DecomposedForm(n.bit_length() - 1, fa), n)
            b = s.compose(s.DecomposedForm(n.bit_length() - 1, fb), n)
            assert s.compose(s.DecomposedForm(n.bit_length() - 1, fa ^ fb), n) == s.add(a, b)
            prod = s.moebius(
                s.dense_mul(
                    s.anf_to_table(s.DenseAnf(k, fa)), s.anf_to_table(s.DenseAnf(k, fb))
                )
            ).bits
            assert s.compose(s.DecomposedForm(n.bit_length() - 1, prod), n) == s.mul(a, b)


def test_split_hand_example():
    f = s.Sanfv.from_indices(7, [4, 3, 1])
    parts = s.split(f, 2)
    assert parts.part(2) == one(7)
    assert parts.residue == s.Sanfv.from_indices(7, [3, 1])
    assert parts.recombine() == f


def test_split_low_degree_is_residue_only():
    f = s.Sanfv.from_indices(9, [3, 1])
    parts = s.split(f, 2)
    assert parts.residue == f
    assert all(p.is_zero() for _, p in parts.parts)


def test_split_recombination_and_caps(rng):
    for _ in range(120):
        n = rng.randrange(2, 17)
        f = random_sanfv(rng, n)
        m = n.bit_length() - 1
        for k in range(1, m + 1):
            parts = s.split(f, k)
            assert parts.recombine() == f
            rd = parts.residue.degree()
            assert rd is None or rd <= (1 << k) - 1
            for i, p in parts.parts:
                pd = p.degree()
                assert pd is None or pd <= (1 << i) - 1


def test_split_range_error():
    with pytest.raises(ValueError):
        s.split(s.sigma(7, 3), 0)
    with pytest.raises(ValueError):
        s.split(s.sigma(7, 3), 3)  # m = 2 for n = 7


# ---------------------------------------------------------------------------
# evaluation, majority, threshold
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    assert s.evaluate(s.majority(3), [1, 1, 0]) == 1
    assert s.evaluate(s.sigma(4, 2), [1, 1, 1, 0]) == 1  # C(3,2) = 3 is odd
    with pytest.raises(ValueError):
        s.evaluate(s.sigma(4, 2), [1, 0])


def test_evaluate_matches_dense(rng):
    for _ in range(20):
        n = rng.randrange(2, 11)
        f = random_sanfv(rng, n)
        dense_f = s.dense_from_sanfv(f)
        for x in range(1 << n):
            point = [(x >> i) & 1 for i in range(n)]
            assert s.evaluate(f, point) == dense_f.evaluate(x)


def test_majority_basics():
    assert s.to_values(s.majority(3)).to_string() == "v:0011"
    assert s.majority(9).degree() == 8
    with pytest.raises(ValueError):
        s.majority(4)


def test_threshold_constructor():
    t = s.threshold(6, 4)
    assert s.to_values(t).to_string() == "v:0000111"
    assert s.threshold(6, 0) == one(6)
    assert s.threshold(6, 7).is_zero()


def test_large_n_support():
    n = 1 << 16
    f = s.Sanfv.from_indices(n, [0, 5, 4096, n - 1, n])
    assert s.to_sanfv(s.to_values(f)) == f
    assert s.mul(s.sigma(n, 40000), s.sigma(n, 30000)) == s.sigma(n, 40000 | 30000)
    assert s.mul(s.sigma(n, n), s.sigma(n, 1)).is_zero()  # index n|1 exceeds n
    with pytest.raises(ValueError):
        s.Sanfv(n + 1, 0)
