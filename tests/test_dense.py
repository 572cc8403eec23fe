"""Dense oracle: ANF transform, annihilators, low-degree multiples."""

import hashlib
import inspect
import random
from pathlib import Path

import pytest

import symfai as s
from symfai import dense, immunity
from symfai.errors import CapabilityError, InvariantViolation

from conftest import iter_bits_reference, random_sanfv


def x_i(n, i):
    return s.DenseBooleanFunction(n, sum(1 << x for x in range(1 << n) if (x >> i) & 1))


def _code_names(code) -> set[str]:
    """Every name a code object and the code nested in it (functions, comprehensions) reads."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _code_names(const)
    return names


def test_oracle_shares_no_elimination_with_the_engine():
    # the oracle eliminates with gf2.BitBasis and the engine in its own loop
    # inside _multiplier_scan: the oracle reaches no engine code, and the
    # engine's solve path names no BitBasis
    module = compile(Path(dense.__file__).read_text(), dense.__file__, "exec")
    assert not {"immunity", "_multiplier_scan"} & _code_names(module)
    verifiers = [getattr(immunity, name) for name in dir(immunity) if name.startswith("_verify_")]
    assert len(verifiers) == 2
    solve_path = [immunity.profile, immunity._multiplier_scan, immunity._pair_scan, immunity.fai_given_ai, immunity._witness]
    for fn in solve_path + verifiers:
        assert "BitBasis" not in _code_names(inspect.unwrap(fn).__code__), fn.__name__


# sha256 of the oracle's answers and witnesses: ai, min_annihilator_degree
# and min_multiplier_degree at every e, over all of SB_1..SB_7 and 300
# seeded tables with n <= 6, pinned while the oracle had its own copy of
# the elimination
_ORACLE_SHA256 = "df983fee1fcd378b294fd1544d6e45666605492ba7e08f60d3b6bf0dbee3ac56"


def test_oracle_outputs_are_pinned():
    rng = random.Random(33)
    tables = [dense.dense_from_sanfv(s.Sanfv(n, lam)) for n in range(1, 8) for lam in range(1 << (n + 1))]
    for _ in range(300):
        n = rng.randrange(1, 7)
        tables.append(dense.DenseBooleanFunction(n, rng.getrandbits(1 << n)))
    digest = hashlib.sha256()
    for f in tables:
        d, g = dense.min_annihilator_degree(f)
        record = [f.n, f.bits, dense.ai(f), d, g and g.bits]
        for e in range(1, f.n):
            r = dense.min_multiplier_degree(f, e)
            record += [r.d, r.g.bits, r.h.bits, r.annihilator and r.annihilator.bits]
        digest.update(repr(record).encode())
    assert digest.hexdigest() == _ORACLE_SHA256


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
