"""Attack certificates, the bound suite, and the degree-gap statistic."""

import random

import pytest

import symfai as s
from symfai.errors import InvariantViolation
from symfai.search import profile_all


# ---------------------------------------------------------------------------
# affine multiplier (odd degree)
# ---------------------------------------------------------------------------


def test_affine_multiplier_hand_case():
    f = s.Sanfv.from_indices(6, [5, 2])
    cert = s.affine_multiplier(f)
    assert cert.g == s.Sanfv.from_indices(6, [1, 0])  # sigma_1 + 1
    assert cert.h == s.Sanfv.from_indices(6, [3, 2])
    assert cert.deg_h == 3 and cert.params["t"] == 2
    assert not cert.vanishing


def test_affine_multiplier_vanishing_remark():
    cert = s.affine_multiplier(s.sigma(5, 5))
    assert cert.vanishing
    assert cert.g == s.Sanfv.from_indices(5, [1, 0])
    assert cert.to_json_dict()["deg_h"] is None


def test_affine_multiplier_even_degree_rejected():
    with pytest.raises(ValueError):
        s.affine_multiplier(s.sigma(6, 4))
    with pytest.raises(ValueError):
        s.affine_multiplier(s.Sanfv(6, 0))


def test_affine_multiplier_exhaustive_small():
    # bound, exact degree law, and vanishing detection against the oracle
    for n in range(1, 9):
        for bits in range(1, 1 << (n + 1)):
            f = s.Sanfv(n, bits)
            d = f.degree()
            if d % 2 == 0:
                continue
            cert = s.affine_multiplier(f)
            product = s.dense_mul(s.dense_from_sanfv(cert.g), s.dense_from_sanfv(f))
            assert s.dense_degree(product) == cert.deg_h
            if not cert.vanishing:
                assert cert.deg_h <= d - 2


def _affine_degree_law(f):
    """The degree of the affine multiplier's product, read coefficient by coefficient (None: it vanishes)."""
    t = (f.degree() - 1) // 2
    top_even = f.coefficient(2 * t)
    for i in range(t - 1, -1, -1):
        if top_even == 0:
            hit = f.coefficient(2 * i) == 1
        else:
            hit = f.coefficient(2 * i) != f.coefficient(2 * i + 1)
        if hit:
            return 2 * i + 1
    return None


def _odd_degree_samples(n, rng):
    # a dense f, whose law hits near its top, and sparse ones, whose law
    # hits far below it or vanishes
    for ones in (None, 0, 1, 2, 3):
        d = rng.randrange(1, n + 1, 2)
        low = rng.getrandbits(d) if ones is None else sum({1 << rng.randrange(d) for _ in range(ones)})
        yield s.Sanfv(n, low | 1 << d)
        yield s.Sanfv(n, low | 1 << d | 1 << d - 1)


def test_affine_multiplier_degree_law_matches_the_coefficient_reading():
    # affine_multiplier raises unless its product's degree is its own law's,
    # so equal degrees here mean equal laws
    rng = random.Random(32)
    cases = [f for n in range(1, 13) for f in (s.Sanfv(n, bits) for bits in range(1 << (n + 1))) if (f.degree() or 0) % 2]
    cases += [f for n in (4097, 8193, 65535) for _ in range(4) for f in _odd_degree_samples(n, rng)]
    for f in cases:
        assert s.affine_multiplier(f).deg_h == _affine_degree_law(f), f.n


# ---------------------------------------------------------------------------
# residue multipliers (degree not a power of two)
# ---------------------------------------------------------------------------


def test_residue_multiplier_hand_case():
    f = s.Sanfv.from_indices(6, [6, 1])
    certs = s.residue_multipliers(f)
    assert len(certs) == 1  # wt(6) - 1
    cert = certs[0]
    assert cert.params == {"e": 2, "t": 1, "k": 2}
    assert cert.g == s.Sanfv.from_indices(6, [2, 0])  # sigma_2 + 1
    assert cert.h == s.Sanfv.from_indices(6, [3, 1])
    assert cert.deg_h == 3 == f.degree() - cert.params["e"] - 1


def test_residue_multiplier_empty_cases():
    assert s.residue_multipliers(s.sigma(8, 8)) == []
    assert s.residue_multipliers(s.sigma(8, 1)) == []
    assert s.residue_multipliers(s.Sanfv(8, 0)) == []


def test_residue_multiplier_counts_and_bounds():
    for n in range(2, 10):
        for bits in range(1 << (n + 1)):
            f = s.Sanfv(n, bits)
            d = f.degree()
            certs = s.residue_multipliers(f)
            if d is None or d < 2 or d & (d - 1) == 0:
                assert certs == []
                continue
            assert len(certs) == d.bit_count() - 1
            es = [c.params["e"] for c in certs]
            assert es == sorted(set(es))
            for cert in certs:
                hd = s.dense_degree(
                    s.dense_mul(s.dense_from_sanfv(cert.g), s.dense_from_sanfv(f))
                )
                assert hd == cert.deg_h
                assert hd is None or hd <= d - cert.params["e"] - 1


# ---------------------------------------------------------------------------
# near-power-of-two window
# ---------------------------------------------------------------------------


def test_window_multiplier_case_sigma4_n8():
    cert = s.near_power_certificate(s.sigma(8, 4))
    assert cert.source == "thm5-multiplier"
    assert cert.g == s.sigma(8, 1)
    assert cert.h == s.sigma(8, 5)
    assert cert.params == {"e": 1, "m": 3}


def test_window_annihilator_case_sigma8_n10():
    cert = s.near_power_certificate(s.sigma(10, 8))
    assert cert.source == "thm5-annihilator"
    assert cert.g == s.sigma(10, 3)
    assert cert.vanishing  # sigma_3 * sigma_8 = sigma_11 = 0 on ten variables
    assert s.ai_symmetric(s.sigma(10, 8))[0] <= 3


def test_window_majority9():
    cert = s.near_power_certificate(s.majority(9))
    assert cert.source == "thm5-multiplier"
    assert cert.g == s.sigma(9, 2)
    assert cert.deg_h == 6


def test_window_override_e():
    cert = s.near_power_certificate(s.majority(9), e=3)
    assert cert.params["e"] == 3
    with pytest.raises(ValueError):
        s.near_power_certificate(s.majority(9), e=1)  # needs e > n - 2^m = 1
    with pytest.raises(ValueError):
        s.near_power_certificate(s.majority(9), e=4)  # needs e < 2^(m-1) = 4


def test_window_rejects_out_of_range_n():
    for n in (5, 6, 7, 11):
        with pytest.raises(ValueError):
            s.near_power_certificate(s.sigma(n, 1))


def test_window_dichotomy_n8():
    half = 4
    for bits in range(1 << 9):
        f = s.Sanfv(8, bits)
        cert = s.near_power_certificate(f)
        if cert.source == "thm5-annihilator":
            assert s.ai_symmetric(f)[0] <= half - 1
        else:
            assert cert.deg_h == half + cert.params["e"]


def test_window_dichotomy_holds_for_overridden_e():
    # the construction works for every admissible e, not only the least one
    for bits in range(1 << 10):
        f = s.Sanfv(9, bits)
        cert = s.near_power_certificate(f, e=3)
        if cert.source == "thm5-annihilator":
            assert s.ai_symmetric(f)[0] <= 3
        else:
            assert cert.deg_h == 4 + 3


def test_all_certificates_aggregator():
    f = s.Sanfv.from_indices(9, [5, 2])
    sources = [c.source for c in s.all_certificates(f)]
    assert sources[0] == "thm3"
    assert "thm4" in sources
    assert sources[-1].startswith("thm5")


def test_all_certificates_propagates_window_errors(monkeypatch):
    # n = 9 is in the window, so a ValueError inside the window construction
    # is a fault and must not be dropped along with its certificate
    def broken_split(f, k):
        raise ValueError("split failed")

    monkeypatch.setattr(s.attacks, "split", broken_split)
    with pytest.raises(ValueError, match="split failed"):
        s.all_certificates(s.majority(9))


# ---------------------------------------------------------------------------
# bound suite
# ---------------------------------------------------------------------------


def test_bound_suite_majority9_tight():
    report = s.bound_suite(s.profile(s.majority(9)))
    assert report.all_ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["mai_degree_lower_bound"].applicable
    # deg 8 meets the lower bound 2^floor(log2 8) = 8 exactly
    assert "deg=8 vs 8" in by_name["mai_degree_lower_bound"].detail


def test_bound_suite_strict_power_form():
    p = s.profile(s.Sanfv.from_indices(10, [6]))
    assert p.ai <= 3  # degree 6 is no power of two, so AI < 4 strictly
    report = s.bound_suite(p)
    assert report.all_ok


def test_bound_suite_reports_the_n6_exception_honestly():
    # threshold 4 on six variables has FAI = 6 = n (verified exhaustively),
    # so the strict below-n check fails for it and must be reported, not
    # silenced
    report = s.bound_suite(s.profile(s.sigma(6, 4)))
    failing = [c.name for c in report.failures()]
    assert failing == ["fai_below_n"]


def test_bound_suite_exhaustive_n5_n7():
    for n in (5, 7):
        for bits in range(1 << (n + 1)):
            report = s.bound_suite(s.profile(s.Sanfv(n, bits)))
            assert report.all_ok, report.to_json_dict()


def test_bound_suite_reports_carry_their_own_f():
    # the checks are shared by profiles with equal (deg, ai, fai); the
    # report's f is each profile's own
    for n in range(1, 9):
        first = {}
        for p in profile_all(n).profiles:
            report = s.bound_suite(p)
            assert report.f is p.f
            assert report.to_json_dict()["f"] == p.f.to_string()
            other = first.setdefault((p.deg, p.ai, p.fai), report)
            if other is not report:
                assert report.checks == other.checks
                assert report.f != other.f


# ---------------------------------------------------------------------------
# degree-gap statistic
# ---------------------------------------------------------------------------


def test_gap_statistic_deterministic():
    a = s.product_degree_gap_statistic(21, 200, seed=11)
    b = s.product_degree_gap_statistic(21, 200, seed=11)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_gap_statistic_known_gap_example():
    cert = s.affine_multiplier(s.Sanfv.from_indices(6, [5, 2]))
    assert 5 - cert.deg_h == 2


def test_gap_statistic_mean_near_four():
    stat = s.product_degree_gap_statistic(41, 2000, seed=0)
    assert 3.7 <= float(stat.mean_gap) <= 4.3


def test_gap_statistic_rejects_even_n():
    with pytest.raises(ValueError):
        s.product_degree_gap_statistic(10, 100)
    with pytest.raises(ValueError):
        s.product_degree_gap_statistic(11, 0)


def test_gap_statistic_rejects_out_of_range_n():
    # an odd n past the SANFV limit is a bad request, not an overflow in the sampler
    for n in (-1, (1 << 16) + 1, 10**20 + 1):
        with pytest.raises(ValueError, match="variable count"):
            s.product_degree_gap_statistic(n, 1)


# ---------------------------------------------------------------------------
# certificate integrity
# ---------------------------------------------------------------------------


def test_certificate_json_contract():
    payload = s.near_power_certificate(s.sigma(8, 4)).to_json_dict()
    assert set(payload) == {"source", "n", "g", "h", "deg_g", "deg_h", "params", "vanishing"}
    assert payload["n"] == 8 and payload["vanishing"] is False


def test_certificate_rejects_wrong_product():
    from types import MappingProxyType

    from symfai.attacks import AttackCertificate

    f = s.sigma(6, 3)
    with pytest.raises(InvariantViolation):
        AttackCertificate("thm3", f, s.sigma(6, 1), s.sigma(6, 5), MappingProxyType({}), 6)
