"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Derived regression constants pinned from the first verified run (every value
cross-checked between the symmetric pipeline and the dense brute-force
pipeline before pinning):

* max FAI over SB_5  = 4
* max FAI over SB_6  = 6   (attained by sigma_4 + a*sigma_3 + b*sigma_1 + c)
* max FAI over SB_10 = 8
* FAI(sigma_4 on n=8) = 6, with min deg(g*f) over affine g equal to 5

Criterion 8 asserts the strict below-n claim where it holds, n = 5 and
n = 10.  At n = 6 the maximum equals n, and no correct program can report
otherwise: those eight functions have AI 3, so FAI <= 2*AI = 6, and a
multiplier g of degree 3 with 0 < deg(g*f) <= 2 would make g*f an
annihilator of f+1 of degree below AI.  So at n = 6 the criterion asserts
the exact family, built from its formula, and re-derives both the maximum
and the set of maximisers with `conftest.fai_brute`, the dense oracle that
shares no elimination code with `immunity`.
"""

import random
import time

import symfai as s
from conftest import fai_brute
from symfai.attacks import lower_degree_table, upper_ai_table
from symfai.search import profile_all

MAX_FAI = {5: 4, 6: 6, 10: 8}
FAI_SIGMA4_N8 = 6
MIN_AFFINE_PRODUCT_DEGREE_SIGMA4_N8 = 5
# sigma_4 + a*sigma_3 + b*sigma_1 + c: the functions of SB_6 with FAI = n
FAI_EQUALS_N_FAMILY_N6 = sorted(
    s.Sanfv(6, (1 << 4) | (a << 3) | (b << 1) | c).to_string()
    for a in (0, 1)
    for b in (0, 1)
    for c in (0, 1)
)


def report(number, name, status, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"\nACCEPT-{number:02d} {name}: {status}{tail}")


# ---------------------------------------------------------------------------


def test_criterion_01_product_oracle_equivalence():
    start = time.monotonic()
    for n in range(1, 11):
        for i in range(n + 1):
            dense_i = s.dense_from_sanfv(s.sigma(n, i)).bits
            for j in range(n + 1):
                product = s.mul(s.sigma(n, i), s.sigma(n, j))
                assert product == s.sigma_product_binomial(i, j, n)
                dense_product = dense_i & s.dense_from_sanfv(s.sigma(n, j)).bits
                assert s.dense_from_sanfv(product).bits == dense_product
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, "product oracle equivalence", "PASS", f"{elapsed:.2f}s")


def _sigma_basis_tables(n):
    """Truth tables of every sigma_i built monomial by monomial.

    Independent of the subset-sum transform: sigma_i is literally XORed
    together from its C(n, i) degree-i monomial indicators.
    """
    tables = [0] * (n + 1)
    for mask in range(1 << n):
        weight = mask.bit_count()
        tt = 0
        for x in range(1 << n):
            if x & mask == mask:
                tt |= 1 << x
        tables[weight] ^= tt
    return tables


def test_criterion_02_conversion_involution_and_pointwise():
    for n in range(1, 9):
        basis = _sigma_basis_tables(n)
        for bits in range(1 << (n + 1)):
            f = s.Sanfv(n, bits)
            assert s.to_sanfv(s.to_values(f)) == f
            direct_tt = 0
            for i in f.indices():
                direct_tt ^= basis[i]
            assert s.dense_from_sanfv(f).bits == direct_tt
    rng = random.Random(2024)
    cases = 0
    for n in (9, 10, 11, 12):
        basis = _sigma_basis_tables(n)
        for _ in range(256):
            f = s.Sanfv(n, rng.getrandbits(n + 1))
            assert s.to_sanfv(s.to_values(f)) == f
            direct_tt = 0
            for i in f.indices():
                direct_tt ^= basis[i]
            assert s.dense_from_sanfv(f).bits == direct_tt
            cases += 1
    assert cases >= 1000
    report(2, "conversion involution + dense pointwise agreement", "PASS", f"{cases} random cases")


def test_criterion_03_ring_isomorphism_n7():
    n = 7
    # dense product table for the 256 three-variable functions
    anf_of_tt = [s.moebius(s.DenseBooleanFunction(3, tt)).bits for tt in range(256)]
    tt_of_anf = [s.anf_to_table(s.DenseAnf(3, a)).bits for a in range(256)]
    images = {s.compose(s.DecomposedForm(2, a), n) for a in range(256)}
    assert len(images) == 256  # bijective onto SB_7
    for fa in range(256):
        composed_a = s.compose(s.DecomposedForm(2, fa), n)
        for fb in range(256):
            composed_b = s.compose(s.DecomposedForm(2, fb), n)
            product_anf = anf_of_tt[tt_of_anf[fa] & tt_of_anf[fb]]
            assert s.compose(s.DecomposedForm(2, product_anf), n) == s.mul(composed_a, composed_b)
            assert s.compose(s.DecomposedForm(2, fa ^ fb), n) == s.add(composed_a, composed_b)
    report(3, "ring isomorphism at n=7 (65536 products)", "PASS")


def test_criterion_04_ai_fixtures():
    start = time.monotonic()
    for n in (3, 5, 7, 9, 11):
        assert s.ai_symmetric(s.majority(n))[0] == (n + 1) // 2
    assert s.ai_symmetric(s.sigma(8, 4))[0] == 4
    assert s.ai(s.dense_from_sanfv(s.sigma(8, 4))) == 4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, "AI fixtures (majority, sigma_4)", "PASS", f"{elapsed:.2f}s")


def test_criterion_05_affine_multiplier_exhaustive():
    for n in range(1, 11):
        for bits in range(1, 1 << (n + 1)):
            f = s.Sanfv(n, bits)
            d = f.degree()
            if d % 2 == 0:
                continue
            t = (d - 1) // 2
            cert = s.affine_multiplier(f)
            dense_deg = s.dense_degree(
                s.dense_mul(s.dense_from_sanfv(cert.g), s.dense_from_sanfv(f))
            )
            assert dense_deg == cert.deg_h
            if f.coefficient(2 * t) == 0:
                should_vanish = all(f.coefficient(2 * i) == 0 for i in range(t + 1))
            else:
                should_vanish = all(
                    f.coefficient(2 * i) == f.coefficient(2 * i + 1) for i in range(t + 1)
                )
            assert cert.vanishing == should_vanish
            if not cert.vanishing:
                assert cert.deg_h <= d - 2
    report(5, "odd-degree affine multipliers exhaustive n<=10", "PASS")


def test_criterion_06_residue_multipliers_exhaustive():
    for n in range(2, 11):
        profiles = {p.f.bits: p for p in profile_all(n).profiles}
        for bits in range(1 << (n + 1)):
            f = s.Sanfv(n, bits)
            d = f.degree()
            if d is None or d < 2 or d & (d - 1) == 0:
                assert s.residue_multipliers(f) == []
                continue
            certs = s.residue_multipliers(f)
            assert len(certs) == d.bit_count() - 1
            dense_f = s.dense_from_sanfv(f)
            for cert in certs:
                e = cert.params["e"]
                hd = s.dense_degree(s.dense_mul(s.dense_from_sanfv(cert.g), dense_f))
                assert hd == cert.deg_h
                assert hd is None or hd <= d - e - 1
            assert profiles[bits].fai <= d - 1
    report(6, "residue multipliers + FAI <= deg-1 exhaustive n<=10", "PASS")


def test_criterion_07_window_dichotomy_exhaustive():
    for n in (8, 9, 10):
        m = n.bit_length() - 1
        half = 1 << (m - 1)
        profiles = {p.f.bits: p for p in profile_all(n).profiles}
        for bits in range(1 << (n + 1)):
            f = s.Sanfv(n, bits)
            cert = s.near_power_certificate(f)
            if cert.source == "thm5-annihilator":
                assert profiles[bits].ai <= half - 1
            else:
                assert cert.deg_h == half + cert.params["e"]
        if n == 9:
            for bits in range(1 << 10):
                p = profiles[bits]
                if p.ai >= 4:
                    cert = s.near_power_certificate(p.f)
                    assert cert.source == "thm5-multiplier"
                    assert s.mul(s.sigma(9, 2), p.f).degree() == 6
    report(7, "near-power window dichotomy exhaustive n in {8,9,10}", "PASS")


def test_criterion_08_extremal_fai_reproduction():
    lines = []
    for n in (5, 6, 10):
        rep = profile_all(n)
        assert rep.count == 1 << (n + 1)
        assert rep.max_fai == MAX_FAI[n], "pinned maximum drifted"
        if n == 10:
            assert rep.wall_time_s < 600.0
        if n != 6:
            assert rep.max_fai < n
            lines.append(f"n={n}: max FAI {rep.max_fai} < {n}")
            continue
        assert rep.max_fai == n
        assert sorted(rep.max_fai_witnesses) == FAI_EQUALS_N_FAMILY_N6
        dense_fai = {bits: fai_brute(s.Sanfv(n, bits))[1] for bits in range(1 << (n + 1))}
        dense_max = max(dense_fai.values())
        assert dense_max == n
        dense_witnesses = sorted(
            s.Sanfv(n, bits).to_string() for bits, v in dense_fai.items() if v == dense_max
        )
        assert dense_witnesses == FAI_EQUALS_N_FAMILY_N6
        lines.append(
            f"n=6: max FAI 6 = n exactly on the {len(dense_witnesses)} functions "
            "sigma_4 + a*sigma_3 + b*sigma_1 + c, confirmed by the dense oracle"
        )
    report(
        8,
        "extremal FAI: below n for n in {5,10}, exact FAI = n family at n=6",
        "PASS",
        "; ".join(lines),
    )


def test_criterion_09_bound_suite_exhaustive():
    tracked = {
        "ai_upper_power_of_two",
        "degree_lower_bound",
        "fai_window_upper_bound",
        "fai_sandwich",
    }
    checked = 0
    for n in range(1, 11):
        for p in profile_all(n).profiles:
            rep = s.bound_suite(p)
            for c in rep.checks:
                if c.name in tracked:
                    assert c.ok, (p.f.to_string(), c.name, c.detail)
                    checked += 1
    report(9, "degree/AI/FAI inequality suite exhaustive n<=10", "PASS", f"{checked} checks")


def test_criterion_10_mai_structure():
    maj = s.majority(9)
    assert s.find_symmetric_mai(9) == [maj, s.add(maj, s.Sanfv(9, 1))]
    eight = s.find_symmetric_mai(8)
    assert eight and {f.degree() for f in eight} <= {4, 8}
    assert all(s.mul(s.sigma(8, 1), f).degree() == 5 for f in eight)
    report(10, "MAI census structure at n in {8,9}", "PASS", f"{len(eight)} functions at n=8")


def test_criterion_11_gap_statistic():
    start = time.monotonic()
    stat = s.product_degree_gap_statistic(41, 2000, seed=0)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    mean = float(stat.mean_gap)
    assert 3.7 <= mean <= 4.3
    report(11, "mean affine-multiplier degree gap at n=41", "PASS", f"mean={mean:.3f}, {elapsed:.2f}s")


def test_criterion_12_tables():
    upper, lower = upper_ai_table(), lower_degree_table()
    assert upper == [
        ("1", 1), ("2-3", 2), ("4-7", 4), ("8-15", 8),
        ("16-31", 16), ("32-63", 32), ("64-127", 64), ("128-255", 128),
    ]
    assert lower == [
        ("1", 1), ("2", 2), ("3-4", 4), ("5-8", 8),
        ("9-16", 16), ("17-32", 32), ("33-64", 64), ("65-128", 128),
    ]
    report(12, "bound tables cell-exact", "PASS", "16 cells each")
