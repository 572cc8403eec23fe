"""Exact AI/FAI of symmetric functions, cross-checked against the dense oracle."""

import bisect
import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import symfai as s
from symfai import bounds, dense, gf2, immunity
from symfai.errors import CapabilityError, InvariantViolation
from symfai.immunity import (
    _block_parities,
    _class_product_pieces,
    _class_truth_table,
    _level_masks,
    _mask_interns,
    _orbits,
    _product_columns,
    _zero_span_min_degree,
    all_zero_set_degrees,
)
from symfai.search import profile_all

from conftest import (
    _block_canon,
    fai_brute,
    graded_reference,
    json_reference,
    multiplier_scan_reference,
    orbit_rank_reference,
    orbit_rows_reference,
    random_sanfv,
)


def test_ai_symmetric_examples():
    assert s.ai_symmetric(s.sigma(8, 4))[0] == 4
    assert s.ai_symmetric(s.Sanfv(5, 0))[0] == 0
    assert s.ai_symmetric(s.majority(11))[0] == 6


def test_ai_witness_annihilates_a_side():
    for f in (s.sigma(8, 4), s.majority(7), s.Sanfv.from_indices(6, [4, 2, 1])):
        value, witness = s.ai_symmetric(f)
        g_bits = 0
        for mask in witness:
            g_bits ^= 1 << mask
        g = s.anf_to_table(s.DenseAnf(f.n, g_bits))
        dense_f = s.dense_from_sanfv(f)
        assert g.bits != 0
        assert g.bits & dense_f.bits == 0 or g.bits & dense_f.complement().bits == 0
        assert max(m.bit_count() for m in witness) == value


def test_ai_agreement_exhaustive_small():
    # the witness annihilates f whenever f has an annihilator of degree AI
    for n in range(1, 9):
        for bits in range(1 << (n + 1)):
            f = s.Sanfv(n, bits)
            dense_f = s.dense_from_sanfv(f)
            value, witness = s.ai_symmetric(f)
            assert value == s.ai(dense_f)
            g = s.anf_to_table(s.DenseAnf(n, sum(1 << m for m in witness)))
            kills_f = g.bits & dense_f.bits == 0
            assert kills_f == (dense.min_annihilator_degree(dense_f)[0] == value), f.to_string()


def test_bulk_degree_map_matches_single_route():
    # the one-sided scan against the dense oracle's annihilator search: the
    # functions supported on the classes of mask annihilate the symmetric
    # function whose values are the complement of mask
    for n in range(1, 8):
        full = (1 << (n + 1)) - 1
        bulk = all_zero_set_degrees(n)
        for mask in range(1 << (n + 1)):
            f = s.dense_from_values(s.WeightValueVector(n, full ^ mask))
            expected = dense.min_annihilator_degree(f)[0]
            assert _zero_span_min_degree(n, mask)[0] == expected, (n, mask)
            assert bulk[mask] == _zero_span_min_degree(n, mask), (n, mask)


def _record(n, anf_bits):
    """The witness record that immunity._witness holds: (truth table, graded monomial masks)."""
    return s.anf_to_table(s.DenseAnf(n, anf_bits)).bits, graded_reference(anf_bits)


def test_ai_verifier_checks_the_reported_degree():
    f = s.majority(7)
    f_tt = s.dense_from_sanfv(f).bits
    value, witness = s.ai_symmetric(f)
    record = _record(f.n, sum(1 << m for m in witness))
    immunity._verify_annihilator(f_tt, record, value)
    for wrong in (value - 1, value + 1):
        with pytest.raises(InvariantViolation):
            immunity._verify_annihilator(f_tt, record, wrong)
    with pytest.raises(InvariantViolation):
        immunity._verify_annihilator(f_tt, _record(f.n, 0), value)


def test_pair_verifier_checks_the_reported_value():
    f = s.majority(9)
    f_tt = s.dense_from_sanfv(f).bits
    p = s.profile(f)
    g, h = (_record(f.n, sum(1 << m for m in masks)) for masks in p.fai_witness)
    immunity._verify_pair(f_tt, g, h, p.fai)
    for wrong in (p.fai - 1, p.fai + 1):
        with pytest.raises(InvariantViolation):
            immunity._verify_pair(f_tt, g, h, wrong)
    # g = f has the zero product with f+1: the pair (f, 0) must be refused
    dense_f = s.dense_from_sanfv(f)
    f_as_g = _record(f.n, s.moebius(dense_f).bits)
    with pytest.raises(InvariantViolation):
        immunity._verify_pair(dense_f.complement().bits, f_as_g, _record(f.n, 0), p.fai)
    with pytest.raises(InvariantViolation):
        immunity._verify_pair(f_tt, _record(f.n, 1), h, p.fai)


def test_weight_class_tables_match_the_oracle():
    # the engine builds f's truth table without the dense oracle; this ties
    # the two, and every n the engine answers is one the oracle can check
    assert immunity.MAX_EXACT_N <= dense.MAX_DENSE_N
    for n in range(1, immunity.MAX_EXACT_N + 1):
        assert immunity._weight_class_tables(n) == dense._weight_class_tables(n), n


def test_profile_checks_both_witnesses_against_fs_truth_table(monkeypatch):
    f = s.majority(9)  # values 1 on weights 5..9
    real = immunity._weight_class_tables(f.n)
    # weight 5 read as weight 4: the AI witness annihilates neither side
    moved = real[:5] + real[4:5] + real[6:]
    monkeypatch.setattr(immunity, "_weight_class_tables", lambda n: moved)
    with pytest.raises(InvariantViolation, match="annihilates neither side"):
        s.profile(f)
    # the zero table: every g annihilates it, and no nonzero h is g*f
    monkeypatch.setattr(immunity, "_weight_class_tables", lambda n: (0,) * (n + 1))
    with pytest.raises(InvariantViolation, match="fails h = g"):
        s.profile(f)


# ---------------------------------------------------------------------------
# FAI
# ---------------------------------------------------------------------------


def test_fai_cap_for_low_ai():
    p = s.profile(s.sigma(4, 1))
    assert p.fai == 2 and p.fai_witness is None
    assert s.profile(s.Sanfv(4, 0)).fai == 0
    assert s.profile(s.Sanfv(4, 1)).fai == 0


def test_fai_sigma4_n8_pinned():
    # within the provable window [5, 6]; the exact value is a regression
    # constant fixed by the dense oracle
    p = s.profile(s.sigma(8, 4))
    assert p.fai == 6
    assert p.fai_witness is not None
    g_masks, h_masks = p.fai_witness
    assert max(m.bit_count() for m in g_masks) + max(m.bit_count() for m in h_masks) == 6


def test_fai_agreement_exhaustive():
    for n in range(1, 9):
        for bits in range(1 << (n + 1)):
            f = s.Sanfv(n, bits)
            assert s.profile(f).fai == fai_brute(f)[1], f.to_string()


def test_fai_agreement_exhaustive_9_10():
    for n in (9, 10):
        for p in profile_all(n).profiles:
            assert (p.ai, p.fai) == fai_brute(p.f), p.f.to_string()


def _orbit_members(n, r):
    return np.flatnonzero(orbit_rank_reference(n)[1] == r).tolist()


def test_product_columns_match_truth_table_route(rng):
    # the Lucas closed form against the dense oracle's transformed truth
    # tables: an orbit sum's column is the XOR of its members' columns
    cases = [(n, v) for n in range(1, 9) for v in range(1 << (n + 1))]
    cases += [(n, rng.getrandbits(n + 1)) for n in range(9, 13) for _ in range(3)]
    for n, v in cases:
        level = (n + 1) // 2 - 1
        orbits = _orbits(n)
        graded_rank = {m: r for r, m in enumerate(dense.monomials_graded(n))}
        dense_columns = dense._ranked_product_columns(s.dense_from_values(s.WeightValueVector(n, v)), level)
        pieces, classes = _class_product_pieces(n), tuple(gf2.iter_bits(v))
        columns = [
            column
            for j in range(level + 1)
            for column in _product_columns(_class_truth_table(n, j), pieces[j], classes)
        ]
        assert len(columns) == orbits.start[level + 1], (n, v)
        for r, column in enumerate(columns):
            expected = 0
            for m in _orbit_members(n, r):
                expected ^= dense_columns[graded_rank[m]]
            assert orbits.expand(column) == dense.permuted_rank_to_anf_bits(n, expected), (n, v, r)


def _pair_sides(n: int, values: int) -> tuple[int, int]:
    return values, values ^ ((1 << (n + 1)) - 1)


def test_pair_scan_matches_the_bitbasis_reference():
    # every pair {f, f+1} of SB_n up to n = 10, keyed as _pair_scan keys it
    # (f's value at weight 0 is 0), then seeded pairs up to the cap
    scan = immunity._multiplier_scan.__wrapped__
    for n in range(1, 11):
        for values in range(0, 1 << (n + 1), 2):
            sides = _pair_sides(n, values)
            assert scan(n, sides) == multiplier_scan_reference(n, sides), (n, values)
    rng = random.Random(27)
    for n in range(11, 15):
        for _ in range(50):
            sides = _pair_sides(n, rng.getrandbits(n + 1) & ~1)
            assert scan(n, sides) == multiplier_scan_reference(n, sides), (n, sides)


def test_one_sided_scans_match_the_bitbasis_reference():
    # the scans behind all_zero_set_degrees, one per class mask
    scan = immunity._multiplier_scan.__wrapped__
    for n in range(1, 9):
        full = (1 << (n + 1)) - 1
        for mask in range(1 << (n + 1)):
            assert scan(n, (full ^ mask,)) == multiplier_scan_reference(n, (full ^ mask,)), (n, mask)


def test_product_pieces_sum_to_their_own_layer():
    # the XOR over all classes k of the level-j pieces is layer j alone, so
    # the scan takes f+1's mask as f's XOR that layer
    for n in range(1, 15):
        start, pieces = _orbits(n).start, _class_product_pieces(n)
        for j in range(n + 1):
            total = 0
            for piece in pieces[j]:
                total ^= piece
            assert total == (1 << start[j + 1]) - (1 << start[j]), (n, j)


def test_level_masks_are_the_xor_of_the_pieces():
    # every value vector up to n = 9, then seeded ones up to the cap: the
    # top nibble of the n + 1 value bits is full at n = 11 and partly
    # filled at n = 10, 12, 13 and 14
    rng = random.Random(28)
    cases = [(n, v) for n in range(1, 10) for v in range(1 << (n + 1))]
    cases += [(n, rng.getrandbits(n + 1)) for n in range(10, 15) for _ in range(200)]
    for n, v in cases:
        pieces, masks = _class_product_pieces(n), _level_masks(n)
        for j in range(n + 1):
            assert len(masks[j]) == (n + 4) // 4, (n, j)
            expected = 0
            for k in gf2.iter_bits(v):
                expected ^= pieces[j][k]
            looked_up = 0
            for i, table in enumerate(masks[j]):
                looked_up ^= table[v >> 4 * i & 15]
            assert looked_up == expected, (n, v, j)


def test_orbit_rows_match_monomial_truth_tables():
    # an orbit's row is the truth table of the sum of its monomials
    for n in range(1, 11):
        tables = dense._monomial_tables(n)
        orbits = _orbits(n)
        for k in range(n + 1):
            rows = _class_truth_table(n, k)
            assert len(rows) == orbits.start[k + 1] - orbits.start[k], (n, k)
            for r, row in enumerate(rows, start=orbits.start[k]):
                expected = 0
                for x in _orbit_members(n, r):
                    expected ^= tables.truth_table(x)
                assert orbits.expand(row) == expected, (n, k, r)


def _sylow_swaps(n):
    """Swaps of adjacent sub-blocks inside each binary block of variables; they generate P."""
    swaps = []
    offset = 0
    for level in range(n.bit_length()):
        if not n >> level & 1:
            continue
        for sub in range(level):
            width = 1 << sub
            for lo in range(offset, offset + (1 << level), 2 * width):
                swaps.append((lo, width))
        offset += 1 << level
    return swaps


def _apply_swap(masks, lo, width):
    field = ((1 << width) - 1) << lo
    return masks & ~(field | field << width) | (masks & field) << width | (masks >> width) & field


def _expansion_ranks(n):
    """The orbit rank of every mask, read off the member sets expand(1 << r); -1 where none holds it."""
    orbits = _orbits(n)
    rank = np.full(1 << n, -1)
    for r in range(len(orbits.reps)):
        members = np.flatnonzero(gf2.int_to_bit_array(orbits.expand(1 << r), 1 << n))
        assert (rank[members] == -1).all(), (n, r)  # no mask lies in two orbits
        rank[members] = r
    return rank


def test_orbit_tables_are_the_sylow_orbits():
    a = [2]
    while len(a) < 4:
        a.append(a[-1] * (a[-1] + 1) // 2)
    for n in range(1, 15):
        orbits = _orbits(n)
        expected = math.prod(a[level] for level in range(n.bit_length()) if n >> level & 1)
        assert len(orbits.reps) == expected, n
        masks = np.arange(1 << n)
        rank = _expansion_ranks(n)
        # a partition of all 2^n masks, each orbit led by its least member in graded order
        assert (rank >= 0).all(), n
        assert (rank[list(orbits.reps)] == np.arange(expected)).all(), n
        for r, rep in enumerate(orbits.reps):
            assert np.flatnonzero(rank == r)[0] == rep, (n, r)
        degrees = [rep.bit_count() for rep in orbits.reps]
        assert degrees == sorted(degrees) and tuple(degrees) == orbits.degree, n
        assert orbits.start == tuple(bisect.bisect_left(degrees, t) for t in range(n + 2)), n
        for lo, width in _sylow_swaps(n):
            assert (rank[_apply_swap(masks, lo, width)] == rank).all(), (n, lo, width)
    assert len(_orbits(14).reps) == 378


def test_orbit_tables_match_the_canon_reference():
    # the orbits composed from block orbits against the pass over all 2^n masks; above 14,
    # n = 16, 17 and 18 expand with 1, 2 and 4 mask bits per subset of the top block
    for n in [*range(1, 15), 16, 17, 18]:
        orbits = _orbits(n)
        reps, rank = orbit_rank_reference(n)
        assert list(orbits.reps) == reps.tolist(), n
        assert (_expansion_ranks(n) == rank).all(), n


def test_orbit_rows_match_the_points_reference():
    # the per-block parity rule against the rows counted over the points
    for n in range(1, 15):
        for k in range(n + 1):
            assert _class_truth_table(n, k) == orbit_rows_reference(n, k), (n, k)


def test_block_parities_match_direct_counting():
    rng = random.Random(231)
    for level, count in enumerate((2, 3, 6, 21, 231)):
        reps, rows, index = _block_parities(level)
        canon = _block_canon(level)
        subsets = np.arange(len(canon))
        assert list(reps) == np.flatnonzero(canon == subsets).tolist(), level
        # the orbit of every subset, 65,536 of them at level 4: the block's member sets
        assert len(index) == len(canon), level
        assert (np.array(reps)[np.frombuffer(index, dtype=np.uint8)] == canon).all(), level
        assert len(rows) == count and all(0 <= row < 1 << count for row in rows), level
        # every entry up to level 3, over all 2^(2^level) subsets; a seeded sample at level 4
        if level <= 3:
            entries = [(a, c) for a in range(count) for c in range(count)]
        else:
            entries = [(rng.randrange(count), rng.randrange(count)) for _ in range(60)]
        for a, c in entries:
            members = subsets[canon == reps[a]]
            assert rows[a] >> c & 1 == np.count_nonzero(members & reps[c] == members) % 2, (level, a, c)


def _rows_peak_mb(n):
    """tracemalloc peak of building the orbit tables of n, every orbit row included."""
    _block_parities.cache_clear()
    tracemalloc.start()
    try:
        _orbits.__wrapped__(n)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_orbit_rows_build_in_bounded_memory():
    # the points x orbits rows peaked at 11.2 MB at n = 14, the 2^n rank pass at 4.5 MB at n = 17,
    # and the numpy composition with its orbits x orbits bool array at 33.7 MB at n = 22
    assert _rows_peak_mb(14) <= 2
    assert _rows_peak_mb(17) <= 4
    assert _rows_peak_mb(22) <= 8


def test_witness_expansion_runs_in_bounded_memory():
    # expanding through a 2^n int64 array of mask ranks peaked at 64 MB at n = 22
    orbits = _orbits.__wrapped__(22)
    tracemalloc.start()
    try:
        bits = orbits.expand((1 << len(orbits.reps)) - 1)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert bits == (1 << (1 << 22)) - 1  # every orbit set: every monomial
    assert peak <= 12


def test_fai_matches_dense_oracle_at_11_and_12():
    # max-AI thresholds plus seeded samples, against the pure-dense pipeline;
    # a local generator leaves the shared fixture's draws to the other tests
    rng = random.Random(1112)
    fs = [s.threshold(11, 6), s.threshold(12, 6), s.threshold(12, 7)]
    fs += [random_sanfv(rng, n) for n in (11, 12) for _ in range(3)]
    for f in fs:
        p = s.profile(f)
        assert (p.ai, p.fai) == fai_brute(f), f.to_string()
    assert s.profile(s.threshold(11, 6)).ai == s.profile(s.threshold(12, 6)).ai == 6


def test_table_caches_hold_at_most_two_n():
    # a witness memoised by an earlier test would skip its n's intern table
    immunity._witness.cache_clear()
    for n in range(11, 15):
        s.profile(s.threshold(n, (n + 1) // 2))
    for cache in (_orbits, _class_product_pieces, _level_masks, _mask_interns):
        assert cache.cache_info().currsize == 2, cache.__name__
        hits = cache.cache_info().hits
        cache(13), cache(14)
        assert cache.cache_info().hits == hits + 2, cache.__name__


def test_profile_looks_the_pair_scan_up_once():
    immunity._multiplier_scan.cache_clear()
    s.profile(s.majority(9))
    info = immunity._multiplier_scan.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    # the census visits f and f+1 back to back: each of the 256 pairs of
    # SB_8 is scanned once and reused once
    immunity._multiplier_scan.cache_clear()
    profile_all(8)
    info = immunity._multiplier_scan.cache_info()
    assert (info.hits, info.misses) == (256, 256)


def _clear_witness_memos():
    immunity._witness.cache_clear()
    bounds._bound_checks.cache_clear()


def test_witness_memos_leave_profiles_unchanged():
    for n in range(1, 9):
        fs = [s.Sanfv(n, bits) for bits in range(1 << (n + 1))]
        cold = []
        for f in fs:
            _clear_witness_memos()
            cold.append(s.profile(f).to_json_dict())
        assert [p.to_json_dict() for p in profile_all(n).profiles] == cold, n
        assert [s.profile(f).to_json_dict() for f in fs] == cold, n


def test_witnesses_share_one_int_per_mask():
    # CPython shares no int above 256 by itself; 481 is a monomial of both
    # AI witnesses, which differ
    _clear_witness_memos()
    _mask_interns.cache_clear()
    maj = s.majority(9)
    profiles = [s.profile(maj), s.profile(s.Sanfv(9, maj.bits ^ 1))]
    g, h = (p.ai_witness for p in profiles)
    assert g != h and 481 in g and 481 in h
    assert g[g.index(481)] is h[h.index(481)]
    # the table is filled lazily: it holds exactly the masks of the witnesses made
    held = set()
    for p in profiles:
        held.update(p.ai_witness, *p.fai_witness)
    assert set(_mask_interns(9)) == held and len(held) < 1 << 9


def test_witness_memos_are_bounded():
    memos = (immunity._witness, bounds._bound_checks)
    for memo in memos:
        assert memo.cache_parameters()["maxsize"] is not None, memo.__name__
    # a whole census working set fits: 485 distinct witnesses at n = 14
    assert immunity._witness.cache_parameters()["maxsize"] >= 485
    for n in (10, 13):
        _clear_witness_memos()
        profile_all(n)
        # every distinct witness of SB_n was expanded once and stayed held
        info = immunity._witness.cache_info()
        assert info.misses == info.currsize, n
    for n in (12, 13, 14):
        s.bound_suite(s.profile(s.threshold(n, (n + 1) // 2)))
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize <= info.maxsize, memo.__name__


def test_courtois_ceiling(rng):
    for _ in range(40):
        f = random_sanfv(rng, 10)
        dense_f = s.dense_from_sanfv(f)
        a = s.ai_symmetric(f)[0]
        for e in range(1, a):
            assert s.min_multiplier_degree(dense_f, e).d <= f.n - e


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_fields_majority9():
    p = s.profile(s.majority(9))
    assert (p.deg, p.ai, p.fai) == (8, 5, 6)
    assert not p.capped
    assert p.fai_witness is not None


def test_profile_capped_flag():
    p = s.profile(s.sigma(4, 1))
    assert p.capped and p.fai == 2 * p.ai


def test_profile_witness_presence_matches_cap():
    below = s.profile(s.majority(9))  # FAI 6 < 2*AI, with a pair
    capped = s.profile(s.sigma(4, 1))  # FAI = 2*AI, no pair
    with pytest.raises(InvariantViolation, match="exactly when FAI < 2\\*AI"):
        dataclasses.replace(below, fai_witness=None)
    with pytest.raises(InvariantViolation, match="exactly when FAI < 2\\*AI"):
        dataclasses.replace(capped, fai_witness=below.fai_witness)


def test_profile_json_shape_and_determinism():
    p = s.profile(s.sigma(8, 4))
    payload = p.to_json_dict()
    assert payload["f"] == "000010000"
    assert payload["deg"] == 4 and payload["ai"] == 4 and payload["fai"] == 6
    assert all(isinstance(m, list) for m in payload["ai_witness"])
    again = s.profile(s.sigma(8, 4)).to_json_dict()
    assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_bulk_listing_matches_pure_python_definitions():
    # graded listing, degree and JSON variable lists against the loop
    # definitions they replaced; seeds its own generator so the shared rng
    # fixture gives the other tests the same draws
    gen = random.Random(20261018)
    for n in range(1, 15):
        size = 1 << n
        sparse = gen.getrandbits(size) & gen.getrandbits(size) & gen.getrandbits(size)
        for bits in (0, 1, (1 << size) - 1, gen.getrandbits(size), sparse):
            masks = graded_reference(bits)
            assert gf2.graded_masks(bits, n) == masks, (n, bits)
            assert dense.DenseAnf(n, bits).monomials() == masks, (n, bits)
            degree = max((m.bit_count() for m in masks), default=None)
            assert dense.DenseAnf(n, bits).degree() == degree, (n, bits)
            assert immunity._monomials_to_json(masks) == json_reference(masks), (n, bits)


def test_profile_json_lists_are_fresh():
    p = s.profile(s.majority(7))
    payload = p.to_json_dict()
    payload["ai_witness"][0].append(99)
    payload["fai_witness"]["g"][0].append(99)
    assert p.to_json_dict()["ai_witness"] == json_reference(p.ai_witness)
    assert p.to_json_dict()["fai_witness"]["g"] == json_reference(p.fai_witness[0])


def test_renderer_memoises_monomial_text_only_after_its_first_render(monkeypatch):
    # a renderer lists each witness tuple once; the first render makes each
    # listed monomial's text anew, even one that two witnesses share, so a
    # one-line analyze keeps no memo, and later renders make each text once
    def listed(p):  # the distinct witness tuples of p, by identity, as the renderer keys them
        return list({id(t): t for t in (p.ai_witness, *(p.fai_witness or ()))}.values())

    first, second = s.profile(s.Sanfv.from_string(3, "0010")), s.profile(s.majority(5))
    first_masks = [m for t in listed(first) for m in t]
    assert len(set(first_masks)) < len(first_masks)  # a monomial shared by two witnesses
    second_masks = {m for t in listed(second) for m in t}
    stringified = []
    monkeypatch.setattr(immunity, "iter_bits", lambda m: stringified.append(m) or gf2.iter_bits(m))
    renderer = immunity._ProfileRenderer((",", ":"))
    lines = [renderer.render(first)]
    assert sorted(stringified) == sorted(first_masks)
    stringified.clear()
    lines.append(renderer.render(second))
    assert sorted(stringified) == sorted(second_masks)
    stringified.clear()
    # the same monomials in new witness tuples: listed again, but no text is made again
    fresh = dataclasses.replace(second, ai_witness=tuple(list(second.ai_witness)))
    assert fresh.ai_witness is not second.ai_witness
    lines.append(renderer.render(fresh))
    assert stringified == []
    for p, line in zip((first, second, fresh), lines):
        assert line == json.dumps(p.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def test_is_aar_small_n_exhaustive():
    assert not any(s.is_aar(s.Sanfv(5, bits)) for bits in range(1 << 6))


def test_is_aar_false_everywhere_on_sb10():
    target = 5
    for p in profile_all(10).profiles:
        assert not (p.ai == target and p.fai >= 10)


def test_is_aar_known_positive_at_n6():
    # threshold 4 of 6 variables reaches FAI = n = 6, verified exhaustively;
    # the acceptance suite documents this exception
    assert s.is_aar(s.sigma(6, 4))


def test_capability_limit():
    with pytest.raises(CapabilityError):
        s.ai_symmetric(s.Sanfv(15, 1))
