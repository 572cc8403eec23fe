"""Exact algebraic immunity and fast algebraic immunity of symmetric functions.

AI(f) is the least degree of a nonzero g annihilating f or f+1.  FAI(f) is
min over nonconstant g with deg(g) < AI(f) of deg(g) + deg(g*f), capped
above by 2*AI(f); when AI(f) <= 1 the quantifier range is empty and the cap
is the value.  Both quantify over ALL Boolean g, not just symmetric ones.

Both scans nevertheless run over the functions invariant under a Sylow
2-subgroup P of S_n.  Since f is symmetric, S_n leaves invariant the
annihilators of f of degree <= d and the spaces V(e, d) = {g : deg(g) <= e,
deg(g*f) <= d}.  A finite 2-group acting on a nonzero GF(2) space fixes a
nonzero vector (the p-group fixed-point lemma), so each of these spaces is
nonzero iff it holds a nonzero P-invariant g.  The constant g = 1 is kept
out through W = {g in V(e, d) : g(0) = 0}: W is S_n-invariant, g + g(0) is
in W for every nonconstant g in V(e, d) when 1 is, and every nonzero element
of W is nonconstant.  So every existence question the scans ask is answered
by a P-invariant g.  Such a g has ANF coefficients constant on the P-orbits
of monomials, and those orbits in graded order (degree, then least member)
are the coordinates: 378 at n = 14 instead of 2^14 monomials.  P is the
product, over the set bits 2^i of n, of the iterated wreath product
C2 wr ... wr C2 acting on a block of 2^i consecutive variables.

* Annihilators of f are exactly the functions supported inside the zero set
  of f, which is a union of weight classes and so of P-orbits of points.
  The ANF of an orbit indicator 1_O has coefficient #{x in O : x within M}
  mod 2 at monomial M, which is constant on the orbit of M; the span of
  each class's orbit indicators is echelonized once per (n, class).  One
  class sweep merges these echelons for any set of class unions: the
  single union of one function, or all 2^(n+1) unions for the census.  With
  graded coordinates the minimum reachable degree is the degree of the
  lowest pivot, and the annihilator reported is the P-invariant one whose
  leading orbit is least; exactly one has that leading orbit, so the
  witness does not depend on how the span was built.
* For FAI, the map g -> g*f is scanned orbit sum by orbit sum in graded
  order; each new echelon pivot at coordinate degree dd, reached while
  inserting a sum of degree-e monomials, witnesses a pair value e + dd, and
  the minimum over all of them is the searched inner minimum for every e at
  once.  Each product column has a closed form: for a degree-j monomial
  m, a degree-t monomial M has coefficient 0 in m*f unless M contains m,
  and otherwise the XOR over the support classes k of f of C(t-j, k-j)
  mod 2, which by Lucas is 1 exactly when k-j is a bit-submask of t-j.
  Summed over an orbit O, the column of the orbit sum S_O is the row of O
  masked by those degree layers.  So no truth table is built or
  transformed for the scan.

Witnesses are found as orbit-coordinate vectors and expanded to ANF
coefficient bits only at the end, then re-checked on 2^n-point truth
tables, a route that shares nothing with the scans; f's truth table is
built once per profile for both checks.  The reported monomial masks are
listed in bulk by gf2.graded_masks (a handful of numpy calls per witness,
no loop over the 2^n bits).  The dense oracle performs the same
computations over all g from raw truth tables and is used in the test
suite to cross-check every result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dense
from .errors import CapabilityError, InvariantViolation
from .gf2 import BitBasis, bit_array_to_int, graded_masks, int_to_bit_array, iter_bits, subset_xor_transform
from .sanfv import Sanfv, to_values

MAX_EXACT_N = dense.MAX_DENSE_N


def _check_exact_n(n: int) -> None:
    if n > MAX_EXACT_N:
        raise CapabilityError(f"exact immunity supports n <= {MAX_EXACT_N}, got {n}")


def _monomials_to_json(masks: tuple[int, ...]) -> list[list[int]]:
    return [list(iter_bits(m)) for m in masks]


@dataclass(frozen=True)
class ImmunityProfile:
    """Per-function record: degree, AI with annihilator, FAI with multiplier pair.

    Both witnesses are invariant under the Sylow 2-subgroup P of S_n that
    the scans work over (see the module docstring).  ai_witness comes from
    the weight-class sweep and annihilates f, or f+1 when that side has
    strictly lower degree.  Among the P-invariant annihilators of that side
    it is the one whose leading orbit (degree, then least member) is least;
    no other has the same leading orbit.  fai_witness is (g, g*f) for the
    first pair of the orbit-graded multiplier scan that attains the FAI, or
    None when no pair beats the 2*AI cap.
    """

    f: Sanfv
    deg: int | None
    ai: int
    ai_witness: tuple[int, ...]
    fai: int
    fai_witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    capped: bool

    def __post_init__(self):
        n = self.f.n
        if self.ai > (n + 1) // 2:
            raise InvariantViolation(f"AI {self.ai} exceeds ceil(n/2) for {self.f!r}")
        if self.fai > 2 * self.ai:
            raise InvariantViolation(f"FAI {self.fai} exceeds the 2*AI cap for {self.f!r}")

    def to_json_dict(self) -> dict:
        witness = None
        if self.fai_witness is not None:
            g_masks, h_masks = self.fai_witness
            witness = {"g": _monomials_to_json(g_masks), "h": _monomials_to_json(h_masks)}
        return {
            "f": self.f.to_string(),
            "n": self.f.n,
            "deg": self.deg,
            "ai": self.ai,
            "ai_witness": _monomials_to_json(self.ai_witness),
            "fai": self.fai,
            "fai_witness": witness,
            "capped": self.capped,
        }


# ---------------------------------------------------------------------------
# coordinates: orbits of monomials under a Sylow 2-subgroup P of S_n
# ---------------------------------------------------------------------------


def _recent_n_cache(build):
    """Memoize build(n, *args), keeping the entries of the two most recent n.

    The per-n tables grow with n, so a process that analyses several n
    holds at most two n's worth of them.  held_n() lists the n held, least
    recently used first.
    """
    held: dict[int, dict] = {}

    @functools.wraps(build)
    def cached(n: int, *args):
        entries = held.pop(n, {})
        held[n] = entries
        if len(held) > 2:
            del held[next(iter(held))]
        if args not in entries:
            entries[args] = build(n, *args)
        return entries[args]

    cached.held_n = lambda: tuple(held)
    return cached


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


@dataclass(frozen=True, eq=False)
class _Orbits:
    """The P-orbits of the monomial masks on n variables, in graded order.

    reps[r] is the least member of orbit r and degree[r] its degree;
    start[t] is the first rank of degree t, so start[n + 1] counts the
    orbits; rank[x] is the rank of the orbit that holds mask x.
    """

    reps: np.ndarray
    degree: tuple[int, ...]
    start: tuple[int, ...]
    rank: np.ndarray

    def expand(self, vec: int) -> int:
        """ANF coefficient bits (one per monomial mask) of an orbit-coordinate vector."""
        return bit_array_to_int(int_to_bit_array(vec, len(self.reps))[self.rank])


@_recent_n_cache
def _orbits(n: int) -> _Orbits:
    """Orbits of P, the product over the set bits 2^i of n of C2 wr ... wr C2.

    Each factor acts on its own block of 2^i consecutive variables (smallest
    block lowest), so the least member of an orbit is the least member of
    each block's part, found by one table lookup per block.
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
    degrees = np.bitwise_count(reps)
    order = np.lexsort((reps, degrees))
    reps, degrees = reps[order], degrees[order]
    rank = np.zeros(1 << n, dtype=np.int64)
    rank[reps] = np.arange(len(reps))
    start = np.searchsorted(degrees, np.arange(n + 2))
    return _Orbits(reps, tuple(degrees.tolist()), tuple(start.tolist()), rank[least])


# ---------------------------------------------------------------------------
# annihilator side: minimum degree over a union of weight classes
# ---------------------------------------------------------------------------


@_recent_n_cache
def _class_truth_table(n: int, k: int) -> tuple[int, ...]:
    """Orbit-coordinate rows of the weight-k point orbits O, in graded order.

    Row O has bit r set iff an odd number of the points of O lie within the
    monomial reps[r].  It is at once the ANF of the orbit indicator 1_O and
    the truth table of the orbit sum S_O of the monomials in O, both read
    in orbit coordinates.
    """
    orbits = _orbits(n)
    lo, hi = orbits.start[k], orbits.start[k + 1]
    points = np.flatnonzero((orbits.rank >= lo) & (orbits.rank < hi))
    points = points[np.argsort(orbits.rank[points], kind="stable")]
    first = np.searchsorted(orbits.rank[points], np.arange(lo, hi))
    within = (points[:, None] & orbits.reps) == points[:, None]
    return tuple(bit_array_to_int(row) for row in np.bitwise_xor.reduceat(within, first, axis=0))


@_recent_n_cache
def _class_delta_echelon(n: int, k: int) -> tuple[int, ...]:
    """Echelonized ANF span of the weight-k orbit indicators, orbit coordinates."""
    basis = BitBasis()
    return tuple(basis.insert(row)[1] for row in _class_truth_table(n, k))


@functools.lru_cache(maxsize=1 << 16)
def _zero_span_min_degree(n: int, class_mask: int) -> tuple[int | None, int | None]:
    """Minimum degree of a nonzero function supported on the given weight classes.

    Returns (degree, orbit-coordinate vector) of the witness chosen by
    _class_sweep, or (None, None) when the class set is empty.
    """
    return _class_sweep(n, (class_mask,))[class_mask]


def all_zero_set_degrees(n: int) -> dict[int, tuple[int | None, int | None]]:
    """_zero_span_min_degree for every union of weight classes, from one sweep.

    Used by the exhaustive search harness; keys are class bit masks.
    """
    _check_exact_n(n)
    return _class_sweep(n, range(1 << (n + 1)))


def _class_sweep(n: int, masks) -> dict[int, tuple[int | None, int | None]]:
    """Minimum supported-function degree, with a witness, for each class mask.

    Depth-first over the n+1 weight classes, biggest class first so that the
    expensive insertions sit near the root; the elimination state is copied
    only where the requested masks differ on the current class.  Coordinates
    are graded, so the least degree in the span is the degree of the lowest
    pivot.  The witness is the stored row with that pivot: it is the only
    nonzero vector of the span with that leading coordinate, so it does not
    depend on the order in which the classes were inserted.
    """
    degree = _orbits(n).degree
    order = sorted(range(n + 1), key=lambda k: (-math.comb(n, k), k))
    results: dict[int, tuple[int | None, int | None]] = {}

    def visit(idx: int, basis: BitBasis, lowest: tuple[int, int] | None, group: list[int]) -> None:
        if idx == len(order):
            if lowest is None:
                results[group[0]] = (None, None)
            else:
                pivot, row = lowest
                results[group[0]] = (degree[pivot], row)
            return
        k = order[idx]
        inside = [m for m in group if m >> k & 1]
        outside = [m for m in group if not m >> k & 1]
        if inside:
            grown = basis.copy() if outside else basis
            grown_lowest = lowest
            for vec in _class_delta_echelon(n, k):
                pivot, row, _ = grown.insert(vec)
                if pivot is not None and (grown_lowest is None or pivot < grown_lowest[0]):
                    grown_lowest = (pivot, row)
            visit(idx + 1, grown, grown_lowest, inside)
        if outside:
            visit(idx + 1, basis, lowest, outside)

    visit(0, BitBasis(), None, list(masks))
    return results


def ai_symmetric(f: Sanfv) -> tuple[int, tuple[int, ...]]:
    """Exact AI with an annihilator witness (monomial masks, graded order).

    The witness annihilates whichever of f, f+1 attains the minimum (f is
    preferred on ties).
    """
    _check_exact_n(f.n)
    values = to_values(f)
    f_tt = dense.dense_from_values(values).bits
    return _ai_with_witness(f.n, values.bits, f_tt, functools.partial(_zero_span_min_degree, f.n))


def _ai_with_witness(
    n: int, value_bits: int, f_tt: int, zero_set_degree
) -> tuple[int, tuple[int, ...]]:
    """AI and verified annihilator of the symmetric function with these values.

    f_tt is its 2^n-point truth table.  zero_set_degree maps a class mask
    to (degree, orbit-coordinate vector) as _zero_span_min_degree does.  f
    is preferred over f+1 on ties.
    """
    d_f, w_f = zero_set_degree(((1 << (n + 1)) - 1) ^ value_bits)
    d_fc, w_fc = zero_set_degree(value_bits)
    if d_f is None and d_fc is None:
        raise InvariantViolation("no annihilator on either side")
    if d_fc is None or (d_f is not None and d_f <= d_fc):
        value, witness = d_f, w_f
    else:
        value, witness = d_fc, w_fc
    witness_bits = _orbits(n).expand(witness)
    _verify_annihilator(n, f_tt, witness_bits)
    return value, graded_masks(witness_bits, n)


def _verify_annihilator(n: int, f_tt: int, anf_bits: int) -> None:
    if anf_bits == 0:
        raise InvariantViolation("AI witness is the zero function")
    tt = subset_xor_transform(anf_bits, n)
    kills_f = tt & f_tt == 0
    kills_complement = tt & ~f_tt & ((1 << (1 << n)) - 1) == 0
    if not (kills_f or kills_complement):
        raise InvariantViolation("AI witness annihilates neither side")


# ---------------------------------------------------------------------------
# multiplier side: the FAI inner minimum
# ---------------------------------------------------------------------------


@_recent_n_cache
def _class_product_pieces(n: int) -> tuple[tuple[int, ...], ...]:
    """Orbit-coordinate degree-layer masks of (degree-j monomial * class-k indicator).

    Entry [j][k] holds every layer t (the orbits of degree t) with (k - j)
    a bit-submask of (t - j): by Lucas, that is when C(t - j, k - j) is
    odd, which is the coefficient of each degree-t monomial containing m in
    m * [weight = k].  Since a symmetric f is the disjoint union of its
    support classes, the product column of a degree-j orbit sum is its row
    masked by the XOR of these entries.
    """
    start = _orbits(n).start
    layers = [(1 << start[t + 1]) - (1 << start[t]) for t in range(n + 1)]
    return tuple(
        tuple(
            sum(layers[t] for t in range(k, n + 1) if k >= j and (t - j) & (k - j) == k - j)
            for k in range(n + 1)
        )
        for j in range(n + 1)
    )


def _product_columns(n: int, value_bits: int, max_level: int):
    """Orbit-coordinate ANF of S * f for every orbit sum S of degree <= max_level, in graded order."""
    pieces = _class_product_pieces(n)
    classes = tuple(iter_bits(value_bits))
    for j in range(max_level + 1):
        mask = 0
        for k in classes:
            mask ^= pieces[j][k]
        for row in _class_truth_table(n, j):
            yield row & mask


def _multiplier_scan(n: int, value_bits: int, max_level: int):
    """Insert product columns in graded order, yielding one pivot per column.

    Yields (level, pivot_degree, comb, vec) for every orbit sum past the
    constant one; comb is a bit mask over orbit ranks.  A dependent column
    below the AI cap would mean a low-degree annihilator slipped through,
    so it raises.
    """
    degree = _orbits(n).degree
    basis = BitBasis(track=True)
    for rank, vec in enumerate(_product_columns(n, value_bits, max_level)):
        pivot, reduced, comb = basis.insert(vec)
        if pivot is None:
            raise InvariantViolation(
                f"unexpected annihilator below the AI cap (rank {rank}, n={n})"
            )
        if rank == 0:
            continue  # the constant column: its solution g = 1 is excluded
        yield degree[rank], degree[pivot], comb, reduced


def fai_given_ai(n: int, value_bits: int, f_tt: int, ai_value: int):
    """FAI from a known AI; returns (fai, witness_pair_or_None, capped).

    f_tt is f's 2^n-point truth table.  witness is a pair (g monomial
    masks, h monomial masks) with h = g*f attaining the minimum; None when
    only the 2*AI cap term attains it.
    """
    if ai_value <= 1:
        return 2 * ai_value, None, True
    cap = 2 * ai_value
    best = cap
    best_pair = None
    for level, pivot_deg, comb, vec in _multiplier_scan(n, value_bits, ai_value - 1):
        value = level + pivot_deg
        if value < best:
            best = value
            best_pair = (comb, vec)
        if best <= level + 1:
            break  # every later pair is worth at least level + 1
    if best_pair is None:
        return best, None, True
    g_bits, h_bits = (_orbits(n).expand(vec) for vec in best_pair)
    _verify_pair(n, f_tt, g_bits, h_bits, best)
    witness = (graded_masks(g_bits, n), graded_masks(h_bits, n))
    return best, witness, best == cap


def _verify_pair(n: int, f_tt: int, g_bits: int, h_bits: int, value: int) -> None:
    g_tt = subset_xor_transform(g_bits, n)
    if subset_xor_transform(h_bits, n) != (g_tt & f_tt):
        raise InvariantViolation("FAI witness pair fails h = g*f")
    g_deg = dense.DenseAnf(n, g_bits).degree()
    h_deg = dense.DenseAnf(n, h_bits).degree()
    if g_bits in (0, 1) or g_deg + h_deg > value:
        raise InvariantViolation("FAI witness pair does not attain the reported value")


def profile(f: Sanfv) -> ImmunityProfile:
    """Full immunity profile of a symmetric function."""
    _check_exact_n(f.n)
    return profile_from_zero_sets(f, functools.partial(_zero_span_min_degree, f.n))


def profile_from_zero_sets(f: Sanfv, zero_set_degree) -> ImmunityProfile:
    """Profile of f with its AI read from zero_set_degree (see _ai_with_witness).

    The single path behind profile() and the census: the AI witness is
    verified, then the FAI scan runs from that AI.  f's truth table is built
    once and both witnesses are checked against it.
    """
    values = to_values(f)
    f_tt = dense.dense_from_values(values).bits
    ai_value, ai_witness = _ai_with_witness(f.n, values.bits, f_tt, zero_set_degree)
    value, witness, capped = fai_given_ai(f.n, values.bits, f_tt, ai_value)
    return ImmunityProfile(
        f=f,
        deg=f.degree(),
        ai=ai_value,
        ai_witness=ai_witness,
        fai=value,
        fai_witness=witness,
        capped=capped,
    )


def is_aar(f: Sanfv) -> bool:
    """True iff f has maximum AI and its FAI reaches the n ceiling.

    Under this definition sigma_4 at n = 6 is AAR: it has AI 3 = (n + 1) // 2
    and FAI 6 = n.  PAPER.md holds no theorem text, so it does not settle
    whether the paper's claim that no symmetric function is AAR covers n = 6.
    """
    p = profile(f)
    return p.ai == (f.n + 1) // 2 and p.fai >= f.n
