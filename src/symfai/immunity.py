"""Exact algebraic immunity and fast algebraic immunity of symmetric functions.

AI(f) is the least degree of a nonzero g annihilating f or f+1.  FAI(f) is
min over nonconstant g with deg(g) < AI(f) of deg(g) + deg(g*f), capped
above by 2*AI(f); when AI(f) <= 1 the quantifier range is empty and the cap
is the value.  Both quantify over ALL Boolean g, not just symmetric ones.

The scan nevertheless runs over the functions invariant under a Sylow
2-subgroup P of S_n.  Since f is symmetric, S_n leaves invariant the
annihilators of f of degree <= d and the spaces V(e, d) = {g : deg(g) <= e,
deg(g*f) <= d}.  A finite 2-group acting on a nonzero GF(2) space fixes a
nonzero vector (the p-group fixed-point lemma), so each of these spaces is
nonzero iff it holds a nonzero P-invariant g.  The constant g = 1 is kept
out through W = {g in V(e, d) : g(0) = 0}: W is S_n-invariant, g + g(0) is
in W for every nonconstant g in V(e, d) when 1 is, and every nonzero element
of W is nonconstant.  So every existence question the scan asks is answered
by a P-invariant g.  Such a g has ANF coefficients constant on the P-orbits
of monomials, and those orbits in graded order (degree, then least member)
are the coordinates: 378 at n = 14 instead of 2^14 monomials.  P is the
product, over the set bits 2^i of n, of the iterated wreath product
C2 wr ... wr C2 acting on a block of 2^i consecutive variables.

Each block's orbits come from one wreath recursion: an orbit one level up
is a pair a <= b of orbits of the halves and holds the subsets with one
half in a and the other in b.  Its count against a rep with halves
(lo, hi) is c(a, lo) * c(b, hi), plus c(b, lo) * c(a, hi) when a != b.  An
orbit of P is a tuple of block orbits, one per block, and its least member
is the union of theirs.  The row of a point orbit O, against the orbit of a
monomial rep R, is the parity of #{x in O : x within R}; that count is the
product of the per-block counts, so the bit is the AND of the per-block
parities.  Every table is a tuple of ints made from the block tables
(at most 231 orbits per block up to n = 31), and none runs over the 2^n
masks, not even the expansion of a witness to its ANF (_Orbits.expand).

One scan answers both questions.  For each side s in (f, f+1) the map
g -> g*s is scanned orbit sum by orbit sum in graded order, both sides
level by level in one loop, each into its own pivot table (top-bit
elimination) that records which orbit sums combine into each column.

* Each product column has a closed form: for a degree-j monomial m, a
  degree-t monomial M has coefficient 0 in m*f unless M contains m, and
  otherwise the XOR over the support classes k of f of C(t-j, k-j) mod 2,
  which by Lucas is 1 exactly when k-j is a bit-submask of t-j.  Summed
  over an orbit O, the column of the orbit sum S_O is the row of O masked
  by those degree layers.  So no truth table is built for the scan.  Over
  all k the layer t is taken 2^popcount(t-j) times, an odd count only at
  t = j, so f+1's mask is f's XOR layer j.  f's mask takes one lookup
  per nibble of its value bits in per-n tables (_level_masks).
* AI: a dependent column is a P-invariant annihilator of its side, and the
  scan stops after the first level at which either side has one; that
  level is the AI.  With graded coordinates each side's first dependency
  is its annihilator of least leading orbit (degree, then least member);
  exactly one has that leading orbit, so the witness does not depend on
  how the echelon was built.  f's witness is preferred on ties.
* FAI: each new pivot of f's side at coordinate degree dd, reached while
  inserting a sum of degree-e monomials below the AI, witnesses a pair
  value e + dd, and the minimum over all of them is the searched inner
  minimum for every e at once.

f and f+1 share one scan with the sides swapped, so the census, which
visits them back to back, scans each pair once.

Witnesses are found as orbit-coordinate vectors and expanded to ANF
coefficient bits only at the end, then re-checked on 2^n-point truth
tables, a route that shares nothing with the scan.  f's truth table is
built once per profile for both checks, as the OR of its support's weight
classes, from W(m, k) = W(m-1, k) | W(m-1, k-1) << 2^(m-1) on ints.
gf2.graded_masks lists the reported monomial masks in bulk (a handful of
numpy calls per witness), and the checks read the witness degrees from
these lists.  Few distinct witnesses occur (118 in the 2,048 profiles of
SB_10), so the expansion, the witness truth table and the listing are
memoised per distinct orbit vector by one bounded cache, _witness, whose
mask tuples share one int object per mask through an intern table per n.
The checks against f's truth table and the reported degrees still run for
every function.  The dense oracle (dense.py) performs the same
computations over all g from raw truth tables and is used in the test
suite to cross-check every result; this module imports nothing from it.
MAX_EXACT_N stays at most dense.MAX_DENSE_N, so every exact n is one the
oracle can check.  A profile's JSON line is written by _ProfileRenderer
from the witnesses' masks, byte-equal to json.dumps of to_json_dict's record.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CapabilityError, InvariantViolation
from .gf2 import BitBasis, graded_masks, iter_bits, subset_xor_transform
from .sanfv import Sanfv, _transform_bits

if TYPE_CHECKING:
    from .bounds import BoundReport

MAX_EXACT_N = 14


def _check_exact_n(n: int) -> None:
    if n > MAX_EXACT_N:
        raise CapabilityError(f"exact immunity supports n <= {MAX_EXACT_N}, got {n}")


def _monomials_to_json(masks: tuple[int, ...]) -> list[list[int]]:
    return [list(iter_bits(m)) for m in masks]


@dataclass(frozen=True)
class ImmunityProfile:
    """Per-function record of what the scan found: AI with annihilator, FAI with multiplier pair.

    Both witnesses are invariant under the Sylow 2-subgroup P of S_n that
    the scan works over (see the module docstring).  ai_witness annihilates
    f, or f+1 when that side has strictly lower degree.  Among the
    P-invariant annihilators of that side it is the one whose leading orbit
    (degree, then least member) is least; no other has the same leading
    orbit.  fai_witness is (g, g*f) for the first pair of the orbit-graded
    scan that attains the FAI; it is present exactly when the FAI is below
    the 2*AI cap.  deg and capped are derived from these fields.
    """

    f: Sanfv
    ai: int
    ai_witness: tuple[int, ...]
    fai: int
    fai_witness: tuple[tuple[int, ...], tuple[int, ...]] | None

    def __post_init__(self):
        n = self.f.n
        if self.ai > (n + 1) // 2:
            raise InvariantViolation(f"AI {self.ai} exceeds ceil(n/2) for {self.f!r}")
        if self.fai > 2 * self.ai:
            raise InvariantViolation(f"FAI {self.fai} exceeds the 2*AI cap for {self.f!r}")
        if (self.fai_witness is None) != self.capped:
            raise InvariantViolation(
                f"FAI witness pair must be present exactly when FAI < 2*AI, for {self.f!r}"
            )

    @property
    def deg(self) -> int | None:
        """Algebraic degree of f, None for the zero function."""
        return self.f.degree()

    @property
    def capped(self) -> bool:
        """Whether the FAI is the 2*AI cap, so no multiplier pair beats it."""
        return self.fai == 2 * self.ai

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


class _ProfileRenderer:
    """JSON lines of profile records, written directly from the witnesses' masks.

    ``render(p, report)`` gives the bytes of json.dumps(d, sort_keys=True,
    separators=separators) plus a newline, where d is p.to_json_dict() with,
    when report is given, analyze's "bounds" (the checks' dicts) and
    "bounds_ok" added.  It builds neither that dict nor the encoder's
    token list.  Each distinct witness tuple is listed once: listings are
    keyed by the tuple's identity, and each entry holds the tuple, so its id
    is not reused while the renderer lives.  Once its first render has
    returned, a renderer also keeps each monomial's text, made the first
    time a witness holds its mask: that pays off across the many lines of a
    census or a report, while a renderer that renders one line, as analyze's
    does, keeps its peak small without it.
    """

    def __init__(self, separators: tuple[str, str]):
        self.item, self.key = separators
        self._monomials: dict[int, str] | None = None  # started once the first render has returned
        self._listings: dict[int, tuple[tuple[int, ...], str]] = {}

    def _listed(self, masks: tuple[int, ...]) -> str:
        entry = self._listings.get(id(masks))
        if entry is None:
            item, memo = self.item, self._monomials

            def text(m: int) -> str:
                return "[" + item.join(map(str, iter_bits(m))) + "]"

            if memo is None:
                parts = [text(m) for m in masks]
            else:
                parts = [memo.get(m) or memo.setdefault(m, text(m)) for m in masks]
            entry = self._listings[id(masks)] = (masks, "[" + item.join(parts) + "]")
        return entry[1]

    def render(self, p: ImmunityProfile, report: BoundReport | None = None) -> str:
        """One line of JSON for p, with report's bound checks when it is given."""
        item, key = self.item, self.key
        if p.fai_witness is None:
            fai_witness = "null"
        else:
            g, h = p.fai_witness
            fai_witness = f'{{"g"{key}{self._listed(g)}{item}"h"{key}{self._listed(h)}}}'
        bounds = ""
        if report is not None:
            checks = json.dumps([c.to_json_dict() for c in report.checks], sort_keys=True, separators=(item, key))
            bounds = f'{item}"bounds"{key}{checks}{item}"bounds_ok"{key}{"true" if report.all_ok else "false"}'
        deg = p.deg
        line = (
            f'{{"ai"{key}{p.ai}{item}"ai_witness"{key}{self._listed(p.ai_witness)}{bounds}{item}'
            f'"capped"{key}{"true" if p.capped else "false"}{item}"deg"{key}{"null" if deg is None else deg}{item}'
            f'"f"{key}"{p.f.to_string()}"{item}"fai"{key}{p.fai}{item}"fai_witness"{key}{fai_witness}{item}'
            f'"n"{key}{p.f.n}}}\n'
        )
        self._monomials = {} if self._monomials is None else self._monomials
        return line


# ---------------------------------------------------------------------------
# coordinates: orbits of monomials under a Sylow 2-subgroup P of S_n
# ---------------------------------------------------------------------------


def _block_levels(n: int) -> list[int]:
    """Levels of P's blocks: one block of 2^level variables per set bit of n, smallest first."""
    return [level for level in range(n.bit_length()) if n >> level & 1]


@functools.lru_cache(maxsize=None)
def _block_parities(level: int) -> tuple[tuple[int, ...], tuple[int, ...], bytes]:
    """Orbit reps, parity rows and subset index of a block of 2^level variables.

    reps lists the least member of each orbit of C2 wr ... wr C2, ascending;
    bit c of rows[a] is the parity of #{x in orbit a : x within reps[c]};
    byte x of index is the orbit of the subset x.  All three come from the
    wreath recursion of the module docstring: the orbit of a pair a <= b of
    half orbits has rep half_reps[b] | half_reps[a] << 2^(level - 1).  Levels
    0..4 (2, 3, 6, 21 and 231 orbits) cover every block up to n = 31.
    """
    if level == 0:
        return (0, 1), (0b11, 0b10), bytes((0, 1))
    half_reps, half_rows, half_index = _block_parities(level - 1)
    width = 1 << (level - 1)
    pairs = sorted((half_reps[b] | half_reps[a] << width, a, b) for b in range(len(half_reps)) for a in range(b + 1))
    _, high_parts, low_parts = zip(*pairs)
    rank = [[0] * 256 for _ in half_reps]  # rank[x][y]: the orbit of a pair of half orbits x, y
    for c, (_, a, b) in enumerate(pairs):
        rank[a][b] = rank[b][a] = c
    # the columns whose low or high half rep holds an odd number of half orbit x's members
    in_low, in_high = _column_masks(low_parts, half_rows), _column_masks(high_parts, half_rows)
    # count the members with the low half in b and the high half in a, then the other way round
    rows = [in_low[b] & in_high[a] ^ (in_low[a] & in_high[b] if a != b else 0) for _, a, b in pairs]
    index = b"".join(half_index.translate(bytes(rank[high_orbit])) for high_orbit in half_index)
    return tuple(rep for rep, _, _ in pairs), tuple(rows), index


def _column_masks(parts: tuple[int, ...], rows: tuple[int, ...]) -> list[int]:
    """Per block orbit x, the mask of the ranks c whose block orbit parts[c] is a set bit of rows[x]."""
    chosen = [0] * len(rows)
    for c, y in enumerate(parts):
        chosen[y] |= 1 << c
    return [sum(chosen[y] for y in iter_bits(row)) for row in rows]  # the chosen[y] are disjoint


@dataclass(frozen=True, eq=False)
class _Orbits:
    """The P-orbits of the monomial masks on n variables, in graded order.

    reps[r] is the least member of orbit r and degree[r] its degree;
    start[t] is the first rank of degree t, so start[n + 1] counts the
    orbits.  parts[i][r] is the block-i orbit of orbit r (blocks in the
    order of _block_levels), an index into _block_parities' reps.
    levels[t] holds the rows of the orbits of degree t, in rank order: the
    row of orbit r, read as a point orbit O, has bit c set iff
    #{x in O : x within reps[c]} is odd.
    """

    reps: tuple[int, ...]
    degree: tuple[int, ...]
    start: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    levels: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def _layout(self) -> tuple[bytes, int, int, tuple[int, ...]]:
        """Top block index and orbit count, bits per word, and per orbit the set of its members' lower bits."""
        n = len(self.start) - 2
        levels, members = _block_levels(n), {}
        for z in range(1 << (n & (1 << levels[-1]) - 1)):  # block i starts at bit n & (2^i - 1)
            key = tuple(_block_parities(i)[2][z >> (n & (1 << i) - 1) & (1 << (1 << i)) - 1] for i in levels[:-1])
            members[key] = members.get(key, 0) | 1 << z
        top_reps, _, index = _block_parities(levels[-1])
        word_bits = 1 << (n - (1 << levels[-1]))
        return index, len(top_reps), word_bits, tuple(members[part[:-1]] for part in zip(*self.parts))

    def expand(self, vec: int) -> int:
        """ANF coefficient bits (one per monomial mask) of an orbit-coordinate vector.

        The masks whose top-block part is the subset y give word y, the OR of
        the lower member sets of the set orbits whose top part is y's orbit.
        """
        index, count, word_bits, lower = self._layout
        top, words = self.parts[-1], [0] * count  # one word per top orbit
        for r in iter_bits(vec):
            words[top[r]] |= lower[r]
        if word_bits < 8:  # word y is at bit (y % per) * word_bits of byte y // per
            per = 8 // word_bits
            tables = [bytes(word << k * word_bits for word in words).ljust(256, b"\0") for k in range(per)]
            return sum(int.from_bytes(index[k::per].translate(tables[k]), "little") for k in range(per))
        size = word_bits // 8  # word y is bytes y * size .. y * size + size - 1
        table = b"".join(word.to_bytes(size, "little") for word in words)
        packed = bytearray(len(index) * size)
        for k in range(size):
            packed[k::size] = index.translate(table[k::size].ljust(256, b"\0"))
        return int.from_bytes(packed, "little")


@functools.lru_cache(maxsize=2)
def _orbits(n: int) -> _Orbits:
    """Orbits of P, each a tuple of block orbits (smallest block lowest), as in the module docstring.

    A row is the AND over the blocks of _column_masks.  Two n are held, so a
    process that analyses several n keeps at most two n's worth of tables.
    """
    levels = _block_levels(n)
    blocks = [_block_parities(level) for level in levels]
    shifts = [n & (1 << level) - 1 for level in levels]  # the widths of the smaller blocks
    combos = list(itertools.product(*(range(len(block[0])) for block in blocks)))
    reps = [sum(block[0][p] << shift for block, p, shift in zip(blocks, parts, shifts)) for parts in combos]
    # graded order: by degree, then by rep; ranked[r] is the tuple of block orbits of rank r
    degree, reps, ranked = zip(*sorted(zip(map(int.bit_count, reps), reps, combos)))
    parts = tuple(zip(*ranked))
    columns = [_column_masks(part, block_rows) for (_, block_rows, _), part in zip(blocks, parts)]
    rows = tuple(functools.reduce(int.__and__, map(list.__getitem__, columns, p)) for p in ranked)
    start = tuple(bisect.bisect_left(degree, t) for t in range(n + 2))
    levels = tuple(rows[start[t] : start[t + 1]] for t in range(n + 1))
    return _Orbits(reps, degree, start, parts, levels)


# ---------------------------------------------------------------------------
# orbit-coordinate tables
# ---------------------------------------------------------------------------


def _class_truth_table(n: int, k: int) -> tuple[int, ...]:
    """Orbit-coordinate rows of the weight-k point orbits O, in graded order.

    Row O has bit r set iff an odd number of the points of O lie within the
    monomial reps[r].  It is at once the ANF of the orbit indicator 1_O and
    the truth table of the orbit sum S_O of the monomials in O, both read
    in orbit coordinates: _orbits(n).levels[k].
    """
    return _orbits(n).levels[k]


def _class_delta_echelon(n: int, k: int) -> tuple[int, ...]:
    """Echelonized ANF span of the weight-k orbit indicators, orbit coordinates."""
    basis = BitBasis()
    return tuple(basis.insert(row)[1] for row in _class_truth_table(n, k))


@functools.lru_cache(maxsize=2)
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
        tuple(sum(layers[t] for t in range(k, n + 1) if k >= j and (t - j) & (k - j) == k - j) for k in range(n + 1))
        for j in range(n + 1)
    )


@functools.lru_cache(maxsize=2)
def _level_masks(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per level j, one 16-entry table per nibble i of the value bits: [j][i][b] XORs pieces[j][4i + k] over bits k of b.

    pieces is _class_product_pieces(n); each entry is one XOR from that of
    b without its lowest set bit.  Two n are held, as by _orbits.
    """
    tables = []
    for pieces in _class_product_pieces(n):
        pieces = (*pieces, 0, 0, 0)  # a partly filled top nibble
        level = []
        for low in range(0, n + 1, 4):
            table = [0] * 16
            for b in range(1, 16):
                table[b] = table[b & (b - 1)] ^ pieces[low + (b & -b).bit_length() - 1]
            level.append(tuple(table))
        tables.append(tuple(level))
    return tuple(tables)


# ---------------------------------------------------------------------------
# the scan: AI, its witness and the FAI pairs
# ---------------------------------------------------------------------------


def _product_columns(rows: tuple[int, ...], layers: tuple[int, ...], classes: tuple[int, ...]):
    """Orbit-coordinate ANF of S * f for the orbit sums S of one degree j, in graded order.

    rows are _class_truth_table(n, j), layers are _class_product_pieces(n)[j]
    and classes are the weights k with f = 1 on weight class k.
    """
    mask = 0
    for k in classes:
        mask ^= layers[k]
    for row in rows:
        yield row & mask


@functools.lru_cache(maxsize=1)
def _multiplier_scan(n: int, sides: tuple[int, ...]):
    """One graded scan of the product maps g -> g*s, one elimination per side s.

    sides holds one side's values on the weight classes, or f's and then
    f+1's.  The first side's mask at level j XORs one _level_masks(n)[j]
    entry per nibble of its values, and f+1's is f's XOR layer j.  The
    product columns of the orbit sums go level by level into one echelon
    per side, each reduced by its top bit until that bit is a new pivot,
    and the scan stops after the first level at which some side has a
    dependent column.  Returns (level, kernels, columns): level is that
    level, or None when no side has one; kernels[i] is side i's first
    dependency there, or None; columns[i] holds the (pivot, reduced, comb)
    of side i's columns below that level, indexed by orbit rank.
    Combinations are orbit-coordinate vectors of g.  A dependency at rank r
    is the only P-invariant annihilator of its side with leading orbit r
    (two would sum to an earlier dependency), so the first one does not
    depend on how the echelon was built.
    """
    orbits, masks = _orbits(n), _level_masks(n)
    start = orbits.start
    nibbles = [sides[0] >> shift & 15 for shift in range(0, n + 1, 4)]
    echelons = [[None] * start[n + 1] for _ in sides]  # echelon[p]: the stored column with pivot p
    columns = tuple([] for _ in sides)
    kernels = [None] * len(sides)  # set only at the level the scan stops at
    for level, rows in enumerate(orbits.levels):
        mask = 0
        for table, nibble in zip(masks[level], nibbles):
            mask ^= table[nibble]
        for side, echelon in enumerate(echelons):
            if side:
                mask ^= (1 << start[level + 1]) - (1 << start[level])
            found, comb = columns[side], 1 << start[level]
            for row in rows:
                vec, c = row & mask, comb
                while vec:
                    pivot = vec.bit_length() - 1
                    entry = echelon[pivot]
                    if entry is None:
                        echelon[pivot] = entry = (pivot, vec, c)
                        found.append(entry)
                        break
                    vec ^= entry[1]
                    c ^= entry[2]
                else:
                    kernels[side] = c
                    break
                comb <<= 1
        if any(kernels):  # a dependency's combination is nonzero
            return level, tuple(kernels), tuple(tuple(found[: start[level]]) for found in columns)
    return None, tuple(kernels), tuple(map(tuple, columns))


def _pair_scan(n: int, value_bits: int):
    """The scan of f and f+1, which both share, and the index of f's side in it.

    The pair is keyed with the side whose value at weight 0 is 0 first, so
    the census, which visits f and f+1 back to back, scans each pair once.
    """
    full = (1 << (n + 1)) - 1
    side = value_bits & 1
    first = value_bits ^ full if side else value_bits
    return _multiplier_scan(n, (first, first ^ full)), side


@functools.lru_cache(maxsize=1 << 16)
def _zero_span_min_degree(n: int, class_mask: int) -> tuple[int | None, int | None]:
    """Minimum degree of a nonzero function supported on the given weight classes.

    These functions are the annihilators of the side whose values are the
    complement of class_mask, so this is the one-sided scan of that side.
    Returns (degree, orbit-coordinate vector) of the one whose leading
    orbit is least, or (None, None) when the class set is empty.
    """
    level, kernels, _ = _multiplier_scan(n, (((1 << (n + 1)) - 1) ^ class_mask,))
    return level, kernels[0]


def all_zero_set_degrees(n: int) -> dict[int, tuple[int | None, int | None]]:
    """_zero_span_min_degree for every union of weight classes; keys are class bit masks."""
    _check_exact_n(n)
    return {mask: _zero_span_min_degree(n, mask) for mask in range(1 << (n + 1))}


@functools.lru_cache(maxsize=2)
def _weight_class_tables(n: int) -> tuple[int, ...]:
    """Truth table of each weight-class indicator [wt(x) = k], k = 0..n.

    Built on ints by W(m, k) = W(m - 1, k) | W(m - 1, k - 1) << 2^(m - 1):
    a point of m variables has weight k iff its low m - 1 bits have weight
    k and bit m - 1 is clear, or weight k - 1 and bit m - 1 is set.
    """
    tables = [1]
    for m in range(1, n + 1):
        half = 1 << (m - 1)
        tables = [tables[0], *(tables[k] | tables[k - 1] << half for k in range(1, m)), tables[m - 1] << half]
    return tuple(tables)


@functools.lru_cache(maxsize=2)
def _mask_interns(n: int) -> dict[int, int]:
    """Intern table of the monomial masks on n variables, filled lazily by _witness.

    Each mask maps to itself, so equal masks of different witnesses are one
    int object.  It starts empty: one witness adds only its own masks.  Two
    n are held, as by _orbits.
    """
    return {}


# The distinct witnesses of a census are 118 at n = 10, 221 at n = 11,
# 209 at n = 12, 435 at n = 13 and 485 at n = 14, so 512 entries hold a
# whole census working set.
@functools.lru_cache(maxsize=512)
def _witness(n: int, vec: int) -> tuple[int, tuple[int, ...]]:
    """Truth table and graded monomial masks of an orbit-coordinate vector, memoised per distinct vector.

    The masks are interned through _mask_interns(n), so the witnesses of a
    census share one int object per mask.
    """
    anf_bits = _orbits(n).expand(vec)
    masks = graded_masks(anf_bits, n)
    return subset_xor_transform(anf_bits, n), tuple(map(_mask_interns(n).setdefault, masks, masks))


def ai_symmetric(f: Sanfv) -> tuple[int, tuple[int, ...]]:
    """Exact AI with an annihilator witness (monomial masks, graded order).

    This is (ai, ai_witness) of profile(f): the witness annihilates whichever
    of f, f+1 attains the minimum (f is preferred on ties).
    """
    p = profile(f)
    return p.ai, p.ai_witness


def _verify_annihilator(f_tt: int, witness, degree: int) -> tuple[int, ...]:
    """Check a nonzero annihilator of f or f+1 of the given degree; return its monomial masks.

    witness is the (truth table, graded monomial masks) record of _witness.
    """
    tt, masks = witness
    if masks == ():
        raise InvariantViolation("AI witness is the zero function")
    common = tt & f_tt
    if common and common != tt:  # neither g*f = 0 nor g*(f+1) = 0
        raise InvariantViolation("AI witness annihilates neither side")
    if masks[-1].bit_count() != degree:
        raise InvariantViolation(f"AI witness degree differs from the reported AI {degree}")
    return masks


def fai_given_ai(n: int, scan, side: int, f_tt: int):
    """FAI from the pair scan that gave the AI; returns (fai, witness_pair_or_None).

    f is side `side` of the scan and f_tt its 2^n-point truth table.  The
    pairs are the f-side columns of the scan below the AI: a new pivot at
    coordinate degree dd, reached by a column of degree e, witnesses the
    pair value e + dd.  witness is a pair (g monomial masks, h monomial
    masks) with h = g*f attaining the minimum, so it is present exactly
    when the FAI is below the 2*AI cap; None when only the cap attains it.
    """
    ai_value, _, columns = scan
    if ai_value <= 1:
        return 2 * ai_value, None
    degree = _orbits(n).degree
    best = 2 * ai_value
    best_pair = None
    # rank 0 is the constant column: its solution g = 1 is excluded
    for rank, (pivot, vec, comb) in enumerate(itertools.islice(columns[side], 1, None), start=1):
        level = degree[rank]
        value = level + degree[pivot]
        if value < best:
            best = value
            best_pair = (comb, vec)
        if best <= level + 1:
            break  # every later pair is worth at least level + 1
    if best_pair is None:
        return best, None
    g, h = (_witness(n, vec) for vec in best_pair)
    return best, _verify_pair(f_tt, g, h, best)


def _verify_pair(f_tt: int, g, h, value: int):
    """Check h = g*f with g nonconstant, h nonzero and deg g + deg h = value; return both monomial lists.

    g and h are (truth table, graded monomial masks) records of _witness.
    """
    (g_tt, g_masks), (h_tt, h_masks) = g, h
    if g_masks in ((), (0,)) or h_masks == ():
        raise InvariantViolation("FAI witness pair has a constant g or a zero h")
    if h_tt != g_tt & f_tt:
        raise InvariantViolation("FAI witness pair fails h = g*f")
    if g_masks[-1].bit_count() + h_masks[-1].bit_count() != value:
        raise InvariantViolation("FAI witness pair does not attain the reported value")
    return g_masks, h_masks


def profile(f: Sanfv) -> ImmunityProfile:
    """Full immunity profile of a symmetric function.

    The one solve path, behind analyze, the census and ai_symmetric: one
    lookup of the pair scan, from which the AI witness is verified and then
    the FAI pairs are read.  The witness is f's first dependency, or f+1's
    when f has none at the AI.  f's value bits come straight from its
    SANFV bits (no WeightValueVector), and its truth table is built once
    from them; both witnesses are checked against it.
    """
    _check_exact_n(f.n)
    values = _transform_bits(f.bits, f.n)
    tables = _weight_class_tables(f.n)
    f_tt = 0
    for k in iter_bits(values):
        f_tt |= tables[k]
    scan, side = _pair_scan(f.n, values)
    ai_value, kernels, _ = scan
    kernel = kernels[side] if kernels[side] is not None else kernels[1 - side]
    ai_witness = _verify_annihilator(f_tt, _witness(f.n, kernel), ai_value)
    return ImmunityProfile(f, ai_value, ai_witness, *fai_given_ai(f.n, scan, side, f_tt))


def is_aar(f: Sanfv) -> bool:
    """True iff f has maximum AI and its FAI reaches the n ceiling.

    Under this definition sigma_4 at n = 6 is AAR: it has AI 3 = (n + 1) // 2
    and FAI 6 = n.  PAPER.md holds no theorem text, so it does not settle
    whether the paper's claim that no symmetric function is AAR covers n = 6.
    """
    p = profile(f)
    return p.ai == (f.n + 1) // 2 and p.fai >= f.n
