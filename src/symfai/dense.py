"""Brute-force oracle on dense truth tables for small variable counts.

This module is the ground truth the symmetric fast paths are checked
against: truth tables, the ANF transform, products, minimum-degree
annihilators and minimum-degree low-degree multiples, all computed by plain
GF(2) linear algebra over every point of the cube.  Truth tables and ANF
coefficient vectors are ints (bit x = value at point x; the bits of x are
the variable values, variable i = bit i).

Both searches eliminate with gf2.BitBasis.  The immunity engine eliminates
in its own loop inside immunity._multiplier_scan and names no BitBasis,
and this module imports nothing of the engine, so a fault in one
elimination cannot hide in the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InvariantViolation
from .gf2 import (
    BitBasis,
    bit_array_to_int,
    graded_masks,
    int_to_bit_array,
    iter_bits,
    subset_xor_transform,
)
from .sanfv import Sanfv, WeightValueVector, to_values

MAX_DENSE_N = 14


def _check_dense_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"variable count must be a positive integer, got {n!r}")
    if n > MAX_DENSE_N:
        raise CapabilityError(f"dense oracle supports n <= {MAX_DENSE_N}, got {n}")


@dataclass(frozen=True)
class DenseBooleanFunction:
    """Truth table of an arbitrary (not necessarily symmetric) function."""

    n: int
    bits: int

    def __post_init__(self):
        _check_dense_n(self.n)
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError(f"truth table needs exactly {1 << self.n} bits")

    def evaluate(self, x: int) -> int:
        return (self.bits >> x) & 1

    def complement(self) -> "DenseBooleanFunction":
        return DenseBooleanFunction(self.n, self.bits ^ ((1 << (1 << self.n)) - 1))


@dataclass(frozen=True)
class DenseAnf:
    """ANF coefficients: bit c is the coefficient of the monomial with variable set c."""

    n: int
    bits: int

    def __post_init__(self):
        _check_dense_n(self.n)
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError(f"ANF needs exactly {1 << self.n} coefficient bits")

    def degree(self) -> int | None:
        """Max weight of a monomial with nonzero coefficient; None if zero."""
        if self.bits == 0:
            return None
        return int(np.bitwise_count(np.flatnonzero(int_to_bit_array(self.bits, 1 << self.n))).max())

    def monomials(self) -> tuple[int, ...]:
        """Monomial masks in graded order (degree, then mask value)."""
        return graded_masks(self.bits, self.n)

    def is_zero(self) -> bool:
        return self.bits == 0


def moebius(f: DenseBooleanFunction) -> DenseAnf:
    """ANF of a truth table; the transform is an involution."""
    return DenseAnf(f.n, subset_xor_transform(f.bits, f.n))


def anf_to_table(a: DenseAnf) -> DenseBooleanFunction:
    return DenseBooleanFunction(a.n, subset_xor_transform(a.bits, a.n))


def dense_mul(f: DenseBooleanFunction, g: DenseBooleanFunction) -> DenseBooleanFunction:
    if f.n != g.n:
        raise ValueError(f"variable counts differ: {f.n} vs {g.n}")
    return DenseBooleanFunction(f.n, f.bits & g.bits)


def dense_degree(f: DenseBooleanFunction) -> int | None:
    return moebius(f).degree()


# ---------------------------------------------------------------------------
# bridges from the symmetric representation
# ---------------------------------------------------------------------------


# _popcounts, _weight_class_tables, _rank_tables and _monomial_tables keep
# the two most recently used n, so a process that runs the oracle over
# several n does not hold every n's tables.


@functools.lru_cache(maxsize=2)
def _popcounts(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32))


@functools.lru_cache(maxsize=2)
def _weight_class_tables(n: int) -> tuple[int, ...]:
    """Truth table of each weight-class indicator [wt(x) = k], k = 0..n."""
    pc = _popcounts(n)
    return tuple(bit_array_to_int(pc == k) for k in range(n + 1))


def dense_from_values(v: WeightValueVector) -> DenseBooleanFunction:
    """Truth table of the symmetric function with the given value vector.

    The weight classes are disjoint, so the table is the XOR of the
    indicators of v's support classes.  This is the oracle's bridge from a
    value vector to its dense function; the immunity engine builds its own
    truth tables and does not call it.
    """
    _check_dense_n(v.n)
    tables = _weight_class_tables(v.n)
    bits = 0
    for k in iter_bits(v.bits):
        bits ^= tables[k]
    return DenseBooleanFunction(v.n, bits)


def dense_from_sanfv(f: Sanfv) -> DenseBooleanFunction:
    return dense_from_values(to_values(f))


# ---------------------------------------------------------------------------
# graded monomial tables
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def _rank_tables(n: int):
    """Graded-lex order of all monomial masks plus degree bookkeeping.

    Returns (masks_by_rank, monomials_tuple, prefix) where prefix[d] counts
    the monomials of degree <= d; coordinates permuted by this order put
    high degrees at high bit positions.
    """
    _check_dense_n(n)
    masks = np.arange(1 << n, dtype=np.int64)
    pc = _popcounts(n)
    order = np.lexsort((masks, pc))
    masks_by_rank = masks[order]
    prefix = np.cumsum(np.bincount(pc, minlength=n + 1))
    return masks_by_rank, tuple(int(m) for m in masks_by_rank), prefix


def monomials_graded(n: int) -> tuple[int, ...]:
    """All monomial masks on n variables sorted by (degree, mask)."""
    return _rank_tables(n)[1]


def permuted_anf_int(n: int, anf_bits: int) -> int:
    """Repack ANF coefficients into graded coordinate order (rank r = bit r)."""
    arr = int_to_bit_array(anf_bits, 1 << n)
    return bit_array_to_int(arr[_rank_tables(n)[0]])


def permuted_rank_to_anf_bits(n: int, ranked: int) -> int:
    """Inverse of permuted_anf_int: graded coordinates back to ANF coefficient bits."""
    masks = _rank_tables(n)[1]
    bits = 0
    for r in iter_bits(ranked):
        bits |= 1 << masks[r]
    return bits


class _MonomialTables:
    """Per-n cache of monomial truth tables, built lazily."""

    def __init__(self, n: int):
        self.n = n
        self._xs = np.arange(1 << n, dtype=np.int64)
        self._tt: dict[int, int] = {}

    def truth_table(self, mask: int) -> int:
        tt = self._tt.get(mask)
        if tt is None:
            tt = bit_array_to_int((self._xs & mask) == mask)
            self._tt[mask] = tt
        return tt


@functools.lru_cache(maxsize=2)
def _monomial_tables(n: int) -> _MonomialTables:
    return _MonomialTables(n)


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def _annihilator_search(
    sides: tuple[DenseBooleanFunction, ...]
) -> tuple[int | None, DenseAnf | None]:
    """Least degree of a nonzero g with g*side = 0 for one of the sides, with a witness.

    Works column by column: monomials in graded order are restricted to the
    support of each side and inserted into that side's own gf2.BitBasis.
    Each side inserts one column per monomial, so insertion indices are
    graded ranks and a combination names monomials.  The first dependent
    column yields the witness as its combination, checked before it is
    returned.  (None, None) when no side has an annihilator.
    """
    n = sides[0].n
    tables = _monomial_tables(n)
    bases = [BitBasis() for _ in sides]
    for mask in monomials_graded(n):
        tt = tables.truth_table(mask)
        for side, basis in zip(sides, bases):
            pivot, _, comb = basis.insert(tt & side.bits)
            if pivot is None:
                witness = DenseAnf(n, permuted_rank_to_anf_bits(n, comb))
                d = mask.bit_count()
                _check_annihilator(side, witness, d)
                return d, witness
    return None, None


def _check_annihilator(f: DenseBooleanFunction, g: DenseAnf, d: int) -> None:
    if g.is_zero():
        raise InvariantViolation(f"zero annihilator witness for tt={f.bits:#x}")
    if anf_to_table(g).bits & f.bits:
        raise InvariantViolation(f"claimed annihilator does not vanish on supp(f), tt={f.bits:#x}")
    if g.degree() != d:
        raise InvariantViolation(f"annihilator witness degree {g.degree()} != reported {d}")


def min_annihilator_degree(f: DenseBooleanFunction) -> tuple[int | None, DenseAnf | None]:
    """Least degree of a nonzero g with g*f = 0, with a witness.

    For f = 0 this returns (0, 1).  The all-ones function has no
    annihilator at all, which is reported as (None, None).
    """
    return _annihilator_search((f,))


def ai(f: DenseBooleanFunction) -> int:
    """Algebraic immunity: least degree annihilating f or its complement.

    Both sides are grown monomial by monomial, so the search stops at the
    first dependency on either side; its witness is checked.
    """
    d, _ = _annihilator_search((f, f.complement()))
    if d is None:
        raise InvariantViolation(f"no annihilator found on either side for tt={f.bits:#x}")
    return d


# ---------------------------------------------------------------------------
# low-degree multiples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierSearch:
    """Result of the minimum-degree multiple search for one degree cap e.

    ``d`` is the least degree of a nonzero product g*f over nonconstant g
    with deg(g) <= e, with witnesses g and h = g*f, where h has the least
    leading monomial (graded order) of all such products.  When some
    nonconstant g of degree <= e annihilates f outright, one such g is
    reported in ``annihilator`` (a vanishing product satisfies any degree
    bound, so the combined minimum is then 0).  ``d`` is None only when no
    nonconstant g yields a nonzero product at all, which happens just for
    f = 0.
    """

    e: int
    d: int | None
    g: DenseAnf
    h: DenseAnf
    annihilator: DenseAnf | None

    @property
    def combined_minimum(self) -> int:
        return 0 if self.annihilator is not None else self.d


def _ranked_product_columns(f: DenseBooleanFunction, e: int) -> list[int]:
    """For each monomial m of degree <= e, the ANF of m*f in graded coordinates."""
    n = f.n
    tables = _monomial_tables(n)
    _, monomials, prefix = _rank_tables(n)
    cols = []
    for mask in monomials[: prefix[e]]:
        anf_bits = subset_xor_transform(tables.truth_table(mask) & f.bits, n)
        cols.append(permuted_anf_int(n, anf_bits))
    return cols


def min_multiplier_degree(f: DenseBooleanFunction, e: int) -> MultiplierSearch:
    """Minimum product degree over nonconstant g with deg(g) <= e.

    One elimination: the product columns m*f (monomials m of degree <= e,
    graded order) go into one gf2.BitBasis, whose pivots are highest bits
    and whose insertion indices are graded ranks.  A nonzero combination of
    its rows leads with its highest involved pivot, so the g with deg(g*f)
    <= d are the combinations of the rows pivoted below degree d plus the
    kernel, which holds the annihilators.  Every row but the constant
    column's has a nonconstant combination; that row (g = 1, h = f) counts
    only when an annihilator k exists, and is then reported as g = 1 + k.
    ``d`` is the degree of the least eligible pivot and h = g*f is that row,
    so h has the least leading monomial of all nonzero products with
    nonconstant g; the annihilator is the first dependent column's
    combination, of the degree of its leading column.  Both witnesses are
    re-verified on truth tables before returning.
    """
    n = f.n
    if not 1 <= e < n:
        raise ValueError(f"multiplier degree cap must satisfy 1 <= e < {n}, got {e}")

    if f.bits == 0:
        x0 = DenseAnf(n, 1 << 1)  # coefficient mask 1, the monomial x_0
        return MultiplierSearch(e, None, x0, DenseAnf(n, 0), x0)

    basis = BitBasis()
    rows = []  # (pivot, product, combination) of each adopted column
    kernel = None
    for col in _ranked_product_columns(f, e):
        pivot, row, comb = basis.insert(col)
        if pivot is not None:
            rows.append((pivot, row, comb))
        elif kernel is None:
            kernel = comb

    eligible = [r for r in rows if r[2] != 1 or kernel is not None]
    if not eligible:
        raise InvariantViolation(f"no nonvanishing multiple exists for tt={f.bits:#x}")
    pivot, row, comb = min(eligible)
    d = monomials_graded(n)[pivot].bit_count()
    if comb == 1:
        comb ^= kernel
    g = DenseAnf(n, permuted_rank_to_anf_bits(n, comb))
    h = DenseAnf(n, permuted_rank_to_anf_bits(n, row))
    _check_multiple(f, g, h, d)

    annihilator = None
    if kernel is not None:
        annihilator = DenseAnf(n, permuted_rank_to_anf_bits(n, kernel))
        _check_annihilator(f, annihilator, monomials_graded(n)[kernel.bit_length() - 1].bit_count())
    result = MultiplierSearch(e, d, g, h, annihilator)
    if result.combined_minimum > n - e:
        raise InvariantViolation(
            f"existence bound violated: min degree {result.combined_minimum} > n - e = {n - e} for tt={f.bits:#x}"
        )
    return result


def _check_multiple(f: DenseBooleanFunction, g: DenseAnf, h: DenseAnf, d: int) -> None:
    if g.bits in (0, 1):
        raise InvariantViolation("multiplier witness must be nonconstant")
    if anf_to_table(g).bits & f.bits != anf_to_table(h).bits:
        raise InvariantViolation("witness pair does not satisfy h = g*f")
    if h.degree() != d:
        raise InvariantViolation(f"product degree {h.degree()} != claimed {d}")
