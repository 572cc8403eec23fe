"""Symmetric Boolean functions as simplified ANF vectors.

An n-variable symmetric Boolean function f is determined by two length-(n+1)
bit vectors:

* its value vector v, where v[k] is the output on any input of Hamming
  weight k, and
* its simplified ANF vector (SANFV) lambda, where f = sum_i lambda[i]*sigma_i
  over GF(2) and sigma_i is the i-th elementary symmetric function.

The two are exchanged by the subset-sum transform v[k] = XOR of lambda[i]
over bit-submasks i of k, which is an involution because the index set
{0..n} is closed downward under the submask order.

Products follow the OR rule sigma_i * sigma_j = sigma_{i|j}, with sigma_k
truncated to 0 for k > n; the truncated product is still the genuine
pointwise product of the two functions.  All values here are immutable and
all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import iter_bits, parity_binomial, subset_xor_transform

MAX_VARIABLES = 1 << 16


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"variable count must be a positive integer, got {n!r}")
    if n > MAX_VARIABLES:
        raise ValueError(f"variable count {n} exceeds the supported limit {MAX_VARIABLES}")


def _in_window(n: int) -> bool:
    """Whether 2^m <= n < 2^m + 2^(m-1) - 1 for m = floor(log2 n); empty for m < 2.

    The window of n slightly above a power of two, where attacks builds its
    dichotomy certificate and bounds checks the FAI upper bound.
    """
    m = n.bit_length() - 1
    return m >= 2 and n < (1 << m) + (1 << (m - 1)) - 1


@dataclass(frozen=True)
class Sanfv:
    """A symmetric function as its SANFV: bit i is the coefficient of sigma_i."""

    n: int
    bits: int

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.bits < (1 << (self.n + 1)):
            raise ValueError(f"SANFV needs exactly {self.n + 1} coefficient bits")

    @classmethod
    def from_string(cls, n: int, text: str) -> "Sanfv":
        """Parse the text form: n+1 characters of '0'/'1', lambda(0) leftmost."""
        _check_n(n)
        if len(text) != n + 1 or set(text) - {"0", "1"}:
            raise ValueError(f"SANFV string must be {n + 1} chars of 0/1, got {text!r}")
        return cls(n, int(text[::-1], 2))

    @classmethod
    def from_indices(cls, n: int, indices) -> "Sanfv":
        bits = 0
        for i in indices:
            if not 0 <= i <= n:
                raise ValueError(f"sigma index {i} out of range 0..{n}")
            bits ^= 1 << i
        return cls(n, bits)

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n + 1}b")[::-1]

    def coefficient(self, i: int) -> int:
        if not 0 <= i <= self.n:
            raise ValueError(f"sigma index {i} out of range 0..{self.n}")
        return (self.bits >> i) & 1

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def is_zero(self) -> bool:
        return self.bits == 0

    def degree(self) -> int | None:
        """Largest i with lambda(i) = 1, or None for the zero function."""
        return None if self.bits == 0 else self.bits.bit_length() - 1

    def __add__(self, other: "Sanfv") -> "Sanfv":
        return add(self, other)

    def __mul__(self, other: "Sanfv") -> "Sanfv":
        return mul(self, other)

    def __repr__(self):
        return f"Sanfv({self.n}, '{self.to_string()}')"


@dataclass(frozen=True)
class WeightValueVector:
    """A symmetric function as its value vector: bit k is the value at weight k."""

    n: int
    bits: int

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.bits < (1 << (self.n + 1)):
            raise ValueError(f"value vector needs exactly {self.n + 1} bits")

    @classmethod
    def from_string(cls, n: int, text: str) -> "WeightValueVector":
        """Parse the text form, with or without the leading 'v:' prefix."""
        _check_n(n)
        if text.startswith("v:"):
            text = text[2:]
        if len(text) != n + 1 or set(text) - {"0", "1"}:
            raise ValueError(f"value string must be {n + 1} chars of 0/1, got {text!r}")
        return cls(n, int(text[::-1], 2))

    def to_string(self) -> str:
        return "v:" + format(self.bits, f"0{self.n + 1}b")[::-1]

    def value_at(self, weight: int) -> int:
        if not 0 <= weight <= self.n:
            raise ValueError(f"weight {weight} out of range 0..{self.n}")
        return (self.bits >> weight) & 1

    def __repr__(self):
        return f"WeightValueVector({self.n}, '{self.to_string()}')"


@dataclass(frozen=True)
class DecomposedForm:
    """ANF of the (m+1)-variable function F with f = F(sigma_1, sigma_2, ..., sigma_{2^m}).

    Bit j is the coefficient of the monomial y_1^{j_0} ... y_{m+1}^{j_m} where
    j = sum j_k 2^k, so variable y_{k+1} stands for sigma_{2^k}.
    """

    m: int
    bits: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if not 0 <= self.bits < (1 << (1 << (self.m + 1))):
            raise ValueError(f"ANF needs exactly {1 << (self.m + 1)} coefficient bits")

    def coefficient(self, j: int) -> int:
        return (self.bits >> j) & 1


@dataclass(frozen=True)
class SplitForm:
    """f written as sum over i of sigma_{2^i} * part[i] plus a low-degree residue.

    parts maps i (k <= i <= m) to a symmetric function of degree <= 2^i - 1;
    the residue has degree <= 2^k - 1.
    """

    k: int
    parts: tuple[tuple[int, Sanfv], ...]
    residue: Sanfv

    def part(self, i: int) -> Sanfv:
        for idx, p in self.parts:
            if idx == i:
                return p
        raise KeyError(i)

    def recombine(self) -> Sanfv:
        total = self.residue
        for i, part in self.parts:
            total = add(total, mul(sigma(self.residue.n, 1 << i), part))
        return total


def sigma(n: int, i: int) -> Sanfv:
    """The i-th elementary symmetric function on n variables (sigma_0 = 1)."""
    _check_n(n)
    if not 0 <= i <= n:
        raise ValueError(f"sigma index {i} out of range 0..{n}")
    return Sanfv(n, 1 << i)


def zero(n: int) -> Sanfv:
    return Sanfv(n, 0)


def one(n: int) -> Sanfv:
    return Sanfv(n, 1)


def _transform_bits(bits: int, n: int) -> int:
    # 2^log_size >= n+1; padding with zeros is harmless and truncation is
    # exact because {0..n} is a lower set of the submask order.
    log_size = n.bit_length()
    out = subset_xor_transform(bits, log_size)
    return out & ((1 << (n + 1)) - 1)


def to_values(f: Sanfv) -> WeightValueVector:
    """Value vector of f: v(k) = XOR over submasks i of k of lambda(i)."""
    return WeightValueVector(f.n, _transform_bits(f.bits, f.n))


def to_sanfv(v: WeightValueVector) -> Sanfv:
    """Inverse of to_values (the transform is its own inverse)."""
    return Sanfv(v.n, _transform_bits(v.bits, v.n))


def add(f: Sanfv, g: Sanfv) -> Sanfv:
    """Pointwise sum over GF(2): XOR of SANFVs."""
    if f.n != g.n:
        raise ValueError(f"variable counts differ: {f.n} vs {g.n}")
    return Sanfv(f.n, f.bits ^ g.bits)


def mul(f: Sanfv, g: Sanfv) -> Sanfv:
    """Pointwise product, the OR-convolution of SANFVs.

    sigma_i * sigma_j = sigma_{i|j}, truncated by sigma_k = 0 for k > n.
    With that truncation the result is exactly the pointwise product, so it
    is computed as the AND of the value vectors, and mul(f, f) = f.
    """
    if f.n != g.n:
        raise ValueError(f"variable counts differ: {f.n} vs {g.n}")
    return to_sanfv(WeightValueVector(f.n, to_values(f).bits & to_values(g).bits))


def sigma_product_binomial(i: int, j: int, n: int) -> Sanfv:
    """Expand sigma_i * sigma_j on n variables from binomial parities.

    The coefficient of sigma_k is C(k, i) * C(i, k - j) mod 2 for
    j <= k <= min(i + j, n).  This is a second, independent route to the
    product, kept for cross-validation against mul.
    """
    _check_n(n)
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"sigma indices ({i}, {j}) out of range 0..{n}")
    bits = 0
    for k in range(j, min(i + j, n) + 1):
        if parity_binomial(k, i) and parity_binomial(i, k - j):
            bits ^= 1 << k
    return Sanfv(n, bits)


def decompose(f: Sanfv) -> DecomposedForm:
    """Write f as F(sigma_1, sigma_2, sigma_4, ..., sigma_{2^m}), m = floor(log2 n).

    Since sigma_j is the product of the sigma_{2^k} over the set bits of j,
    the ANF coefficient of F at index j is simply lambda(j).
    """
    m = f.n.bit_length() - 1
    return DecomposedForm(m, f.bits)


def compose(d: DecomposedForm, n: int) -> Sanfv:
    """Evaluate a decomposed form back into SB_n; inverse of decompose.

    Every ANF coefficient at index j > n must be zero, because sigma_j does
    not exist on n variables.
    """
    _check_n(n)
    if n.bit_length() - 1 != d.m:
        raise ValueError(f"decomposed form has m={d.m}, but floor(log2 {n}) = {n.bit_length() - 1}")
    if d.bits >> (n + 1):
        bad = (d.bits >> (n + 1)).bit_length() - 1 + (n + 1)
        raise ValueError(f"coefficient at index {bad} set, but sigma_{bad} does not exist on n={n}")
    return Sanfv(n, d.bits)


def split(f: Sanfv, k: int) -> SplitForm:
    """Peel f into sigma_{2^i}-multiples: f = sum_{i=k}^{m} sigma_{2^i} f_i + residue.

    Each lambda(j) sigma_j with j >= 2^k lands in f_i for i = floor(log2 j),
    at index j - 2^i (valid since sigma_j = sigma_{2^i} sigma_{j - 2^i});
    smaller j go to the residue.  deg(f_i) <= 2^i - 1 and the residue has
    degree <= 2^k - 1.
    """
    m = f.n.bit_length() - 1
    if not 1 <= k <= m:
        raise ValueError(f"split level {k} out of range 1..{m}")
    # f_i is the block [2^i, 2^(i+1)) of lambda shifted down; the residue is the block below 2^k
    parts = tuple(
        (i, Sanfv(f.n, f.bits >> (1 << i) & ((1 << (1 << i)) - 1))) for i in range(k, m + 1)
    )
    return SplitForm(k, parts, Sanfv(f.n, f.bits & ((1 << (1 << k)) - 1)))


def evaluate(f: Sanfv, x) -> int:
    """Evaluate f at a point, given as an iterable of n bits."""
    x = list(x)
    if len(x) != f.n:
        raise ValueError(f"point has {len(x)} coordinates, expected {f.n}")
    weight = sum(1 for b in x if b)
    return to_values(f).value_at(weight)


def threshold(n: int, k: int) -> Sanfv:
    """The symmetric function valued 1 exactly on inputs of weight >= k."""
    _check_n(n)
    if not 0 <= k <= n + 1:
        raise ValueError(f"threshold {k} out of range 0..{n + 1}")
    value_bits = ((1 << (n + 1)) - 1) >> k << k
    return to_sanfv(WeightValueVector(n, value_bits))


def majority(n: int) -> Sanfv:
    """The majority function for odd n: value 1 iff the input weight exceeds n/2.

    Even n is rejected; ties have no canonical resolution there, and the
    even-weight thresholds are available through threshold().
    """
    _check_n(n)
    if n % 2 == 0:
        raise ValueError("majority is only defined here for odd n; use threshold() for even n")
    return threshold(n, (n + 1) // 2)


def parse_function(n: int, text: str) -> Sanfv:
    """Parse a function spec: SANFV bits, 'v:'-prefixed value bits, or a named form.

    Named forms: 'sigma:i' and 'majority'.
    """
    if text == "majority":
        return majority(n)
    if text.startswith("sigma:"):
        index = text.split(":", 1)[1]
        try:
            i = int(index)
        except ValueError:
            raise ValueError(f"sigma index must be an integer, got {index!r}") from None
        return sigma(n, i)
    if text.startswith("v:"):
        return to_sanfv(WeightValueVector.from_string(n, text))
    return Sanfv.from_string(n, text)
