"""Constructive low-degree multiplier certificates and degree/immunity bounds.

Each certificate is an explicit pair (g, h) with h = g*f, a small deg(g) and
a controlled deg(h); such a pair is the preprocessing output of a fast
algebraic attack against a filter function f.  Three constructions are
implemented, read off directly from the SANFV of f:

* an affine multiplier for any odd-degree f, dropping the product degree by
  at least 2 (source tag "thm3");
* one multiplier of degree e = deg(f) mod 2^k for every usable k when
  deg(f) is not a power of 2, with deg(h) <= deg(f) - e - 1 (tag "thm4");
* for n slightly above a power of two, either a witness that AI(f) is small
  or a multiplier sigma_e whose product has exact known degree (tags
  "thm5-annihilator" / "thm5-multiplier").

Certificates verify themselves on construction: the product is recomputed
with the SANFV ring arithmetic and the promised degree bound is checked.
The degree/AI/FAI bound checks and the bound tables live in bounds, which
this module does not import: attack and stat never check bounds, so their
launches do not compile it.  attacks.bound_suite remains only because the
benchmark's tracer (perfbench/tracer.py) wraps it under this name; it
imports bounds when it is called.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import InvariantViolation
from .sanfv import Sanfv, _check_n, _in_window, add, mul, one, sigma, split

if TYPE_CHECKING:
    from fractions import Fraction

    from .bounds import BoundReport
    from .immunity import ImmunityProfile

SOURCE_AFFINE = "thm3"
SOURCE_RESIDUE = "thm4"
SOURCE_WINDOW_ANNIHILATOR = "thm5-annihilator"
SOURCE_WINDOW_MULTIPLIER = "thm5-multiplier"


@dataclass(frozen=True)
class AttackCertificate:
    """A self-verified multiplier pair h = g*f with its construction metadata."""

    source: str
    f: Sanfv
    g: Sanfv
    h: Sanfv
    params: MappingProxyType
    pair_bound: int = field(compare=False)

    def __post_init__(self):
        if mul(self.g, self.f) != self.h:
            raise InvariantViolation(f"certificate fails h = g*f for f={self.f.to_string()}")
        if not self.vanishing and self.deg_g + self.deg_h > self.pair_bound:
            raise InvariantViolation(
                f"certificate exceeds its promised bound {self.pair_bound} "
                f"for f={self.f.to_string()}"
            )

    @property
    def vanishing(self) -> bool:
        return self.h.is_zero()

    @property
    def deg_g(self) -> int:
        return self.g.degree()

    @property
    def deg_h(self) -> int | None:
        return self.h.degree()

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "n": self.f.n,
            "g": self.g.to_string(),
            "h": self.h.to_string(),
            "deg_g": self.deg_g,
            "deg_h": self.deg_h,
            "params": dict(self.params),
            "vanishing": self.vanishing,
        }


def bound_suite(profile: ImmunityProfile) -> BoundReport:
    """bounds.bound_suite, with bounds imported on the first call (see the module docstring)."""
    from . import bounds

    return bounds.bound_suite(profile)


def _certificate(source, f, g, h, params, pair_bound) -> AttackCertificate:
    return AttackCertificate(source, f, g, h, MappingProxyType(dict(params)), pair_bound)


def affine_multiplier(f: Sanfv) -> AttackCertificate:
    """Affine g with deg(g*f) <= deg(f) - 2, for odd-degree f.

    With deg(f) = 2t+1, the multiplier is g = sigma_1 + lambda(2t) + 1.  If
    the product is nonzero its degree is exactly 2s+1, where s is the
    largest index below t with lambda(2s) = 1 (when lambda(2t) = 0) or with
    lambda(2s) != lambda(2s+1) (when lambda(2t) = 1); otherwise g is an
    affine annihilator of f and the certificate is flagged as vanishing.
    """
    d = f.degree()
    if d is None or d % 2 == 0:
        raise ValueError(f"affine multiplier needs odd degree, got deg={d}")
    t = (d - 1) // 2
    top_even = f.coefficient(2 * t)
    g = Sanfv(f.n, 0b10 | (top_even ^ 1))
    h = mul(g, f)
    # bit 2s of candidates holds the law's condition for s; the mask keeps bits 0, 2, ..., 2t - 2
    candidates = (f.bits ^ f.bits >> 1 if top_even else f.bits) & ((1 << 2 * t) - 1) // 3
    expected = candidates.bit_length() or None
    if h.degree() != expected:
        raise InvariantViolation(
            f"affine multiplier degree law failed for f={f.to_string()}: "
            f"got {h.degree()}, expected {expected}"
        )
    return _certificate(SOURCE_AFFINE, f, g, h, {"t": t}, pair_bound=max(d - 1, 0))


def residue_multipliers(f: Sanfv) -> list[AttackCertificate]:
    """All residue multipliers: one per distinct e = deg(f) mod 2^k.

    Valid k have 2^k <= deg(f) and 2^k not dividing deg(f); distinct k can
    produce the same residue e and hence the same g, so certificates are
    emitted once per e, giving wt(deg f) - 1 of them.  e grows with k, so
    they come in ascending e (smallest e first, the strongest attack).  The
    list is empty when deg(f) <= 1 or deg(f) is a power of 2.
    """
    d = f.degree()
    if d is None or d < 2 or d & (d - 1) == 0:
        return []
    certificates = []
    lowest = (d & -d).bit_length() - 1
    for k in range(lowest + 1, d.bit_length()):
        if not (d >> k) & 1:
            continue  # a clear bit k gives the same residue as k + 1
        e = d & ((1 << k) - 1)
        # g = sigma_e + 1 + the block [d - e, d) of lambda shifted down to 0
        g = Sanfv(f.n, (f.bits >> (d - e) & ((1 << e) - 1)) ^ (1 << e) ^ 1)
        h = mul(g, f)
        hd = h.degree()
        if hd is not None and hd > d - e - 1:
            raise InvariantViolation(
                f"residue multiplier bound failed for f={f.to_string()}, k={k}"
            )
        certificates.append(
            _certificate(SOURCE_RESIDUE, f, g, h, {"e": e, "t": d >> k, "k": k}, d - 1)
        )
    if len(certificates) != d.bit_count() - 1:
        raise InvariantViolation(f"residue multiplier count is off for deg={d}")
    return certificates


def _window_params(n: int, e: int | None) -> tuple[int, int]:
    m = n.bit_length() - 1
    if not _in_window(n):
        raise ValueError(
            f"n={n} is outside the window 2^m <= n < 2^m + 2^(m-1) - 1 with m >= 2"
        )
    if e is None:
        e = n - (1 << m) + 1
    elif not n - (1 << m) < e < (1 << (m - 1)):
        raise ValueError(f"override e={e} outside the admissible range for n={n}")
    return m, e


def near_power_certificate(f: Sanfv, e: int | None = None) -> AttackCertificate:
    """Dichotomy certificate for n slightly above 2^m.

    Splitting f below 2^(m-1) gives f = sigma_{2^m} f_m + sigma_{2^(m-1)}
    f_{m-1} + r.  With g0 = sigma_e (f_{m-1} + 1): either g0 != 0, and then
    (g0, g0*f) both have degree <= 2^(m-1) - 1, which forces an annihilator
    of f or f+1 of that degree; or g0 = 0 and sigma_e * f = sigma_{2^(m-1)+e}
    + sigma_e r has degree exactly 2^(m-1) + e.  The default e is the least
    admissible one, n - 2^m + 1; larger e below 2^(m-1) may be forced.
    """
    n = f.n
    m, e = _window_params(n, e)
    half = 1 << (m - 1)
    parts = split(f, m - 1)
    low_part = parts.part(m - 1)
    g0 = mul(sigma(n, e), add(low_part, one(n)))
    if not g0.is_zero():
        h = mul(g0, f)
        if h != mul(g0, parts.residue):
            raise InvariantViolation(f"window algebra failed for f={f.to_string()}")
        for value in (g0.degree(), h.degree()):
            if value is not None and value > half - 1:
                raise InvariantViolation(
                    f"window annihilator degree exceeds {half - 1} for f={f.to_string()}"
                )
        _check_window_annihilator(f, g0, h)
        return _certificate(
            SOURCE_WINDOW_ANNIHILATOR, f, g0, h, {"e": e, "m": m}, 2 * half - 2
        )
    g = sigma(n, e)
    h = mul(g, f)
    if h != add(sigma(n, half + e), mul(g, parts.residue)) or h.degree() != half + e:
        raise InvariantViolation(f"window multiplier law failed for f={f.to_string()}")
    return _certificate(SOURCE_WINDOW_MULTIPLIER, f, g, h, {"e": e, "m": m}, half + 2 * e)


def _check_window_annihilator(f: Sanfv, g: Sanfv, h: Sanfv) -> None:
    # From g*f = h it follows that (g + h) kills f, or g kills f + 1 when g = h.
    annihilator = add(g, h) if g != h else g
    target = f if g != h else add(f, one(f.n))
    if annihilator.is_zero() or not mul(annihilator, target).is_zero():
        raise InvariantViolation(
            f"derived annihilator check failed for f={f.to_string()}"
        )


def all_certificates(f: Sanfv) -> list[AttackCertificate]:
    """Every applicable certificate for f, affine first, then by residue, then window."""
    out = []
    d = f.degree()
    if d is not None and d % 2 == 1:
        out.append(affine_multiplier(f))
    out.extend(residue_multipliers(f))
    if _in_window(f.n):
        out.append(near_power_certificate(f))
    return out


# ---------------------------------------------------------------------------
# expected product-degree drop of the affine multiplier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapStatistic:
    """Result of product_degree_gap_statistic: the exact mean gap over the samples.

    mean_gap is a fractions.Fraction.  The fractions module is imported only
    inside product_degree_gap_statistic (the annotation names it for type
    checkers alone), so a launch that never runs ``stat`` does not load it.
    """

    n: int
    samples: int
    seed: int
    mean_gap: Fraction
    vanished: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "mean_gap": f"{self.mean_gap.numerator}/{self.mean_gap.denominator}",
            "mean_gap_float": float(self.mean_gap),
            "vanished": self.vanished,
        }


def product_degree_gap_statistic(n: int, samples: int, seed: int = 0) -> GapStatistic:
    """Mean of deg(f) - deg(g*f) over random degree-n SANFVs, g the affine multiplier.

    Draws lambda(0..n-1) uniformly with lambda(n) = 1 (n must be odd so the
    top degree is odd), applies the affine multiplier and records the degree
    gap; a vanished product counts as the full gap n.  Pure SANFV
    arithmetic, so n can be large.  The mean tends to 4 as n grows, since
    the gap is 2i with probability 2^-i.
    """
    from fractions import Fraction

    _check_n(n)
    if n % 2 == 0:
        raise ValueError(f"the statistic needs odd n, got {n}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    total = 0
    vanished = 0
    for _ in range(samples):
        f = Sanfv(n, rng.getrandbits(n) | (1 << n))
        cert = affine_multiplier(f)
        if cert.vanishing:
            vanished += 1
            total += n
        else:
            total += n - cert.deg_h
    return GapStatistic(n, samples, seed, Fraction(total, samples), vanished)
