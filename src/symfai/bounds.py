"""Degree/AI/FAI bound checks of immunity profiles, and the bound tables.

bound_suite checks a profile against the inequalities that tie deg(f),
AI(f) and FAI(f) of a symmetric f together, plus the classical FAI < n
expectation; the two bound tables list the power-of-two bands those bounds
rest on.  None of it needs the certificate constructions of attacks, so
analyze, search and tables load this module without them, and attack and
stat, which check no bounds, do not load it (the window test _in_window
lives in sanfv, which every command loads).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .sanfv import _in_window

if TYPE_CHECKING:
    from .immunity import ImmunityProfile
    from .sanfv import Sanfv


@dataclass(frozen=True)
class BoundCheck:
    name: str
    applicable: bool
    ok: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "applicable": self.applicable, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class BoundReport:
    f: Sanfv
    checks: tuple[BoundCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[BoundCheck]:
        return [c for c in self.checks if not c.ok]

    def to_json_dict(self) -> dict:
        return {
            "f": self.f.to_string(),
            "all_ok": self.all_ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def bound_suite(profile: ImmunityProfile) -> BoundReport:
    """Evaluate every applicable degree/AI/FAI inequality for a profiled function.

    Every check except `fai_below_n` is a proved property of symmetric
    functions, so its failure is a library defect.  `fai_below_n` (FAI < n
    for n >= 5) is the classical expectation, not a theorem.  Over the
    census range n <= 14 its only exceptions are the eight functions
    sigma_4 + a*sigma_3 + b*sigma_1 + c at n = 6, which have FAI = 6 = n;
    their failure is reported on purpose.
    """
    return BoundReport(profile.f, _bound_checks(profile.f.n, profile.deg, profile.ai, profile.fai))


@functools.lru_cache(maxsize=256)
def _bound_checks(n: int, d: int | None, a: int, fai: int) -> tuple[BoundCheck, ...]:
    """The checks of bound_suite, which read only n, deg, AI and FAI; memoised on them."""
    checks = []

    def check(name, applicable, ok, detail=""):
        checks.append(BoundCheck(name, applicable, ok if applicable else True, detail))

    if d is not None and d >= 1:
        cap = 1 << (d.bit_length() - 1)
        strict = d & (d - 1) != 0
        check(
            "ai_upper_power_of_two",
            True,
            a < cap if strict else a <= cap,
            f"ai={a} vs 2^floor(log2 deg)={cap}, strict={strict}",
        )
    else:
        check("ai_upper_power_of_two", False, True, "degree < 1")

    if a >= 1:
        need = 1 << (a - 1).bit_length()
        check("degree_lower_bound", True, d is not None and d >= need, f"deg={d} vs 2^ceil(log2 ai)={need}")
    else:
        check("degree_lower_bound", False, True, "ai = 0")

    if n >= 2 and a == (n + 1) // 2:
        need = 1 << ((n - 1).bit_length() - 1)
        check("mai_degree_lower_bound", True, d is not None and d >= need, f"deg={d} vs {need}")
    else:
        check("mai_degree_lower_bound", False, True, "not MAI")

    if _in_window(n):
        m = n.bit_length() - 1
        limit = max((1 << m) - 2, 2 * n - 3 * (1 << (m - 1)) + 2)
        check("fai_window_upper_bound", True, fai <= limit, f"fai={fai} vs {limit}")
    else:
        check("fai_window_upper_bound", False, True, "n outside window")

    if a >= 1 and d is not None and d >= 1:
        check("fai_sandwich", True, a + 1 <= fai <= d + 2, f"ai+1={a + 1} <= fai={fai} <= deg+2={d + 2}")
    else:
        check("fai_sandwich", False, True, "degenerate")

    check("fai_below_n", n >= 5, fai < n, f"fai={fai} vs n={n}")
    check("fai_cap", True, fai <= 2 * a, f"fai={fai} vs 2*ai={2 * a}")
    return tuple(checks)


def _band_label(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}-{hi}"


def upper_ai_table() -> list[tuple[str, int]]:
    """Upper AI of symmetric functions per degree band: [2^k, 2^(k+1)-1] -> 2^k."""
    return [(_band_label(1 << k, (1 << (k + 1)) - 1), 1 << k) for k in range(8)]


def lower_degree_table() -> list[tuple[str, int]]:
    """Lower degree of symmetric functions per AI band: (2^(k-1), 2^k] -> 2^k."""
    rows = []
    for k in range(8):
        lo = (1 << (k - 1)) + 1 if k else 1
        rows.append((_band_label(lo, 1 << k), 1 << k))
    return rows


def tables_csv() -> str:
    lines = ["degree_band,upper_ai"]
    lines += [f"{band},{value}" for band, value in upper_ai_table()]
    lines.append("")
    lines.append("ai_band,lower_degree")
    lines += [f"{band},{value}" for band, value in lower_degree_table()]
    return "\n".join(lines) + "\n"
