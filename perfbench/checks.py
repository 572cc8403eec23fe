"""Independent checks of symfai CLI outputs.

Everything a check compares against is recomputed here without the fast
paths under test: truth tables are built from variable tables, symmetric
values from direct submask enumeration of the SANFV, AI/FAI from the
dense oracle (``dense.ai`` plus ``dense.min_multiplier_degree``), and the
gap statistic from the closed-form affine degree law.  Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


# ---------------------------------------------------------------------------
# symmetric functions and truth tables, from first principles
# ---------------------------------------------------------------------------


def sanfv_string(n: int, lam: int) -> str:
    return "".join(str((lam >> i) & 1) for i in range(n + 1))


def parse_sanfv(text: str) -> int:
    return int(text[::-1], 2)


def value_at(lam: int, weight: int) -> int:
    """f(x) for any x of the given weight: XOR of lambda(i) over submasks i of weight."""
    acc = 0
    sub = weight
    while True:
        acc ^= (lam >> sub) & 1
        if sub == 0:
            return acc
        sub = (sub - 1) & weight


@functools.lru_cache(maxsize=4)
def _variable_tables(n: int) -> tuple[int, ...]:
    """Truth table of each variable x_i: bit x is set iff bit i of x is."""
    size = 1 << n
    tables = []
    for i in range(n):
        half = 1 << i
        repunit = ((1 << size) - 1) // ((1 << (2 * half)) - 1)
        tables.append((((1 << half) - 1) << half) * repunit)
    return tuple(tables)


@functools.lru_cache(maxsize=4)
def _weight_classes(n: int) -> tuple[int, ...]:
    classes = [bytearray((1 << n) // 8 or 1) for _ in range(n + 1)]
    for x in range(1 << n):
        classes[x.bit_count()][x >> 3] |= 1 << (x & 7)
    return tuple(int.from_bytes(c, "little") for c in classes)


def symmetric_table(n: int, lam: int) -> int:
    classes = _weight_classes(n)
    tt = 0
    for k in range(n + 1):
        if value_at(lam, k):
            tt |= classes[k]
    return tt


def anf_table(n: int, monomials: list[list[int]]) -> int:
    """Truth table of a sum of monomials, each given by its variable indices."""
    variables = _variable_tables(n)
    full = (1 << (1 << n)) - 1
    tt = 0
    for monomial in monomials:
        term = full
        for i in monomial:
            term &= variables[i]
        tt ^= term
    return tt


def anf_degree(monomials: list[list[int]]) -> int | None:
    return max((len(m) for m in monomials), default=None)


# ---------------------------------------------------------------------------
# the dense oracle and the SB_10 reference
# ---------------------------------------------------------------------------


def oracle_ai_fai(n: int, lam: int) -> tuple[int, int]:
    """(AI, FAI) through the dense truth-table pipeline only."""
    from symfai import dense
    from symfai.sanfv import Sanfv

    table = dense.dense_from_sanfv(Sanfv(n, lam))
    a = dense.ai(table)
    if a <= 1:
        return a, 2 * a
    best = 2 * a
    for e in range(1, a):
        result = dense.min_multiplier_degree(table, e)
        if result.annihilator is not None:
            raise AssertionError(f"dense oracle found an annihilator below AI for n={n}, lam={lam}")
        best = min(best, e + result.d)
    return a, best


def census_reference(n: int) -> list[tuple[int, int]]:
    """(AI, FAI) of every f in SB_n, indexed by SANFV integer.

    Read from the precomputed file when there is one (see make_reference.py),
    otherwise computed with the dense oracle.
    """
    path = REFERENCE_DIR / f"sb{n}_ai_fai.json"
    if path.exists():
        data = json.loads(path.read_text())
        return [tuple(pair) for pair in data["ai_fai"]]
    return [oracle_ai_fai(n, lam) for lam in range(1 << (n + 1))]


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def check_profile(profile: dict, n: int, lam: int, ai: int, fai: int) -> list[str]:
    """A profile against the oracle values, with both witnesses re-verified."""
    where = f"n={n} f={sanfv_string(n, lam)}"
    problems = []
    expected = {
        "f": sanfv_string(n, lam),
        "n": n,
        "deg": lam.bit_length() - 1 if lam else None,
        "ai": ai,
        "fai": fai,
        "capped": fai == 2 * ai,
    }
    for key, value in expected.items():
        if profile.get(key) != value:
            problems.append(f"{where}: {key} is {profile.get(key)!r}, expected {value!r}")
    if problems:
        return problems

    f_tt = symmetric_table(n, lam)
    full = (1 << (1 << n)) - 1
    g = anf_table(n, profile["ai_witness"])
    if g == 0 or anf_degree(profile["ai_witness"]) != ai:
        problems.append(f"{where}: AI witness is zero or not of degree {ai}")
    elif g & f_tt and g & (full ^ f_tt):
        problems.append(f"{where}: AI witness annihilates neither f nor f+1")

    pair = profile["fai_witness"]
    if pair is None:
        if fai != 2 * ai:
            problems.append(f"{where}: FAI {fai} below 2*AI has no witness pair")
        return problems
    g_deg, h_deg = anf_degree(pair["g"]), anf_degree(pair["h"])
    g_tt = anf_table(n, pair["g"])
    if not g_deg or g_deg >= ai:
        problems.append(f"{where}: FAI multiplier has degree {g_deg}, outside 1..AI-1")
    elif anf_table(n, pair["h"]) != g_tt & f_tt:
        problems.append(f"{where}: FAI witness fails h = g*f")
    elif h_deg is None or g_deg + h_deg != fai:
        problems.append(f"{where}: FAI witness degrees {g_deg}+{h_deg} != {fai}")
    return problems


def check_analyze(payload: dict, n: int, lam: int, oracle) -> list[str]:
    ai, fai = oracle(n, lam)
    problems = check_profile(payload, n, lam, ai, fai)
    if payload.get("bounds_ok") is not True or not all(b["ok"] for b in payload.get("bounds", [])):
        problems.append(f"n={n} f={sanfv_string(n, lam)}: bound suite reports a failure")
    return problems


def check_census(lines: list[str], n: int, reference: list[tuple[int, int]]) -> list[str]:
    """The JSONL of `search --out`: summary line, then one profile per f in SANFV order."""
    count = 1 << (n + 1)
    if len(lines) != count + 1:
        return [f"census n={n}: {len(lines)} lines, expected {count + 1}"]
    max_fai = max(fai for _, fai in reference)
    expected = {
        "n": n,
        "count": count,
        "max_fai": max_fai,
        "max_fai_witnesses": [sanfv_string(n, lam) for lam in range(count) if reference[lam][1] == max_fai],
        "mai_list": [sanfv_string(n, lam) for lam in range(count) if reference[lam][0] == (n + 1) // 2],
        "violations": [],
    }
    summary = json.loads(lines[0])
    problems = [
        f"census n={n}: summary {key} differs from the reference"
        for key, value in expected.items()
        if summary.get(key) != value
    ]
    for lam, line in enumerate(lines[1:]):
        problems += check_profile(json.loads(line), n, lam, *reference[lam])
    return problems


def expected_sources(n: int, lam: int) -> list[str]:
    """Certificate sources that apply to f, from its degree and n alone."""
    d = lam.bit_length() - 1
    sources = []
    if d >= 1 and d % 2 == 1:
        sources.append("thm3")
    if d >= 2 and d & (d - 1):
        sources += ["thm4"] * (d.bit_count() - 1)
    m = n.bit_length() - 1
    if m >= 2 and (1 << m) <= n < (1 << m) + (1 << (m - 1)) - 1:
        sources.append("thm5")
    return sources


def check_attack(payload: list, n: int, lam: int, rng: random.Random, weights: int = 12) -> list[str]:
    """Certificates: the applicable set, consistent fields, and h = g*f at seeded weights."""
    where = f"attack n={n}"
    sources = [c.get("source", "")[:4] for c in payload]
    if sources != expected_sources(n, lam):
        return [f"{where}: certificate sources {sources}, expected {expected_sources(n, lam)}"]
    problems = []
    for cert in payload:
        g, h = parse_sanfv(cert["g"]), parse_sanfv(cert["h"])
        fields = (cert["n"], cert["deg_g"], cert["deg_h"], cert["vanishing"])
        if fields != (n, g.bit_length() - 1, (h.bit_length() - 1) if h else None, h == 0):
            problems.append(f"{where}: {cert['source']} fields disagree with its g and h")
        for w in [n] + [rng.randrange(n + 1) for _ in range(weights - 1)]:
            if value_at(h, w) != value_at(g, w) & value_at(lam, w):
                problems.append(f"{where}: {cert['source']} fails h = g*f at weight {w}")
                break
    return problems


def affine_gap(n: int, lam: int) -> int | None:
    """deg(f) - deg(g*f) for the affine multiplier of a degree-n f, None if it vanishes."""
    t = (n - 1) // 2
    top_even = (lam >> (2 * t)) & 1
    for s in range(t - 1, -1, -1):
        low, high = (lam >> (2 * s)) & 1, (lam >> (2 * s + 1)) & 1
        if (low == 1) if top_even == 0 else (low != high):
            return n - (2 * s + 1)
    return None


def check_stat(payload: dict, n: int, samples: int, seed: int) -> list[str]:
    """The mean gap recomputed from the closed-form law on the same seeded draws."""
    rng = random.Random(seed)
    total = vanished = 0
    for _ in range(samples):
        gap = affine_gap(n, rng.getrandbits(n) | (1 << n))
        if gap is None:
            vanished += 1
            total += n
        else:
            total += gap
    mean = Fraction(total, samples)
    expected = {
        "n": n,
        "samples": samples,
        "seed": seed,
        "mean_gap": f"{mean.numerator}/{mean.denominator}",
        "mean_gap_float": float(mean),
        "vanished": vanished,
    }
    return [
        f"stat n={n}: {key} is {payload.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if payload.get(key) != value
    ]
