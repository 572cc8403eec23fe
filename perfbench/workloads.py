"""The benchmark's seeded workloads: fixed lists of symfai CLI calls.

Each workload turns a ``random.Random`` into a list of ``Call``s.  The
program sees only the generated arguments.  Every call is expected to exit
0, so n = 6 (where ``search`` reports the FAI = n exception with exit 4)
stays out of every list.  ``smoke=True`` gives the same shapes at n <= 5.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Call:
    """One CLI call and the check of its output.

    ``verify(stdout, out_file)`` returns (problems, items): the list of
    failed checks and the units of work the call completed.
    """

    argv: tuple[str, ...]
    verify: Callable[[bytes, bytes | None], tuple[list[str], int]]
    out_file: str | None = None


def _max_ai_threshold(rng: random.Random, n: int) -> int:
    """Value bits of a threshold function (or its complement) with maximal AI."""
    ks = [(n + 1) // 2] if n % 2 else [n // 2, n // 2 + 1]
    k = rng.choice(ks)
    bits = ((1 << (n + 1)) - 1) >> k << k
    if rng.random() < 0.5:
        bits ^= (1 << (n + 1)) - 1
    return bits


def _analyze(n: int, spec: str, lam: int) -> Call:
    def verify(stdout, _):
        return checks.check_analyze(json.loads(stdout), n, lam, checks.oracle_ai_fai), 1

    return Call(("analyze", "--n", str(n), "--f", spec), verify)


def _ai_at_most_one(n: int, v: int) -> bool:
    """AI(f) <= 1: f or f+1 is supported on weights {0, n}, or on one parity of weights.

    Those are the only sets of weight classes an affine function can vanish on.
    """
    full = (1 << (n + 1)) - 1
    even = sum(1 << k for k in range(0, n + 1, 2))
    ends = 1 | (1 << n)
    return any(side & ~ends == 0 or side & even == 0 or side & ~even == 0 for side in (v, full ^ v))


def _random_ai_two_or_more(rng: random.Random, n: int) -> int:
    """A uniform SANFV among those with AI >= 2, so that the FAI scan always runs."""
    while True:
        lam = rng.getrandbits(n + 1)
        if not _ai_at_most_one(n, _transform(n, lam)):
            return lam


def _transform(n: int, bits: int) -> int:
    """SANFV <-> value vector (an involution), by direct submask enumeration."""
    return sum(checks.value_at(bits, i) << i for i in range(n + 1))


def analyze_cold(rng: random.Random, smoke: bool) -> list[Call]:
    """Per n, a maximal-AI threshold (deepest scans), then a random SANFV (shallow scans).

    Random draws with AI <= 1 are redrawn: they skip the FAI tables entirely,
    which would make the work of a pass depend on the seed.
    """
    # eight n = 12 calls make the median call (call_p50_s) the 6th of that
    # group, not its slowest, which per-call jitter would move
    plan = [4, 5, 5] if smoke else [12] * 8 + [13, 13, 14]
    calls = []
    for index, n in enumerate(plan):
        if index == 0 or plan[index - 1] != n:
            v = _max_ai_threshold(rng, n)
            lam = _transform(n, v)
            spec = "v:" + checks.sanfv_string(n, v)
        else:
            lam = _random_ai_two_or_more(rng, n)
            spec = checks.sanfv_string(n, lam)
        calls.append(_analyze(n, spec, lam))
    return calls


def census(rng: random.Random, smoke: bool) -> list[Call]:
    """The exhaustive census of SB_n; its input is fixed, the seed only names the run."""
    n = 5 if smoke else 10

    def verify(_, out_file):
        lines = out_file.decode().splitlines() if out_file else []
        return checks.check_census(lines, n, checks.census_reference(n)), 1 << (n + 1)

    return [Call(("search", "--n", str(n), "--out", "census.jsonl"), verify, "census.jsonl")]


def _attack(rng: random.Random, n: int) -> Call:
    lam = rng.getrandbits(n) | (1 << n)  # degree n, odd: the affine construction applies
    spot_seed = rng.getrandbits(32)

    def verify(stdout, _):
        payload = json.loads(stdout)
        return checks.check_attack(payload, n, lam, random.Random(spot_seed)), len(payload)

    return Call(("attack", "--n", str(n), "--f", checks.sanfv_string(n, lam)), verify)


def _stat(rng: random.Random, n: int, samples: int) -> Call:
    seed = rng.getrandbits(31)

    def verify(stdout, _):
        return checks.check_stat(json.loads(stdout), n, samples, seed), samples

    return Call(("stat", "--n", str(n), "--samples", str(samples), "--seed", str(seed)), verify)


def algebra_large(rng: random.Random, smoke: bool) -> list[Call]:
    """Dense SANFVs in the near-power window, then the gap statistic at n = 2^16 - 1."""
    if smoke:
        return [_attack(rng, 5), _stat(rng, 5, 4)]
    return [_attack(rng, 4097), _attack(rng, 8193), _stat(rng, 65535, 4)]


WORKLOADS = {
    "analyze-cold": analyze_cold,
    "census": census,
    "algebra-large": algebra_large,
}

# what items_per_s counts on each workload
ITEMS = {
    "analyze-cold": "functions profiled",
    "census": "functions profiled",
    "algebra-large": "certificates + gap samples",
}
