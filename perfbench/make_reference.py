"""Write reference/sb10_ai_fai.json: (AI, FAI) of every f in SB_10 by the dense oracle.

Usage (from the repository root): python3 perfbench/make_reference.py

The census check reads this file instead of re-running the oracle (about
10 s for SB_10) in every benchmark run.  Entry lam is the (AI, FAI) pair of
the function whose SANFV integer is lam.
"""

import json
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
N = 10  # the census workload's n


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    pairs = [list(checks.oracle_ai_fai(N, lam)) for lam in range(1 << (N + 1))]
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    path = checks.REFERENCE_DIR / f"sb{N}_ai_fai.json"
    record = {
        "n": N,
        "route": "symfai.dense.ai + symfai.dense.min_multiplier_degree",
        "ai_fai": pairs,
    }
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    print(f"wrote {path} ({len(pairs)} functions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
