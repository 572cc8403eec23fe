"""Time one CLI call of two source trees in alternating launch pairs.

    python tools/launch_pairs.py TREE_A TREE_B [--pairs N] -- ARGV...

Each launch runs ``python -c`` with the benchmark's CLI entry (the one
perfbench/run.py launches) and ARGV, with PYTHONPATH=TREE/src and the rest
of the environment inherited, so PYTHONDONTWRITEBYTECODE applies as it does
in the benchmark.  Pair i launches A then B when i is even and B then A when
it is odd, since a host that drifts over minutes favours neither side then.
Each launch is waited for with os.wait4, which gives its peak RSS
(ru_maxrss).  Stdin is empty, stderr is passed through, and stdout goes to a
temporary file whose sha256 is kept.

One JSON object is printed: per side, the wall times, their median and
quartiles, the median peak, the pairs it won (it was strictly faster) and
its exit codes; and whether every launch of both sides wrote the same
stdout bytes.  The exit status is 0 once all launches have run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

CLI_ENTRY = "import sys; from symfai.cli import main; sys.exit(main())"


def _launch(src: Path, argv: list[str]) -> tuple[float, float, int, str]:
    """Wall time (s), peak RSS (MB), exit code and stdout sha256 of one CLI launch."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as stdout:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *argv], env=env, stdin=subprocess.DEVNULL, stdout=stdout)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        digest = hashlib.sha256()
        for chunk in iter(lambda: stdout.read(1 << 20), b""):
            digest.update(chunk)
    return wall, usage.ru_maxrss / 1024, proc.returncode, digest.hexdigest()  # Linux reports KiB


def _summary(tree: Path, runs: list[tuple[float, float, int, str]], won: int) -> dict:
    walls = [run[0] for run in runs]
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
    return {
        "tree": str(tree),
        "wall_s": walls,
        "wall_median_s": median,
        "wall_quartiles_s": [q1, q3],
        "maxrss_median_mb": statistics.median(run[1] for run in runs),
        "won": won,
        "codes": sorted({run[2] for run in runs}),
    }


def main(args: list[str]) -> int:
    if "--" not in args or args.index("--") == len(args) - 1:
        sys.stderr.write("usage: python tools/launch_pairs.py TREE_A TREE_B [--pairs N] -- ARGV...\n")
        return 2
    cut = args.index("--")
    parser = argparse.ArgumentParser(prog="tools/launch_pairs.py")
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--pairs", type=int, default=10)
    options = parser.parse_args(args[:cut])
    argv = args[cut + 1 :]
    if options.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = [tree.resolve() for tree in options.trees]
    for tree in trees:
        if not (tree / "src" / "symfai").is_dir():
            parser.error(f"{tree} holds no src/symfai")
    runs = ([], [])
    for i in range(options.pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            runs[side].append(_launch(trees[side] / "src", argv))
    won = [sum(x[0] < y[0] for x, y in zip(runs[side], runs[1 - side])) for side in (0, 1)]
    result = {
        "argv": argv,
        "pairs": options.pairs,
        "a": _summary(trees[0], runs[0], won[0]),
        "b": _summary(trees[1], runs[1], won[1]),
        "stdout_agree": len({run[3] for side in runs for run in side}) == 1,
    }
    sys.stdout.write(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
