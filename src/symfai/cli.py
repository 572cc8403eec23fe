"""Command line front end: analyze, attack, search, convert, tables, stat.

Output is machine-first (JSON, CSV); --format pretty indents the JSON for
humans.  The JSON of analyze is rendered directly from the witnesses'
monomial masks (immunity._ProfileRenderer) and is byte-equal to json.dumps
with sorted keys and compact separators, so no encoder holds one token per
monomial; --format pretty re-indents that one line.  Identical
requests with identical seeds produce byte-identical output.  Exit codes:
0 success, 2 bad request, 3 capability or budget exceeded, 4 internal
invariant violation (the message carries the counterexample).

Each handler imports the modules it runs, so a launch compiles only those:
attack, stat and tables load the SANFV ring and attacks, convert the ring
alone, analyze the immunity engine as well, and search the census on top
of it.  No command loads the dense oracle.  search uses up to two
processes from n = 10: a forked worker folds half of SB_n, and the output
is the same bytes as one process's.

Called with no argv (the symfai script, python -m symfai.cli), main() owns
the process and registers gc.freeze with atexit: at exit every object moves
to the permanent generation, so the interpreter's final collections skip
them and the operating system reclaims the heap in one step, which saves
15-20 ms of every launch.  Other atexit handlers still run and stdout and
stderr are still flushed, so exit codes and output bytes do not change.
main(argv) with a list leaves gc and atexit alone.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys

from .errors import CapabilityError, InvariantViolation
from .sanfv import parse_function, to_values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfai",
        description="Exact algebraic/fast-algebraic attack analysis of symmetric Boolean functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_f=True, json_output=True):
        p.add_argument("--n", type=int, required=True, help="number of variables")
        if needs_f:
            p.add_argument(
                "--f",
                required=True,
                help="function spec: SANFV bits, 'v:'-prefixed value bits, 'sigma:i', or 'majority'",
            )
        if json_output:
            p.add_argument("--format", choices=["json", "pretty"], default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("analyze", help="degree, AI, FAI, witnesses and bound checks")
    common(p)

    p = sub.add_parser("attack", help="all applicable multiplier certificates")
    common(p)
    p.add_argument("--e", type=int, help="override the window construction's multiplier degree")
    p.add_argument("--k", type=int, help="keep only the residue certificate with this k")

    p = sub.add_parser("search", help="exhaustive profile of all of SB_n")
    common(p, needs_f=False)
    p.add_argument("--budget-seconds", type=float, dest="budget_seconds")

    p = sub.add_parser("convert", help="SANFV <-> value-vector string")
    common(p, json_output=False)

    p = sub.add_parser("tables", help="the degree/AI bound tables")
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("stat", help="mean product-degree gap of the affine multiplier")
    common(p, needs_f=False)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    return parser


_COMPACT = (",", ":")


def _dump(payload, fmt: str) -> str:
    if fmt == "pretty":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return json.dumps(payload, sort_keys=True, separators=_COMPACT) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _analyze_text(profile, report, fmt: str) -> str:
    """The analyze payload: the profile's JSON dict plus the bound checks."""
    from .immunity import _ProfileRenderer

    line = _ProfileRenderer(_COMPACT).render(profile, report)
    return _dump(json.loads(line), fmt) if fmt == "pretty" else line


def _run_analyze(args) -> int:
    from . import attacks, immunity

    f = parse_function(args.n, args.f)
    profile = immunity.profile(f)
    report = attacks.bound_suite(profile)
    _emit(_analyze_text(profile, report, args.format), args.out)
    return 0 if report.all_ok else 4


def _run_attack(args) -> int:
    from . import attacks

    f = parse_function(args.n, args.f)
    if args.e is not None:
        certificates = [attacks.near_power_certificate(f, e=args.e)]
    else:
        certificates = attacks.all_certificates(f)
    if args.k is not None:
        certificates = [c for c in certificates if c.params.get("k") == args.k]
    _emit(_dump([c.to_json_dict() for c in certificates], args.format), args.out)
    return 0


def _run_search(args) -> int:
    from . import search

    report = search._search(args.n, args.budget_seconds, args.out)
    if not args.out:
        sys.stdout.write(_dump(report.to_json_dict(), args.format))
    if report.violations:
        sys.stderr.write("bound violations found:\n" + "\n".join(report.violations) + "\n")
        return 4
    return 0


def _run_convert(args) -> int:
    f = parse_function(args.n, args.f)
    out = f.to_string() if args.f.startswith("v:") else to_values(f).to_string()
    _emit(out + "\n", args.out)
    return 0


def _run_tables(args) -> int:
    from . import attacks

    if args.format == "csv":
        _emit(attacks.tables_csv(), args.out)
    else:
        payload = {
            "upper_ai_by_degree": [[band, value] for band, value in attacks.upper_ai_table()],
            "lower_degree_by_ai": [[band, value] for band, value in attacks.lower_degree_table()],
        }
        _emit(_dump(payload, args.format), args.out)
    return 0


def _run_stat(args) -> int:
    from . import attacks

    result = attacks.product_degree_gap_statistic(args.n, args.samples, args.seed)
    _emit(_dump(result.to_json_dict(), args.format), args.out)
    return 0


_HANDLERS = {
    "analyze": _run_analyze,
    "attack": _run_attack,
    "search": _run_search,
    "convert": _run_convert,
    "tables": _run_tables,
    "stat": _run_stat,
}


def main(argv=None) -> int:
    if argv is None:
        # The process ends after main: freezing at exit spares finalization
        # its collections of the whole heap, numpy's cycles included.
        atexit.register(gc.freeze)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CapabilityError as exc:
        sys.stderr.write(f"capability error: {exc}\n")
        return 3
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
