"""Command line front end: analyze, attack, search, convert, tables, stat.

Output is machine-first (JSON, CSV); --format pretty indents the JSON for
humans.  analyze renders its one line of JSON (the profile's record plus
the bound checks) directly from the witnesses' monomial masks with
immunity._ProfileRenderer, byte-equal to json.dumps with sorted keys and
compact separators, so no encoder holds one token per monomial; for
--format pretty, _run_analyze re-indents that line.  Identical
requests with identical seeds produce byte-identical output.  Exit codes:
0 success, 2 bad request, 3 capability or budget exceeded, 4 internal
invariant violation (the message carries the counterexample).

Each handler imports the modules it runs, so a launch compiles only those:
attack and stat load the SANFV ring and the certificates (attacks), tables
the ring and the bound checks (bounds), convert the ring alone, analyze the
ring, bounds and the immunity engine, and search the census on top of
those.  No command loads the dense oracle or, outside attack and stat, the
certificate code, and those two load no bound checks.  search uses up to two
processes from n = 10: a forked worker folds half of SB_n, or this
process does if the fork or the worker fails, and the output is the same
bytes as one process's.

--out has one path for every command: main examines the target once,
before any work (a _Target), and the command's output is published to it
once complete (_Target.publish).  For every command but search that
output is the bytes stdout would get.  search --format shapes only the
summary search writes to stdout; search --out writes JSON Lines instead
(the compact summary, then one profile per line) and nothing to stdout.  A
missing or regular target gets a new file beside the file it names,
renamed over it when all is written, so a failed command or write leaves
an existing target as it was; a FIFO or a device is written in place.
search stages its profile lines in files the target makes (_Target.stage)
and hands them to the same publish.

Called with no argv (the symfai script, python -m symfai.cli), main() owns
the process: once the command returns its code, main runs the atexit
handlers, flushes stdout and stderr and leaves by os._exit(code), as the
census worker does, so finalization never frees the heap object by object.
If a flush fails, main returns the code and finalization reports the error
as before (exit 120 on a full device); a usage error or an unexpected
exception propagates.  main(argv) with a list returns and leaves atexit alone.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import json
import os
import shutil
import stat
import sys
import tempfile

# symfai makes no BLAS call, so numpy's OpenBLAS needs no worker threads;
# its pool would spin about 60 ms of CPU while numpy loads.  This runs
# before the first symfai module (and with it numpy) is imported, and a
# user's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import CapabilityError, InvariantViolation  # noqa: E402
from .sanfv import parse_function, to_values  # noqa: E402


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


class _Target:
    """An --out path, examined once before any work; publish writes the output to it.

    The path is stat-ed once (only FileNotFoundError makes it missing) and
    that mode decides the rest.  A missing path that ends in a separator,
    or in a last component of . or .., fails as open(path, "w") would:
    EISDIR, or ENOENT when its parent is missing.  An existing file or
    directory is opened for writing (not truncated), so an unwritable target
    fails at once; a FIFO is not opened.
    A missing or regular target is staged: real is the file it names (a
    symlink is followed) and directory holds that file, where stage and
    publish make their files.  Any other target (a FIFO, a character device)
    is written in place: real and directory are None, so stage uses the
    default temporary directory.  So a staged target whose directory is
    missing or unwritable fails at its first stage or publish.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            self.mode = os.stat(path).st_mode
        except FileNotFoundError:
            self.mode = None
            if path.endswith(os.sep) or os.path.basename(path) in (os.curdir, os.pardir):
                code = errno.EISDIR if os.path.isdir(os.path.dirname(path.rstrip(os.sep)) or os.curdir) else errno.ENOENT
                raise OSError(code, os.strerror(code), path) from None
        if self.mode is not None and (stat.S_ISREG(self.mode) or stat.S_ISDIR(self.mode)):
            os.close(os.open(path, os.O_WRONLY))
        self.real = os.path.realpath(path) if self.mode is None or stat.S_ISREG(self.mode) else None
        self.directory = self.real and os.path.dirname(self.real)

    def stage(self):
        """A new text file without a name in directory, for a part of the output that publish copies."""
        try:
            return tempfile.TemporaryFile("w+", encoding="utf-8", dir=self.directory)
        except OSError as exc:  # name the target, not the temporary file
            raise type(exc)(exc.errno, exc.strerror, self.path) from None

    def publish(self, text: str, parts=()) -> None:
        """Write text and then the bytes of each staged part, replacing a regular file only once all is written.

        Whatever appeared at the path since the examination is not looked at
        again.  A staged target gets a new file in directory, created with
        mode 0o666 less the umask or with the old file's permission bits, and
        renamed over real when complete: if a write fails, the new file is
        removed and the old one is left as it was.
        """
        if self.real is None:
            with open(self.path, "wb") as handle:
                _copy(text, parts, handle)
            return
        while True:
            staged = os.path.join(self.directory, f".{os.path.basename(self.real)}.{os.urandom(6).hex()}")
            try:
                fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                continue
            except OSError as exc:  # name the target, not the new file
                raise type(exc)(exc.errno, exc.strerror, self.path) from None
        try:
            with open(fd, "wb") as handle:
                if self.mode is not None:
                    os.fchmod(fd, stat.S_IMODE(self.mode))
                _copy(text, parts, handle)
            os.replace(staged, self.real)
        except BaseException:
            os.unlink(staged)
            raise


def _copy(text: str, parts, handle) -> None:
    """Write text and then each staged part's bytes to the binary file handle."""
    handle.write(text.encode("utf-8"))
    for part in parts:
        part.seek(0)  # flushes the part's text layer
        shutil.copyfileobj(part.buffer, handle)


def _emit(text: str, out: _Target | None) -> None:
    (sys.stdout.write if out is None else out.publish)(text)


def _run_analyze(args) -> int:
    from . import bounds, immunity

    f = parse_function(args.n, args.f)
    profile = immunity.profile(f)
    report = bounds.bound_suite(profile)
    line = immunity._ProfileRenderer(_COMPACT).render(profile, report)
    _emit(_dump(json.loads(line), "pretty") if args.format == "pretty" else line, args.out)
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
    if args.out is None:
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
    from . import bounds

    if args.format == "csv":
        _emit(bounds.tables_csv(), args.out)
    else:
        payload = {
            "upper_ai_by_degree": [[band, value] for band, value in bounds.upper_ai_table()],
            "lower_degree_by_ai": [[band, value] for band, value in bounds.lower_degree_table()],
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
    code = _run(argv)
    if argv is None:  # this process ends here: leave it without finalization
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:
            return code  # finalization flushes again and reports the error
        os._exit(code)
    return code


def _run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.out == "":  # every command has --out; reject an empty one before any work
        parser.error("argument --out: expected a path, got ''")
    try:
        if args.out is not None:
            args.out = _Target(args.out)
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
