"""Exhaustive enumeration of SB_n: profiles, extremal FAI, MAI census, JSONL.

profile_all(n) walks every symmetric function on n variables in SANFV
integer order, profiles it, and checks the full inequality suite of
bounds.bound_suite, read from its memo on (n, deg, AI, FAI) without a
BoundReport per function; any violation is a library defect and lands in
the report.  The walk is one fold over a stream of profiles: profile_all
keeps them, while the MAI census and the JSONL writer of ``search --out``
drop each one once it is read, so their memory follows the distinct
witnesses, not the 2^(n+1) profiles.

The library calls fold in one process.  The census of the search command,
_search, has one path: it folds the lower half of the SANFV range in this
process and then takes the upper half's report from a forked worker that
folded it meanwhile (from n = 10, with two usable CPUs) and exited 0, or
else folds the upper half itself; the halves are merged in SANFV order.
The worker only saves time: no fan-out, a failed fork and a lost worker
all take the same else.  The census is deterministic, so the summary,
output file, stderr and exit code, and any error, are those of the
one-process fold.  The per-n tables the worker shares are built by
profiling f = 0 before the fork.
write_profiles_jsonl, the reference writer of the tests, writes a
report's lines directly and shares no staging code with the command.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import shutil
import stat
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, replace

from . import immunity
from .bounds import _bound_checks
from .errors import CapabilityError
from .immunity import ImmunityProfile, _ProfileRenderer
from .sanfv import Sanfv, _check_n

# Below this n a fork costs more than the half of the census it saves: on
# two CPUs n = 7 and 8 were slower forked and n = 9 was even.  At n = 10
# and 11 it is even or ahead while the second CPU is free (BENCH_29.json)
# and behind when both processes share one (BENCH_28.json).
_FAN_OUT_N = 10


@dataclass(frozen=True)
class SearchReport:
    """Aggregate of one exhaustive run over SB_n.

    profiles holds every profile in a report of profile_all; the streamed
    census (the search command, find_symmetric_mai) folds them away and
    leaves it empty.
    """

    n: int
    count: int
    max_fai: int
    max_fai_witnesses: tuple[str, ...]
    mai_list: tuple[str, ...]
    violations: tuple[str, ...]
    wall_time_s: float
    profiles: tuple[ImmunityProfile, ...]

    def to_json_dict(self) -> dict:
        """Deterministic summary; timing and the bulky profile list stay out."""
        return {
            "n": self.n,
            "count": self.count,
            "max_fai": self.max_fai,
            "max_fai_witnesses": list(self.max_fai_witnesses),
            "mai_list": list(self.mai_list),
            "violations": list(self.violations),
        }


def _start(n: int, budget_seconds: float | None) -> float:
    """Check the census request and return the time its budget counts from."""
    _check_n(n)
    if budget_seconds is not None and not math.isfinite(budget_seconds):
        raise ValueError(f"budget must be a finite number of seconds, got {budget_seconds}")
    return time.monotonic()


def _fold(n: int, lams: range, budget_seconds: float | None, start: float, each=None, parent=None) -> SearchReport:
    """Profile f = Sanfv(n, lam) for each lam of lams, in order, and fold the summary as it goes.

    Each profile is handed to each (when it is not None) and then dropped,
    so the fold holds only the summary: the report's profiles are empty and
    its count is len(lams).  Every 64th lam checks the budget, counted from
    start, and, in a worker whose parent pid is given, that the parent is
    still there: an orphaned worker exits, since no one reads its half.
    """
    violations = []
    max_fai = -1
    max_fai_witnesses: list[str] = []
    mai_list = []
    mai_target = (n + 1) // 2

    for lam in lams:
        if lam % 64 == 0:
            if budget_seconds is not None and time.monotonic() - start > budget_seconds:
                raise CapabilityError(f"search budget of {budget_seconds}s exceeded at n={n}")
            if parent is not None and os.getppid() != parent:
                os._exit(1)
        f = Sanfv(n, lam)
        p = immunity.profile(f)
        if each is not None:
            each(p)
        for check in _bound_checks(n, p.deg, p.ai, p.fai):
            if not check.ok:
                violations.append(f"{f.to_string()}: {check.name}: {check.detail}")
        if p.fai > max_fai:
            max_fai = p.fai
            max_fai_witnesses = [f.to_string()]
        elif p.fai == max_fai:
            max_fai_witnesses.append(f.to_string())
        if p.ai == mai_target:
            mai_list.append(f.to_string())

    return SearchReport(
        n=n,
        count=len(lams),
        max_fai=max_fai,
        max_fai_witnesses=tuple(max_fai_witnesses),
        mai_list=tuple(mai_list),
        violations=tuple(violations),
        wall_time_s=time.monotonic() - start,
        profiles=(),
    )


def _merge(low: SearchReport, high: SearchReport) -> SearchReport:
    """The report of one fold over low's range followed by high's."""
    if low.max_fai == high.max_fai:
        witnesses = low.max_fai_witnesses + high.max_fai_witnesses
    else:
        witnesses = max(low, high, key=lambda r: r.max_fai).max_fai_witnesses
    return SearchReport(
        n=low.n,
        count=low.count + high.count,
        max_fai=max(low.max_fai, high.max_fai),
        max_fai_witnesses=witnesses,
        mai_list=low.mai_list + high.mai_list,
        violations=low.violations + high.violations,
        wall_time_s=max(low.wall_time_s, high.wall_time_s),
        profiles=low.profiles + high.profiles,
    )


def _census(n: int, budget_seconds: float | None = None, each=None) -> SearchReport:
    """Profile every f in SB_n in SANFV integer order, in this process, and fold the summary."""
    start = _start(n, budget_seconds)
    return _fold(n, range(1 << (n + 1)), budget_seconds, start, each)


def profile_all(n: int, budget_seconds: float | None = None) -> SearchReport:
    """Profile every f in SB_n and aggregate; deterministic.

    The report holds every profile.  Above the exact cap of
    immunity.profile (n <= 14) the first profile raises CapabilityError.
    """
    profiles: list[ImmunityProfile] = []
    report = _census(n, budget_seconds, profiles.append)
    return replace(report, profiles=tuple(profiles))


def find_symmetric_mai(n: int) -> list[Sanfv]:
    """All f in SB_n with maximum algebraic immunity, in SANFV integer order.

    This is the MAI list of the census of SB_n, so every AI comes with a
    verified annihilator and the same caps apply; no profile is held.
    """
    return [Sanfv.from_string(n, text) for text in _census(n).mai_list]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _search(n: int, budget_seconds: float | None, path: str | None) -> SearchReport:
    """The census of the search command: its report and, when path is given, its JSONL file.

    The report and the file are those of _census(n, budget_seconds) and
    write_profiles_jsonl(profile_all(n), path).  The SANFV range is folded
    as its lower half, range(2^n), and then its upper half; both are even
    aligned, so f and f+1, which share one scan, stay in one half.  This
    process folds the lower half.  From n = 10 up to the exact cap, with two
    usable CPUs, a forked worker folds the upper half meanwhile (see _work)
    and, if it exits 0, sends its report, which is merged after this
    process's.  Otherwise (no fan-out, a failed fork, a worker that did not
    exit 0) this process folds the upper half itself after its own: the
    census is deterministic, so an error of that half is raised here, in the
    order one fold would raise it, and any other loss of the worker costs
    time.

    With a path, the target is stat-ed once, before the census, and that
    mode decides the rest (only FileNotFoundError makes a target missing).
    An existing file or directory is opened for writing (not truncated), so
    an unwritable target fails at once; FIFOs are not opened.  Each process
    renders its profile lines, as they are made, into a _Body of its own.
    The bodies of a missing or regular target live in the directory of the
    file it names (a symlink is followed), where _publish stages the new
    file; those of any other target, which _publish writes in place, in the
    default temporary directory.  So a target whose directory is missing or
    unwritable fails before the census.  The summary comes first but is
    known last, so once the census is done _publish writes the summary line
    and then this process's body and, if the worker sent its report, the
    worker's.  A worker's body that is not published is closed at once.  If
    the census raises, path is neither created nor truncated.

    Before the fork this process profiles f = 0, which builds the per-n
    tables, and gc.freeze keeps the worker from copying the pages they live
    on.  The worker's report is read to its end before the worker is
    reaped, so a long message cannot block it.  If this process fails while
    the worker runs, the worker is killed and reaped before the error goes
    on.
    """
    fan_out = _FAN_OUT_N <= n <= immunity.MAX_EXACT_N and _usable_cpus() >= 2
    mode = None  # the target's st_mode, None while it is missing
    bodies: list[_Body] = []  # this process's, then the worker's
    pid = pipe = None
    try:
        if path is not None:
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                pass
            if mode is not None and (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
                os.close(os.open(path, os.O_WRONLY))
            directory = os.path.dirname(os.path.realpath(path)) if mode is None or stat.S_ISREG(mode) else None
            try:
                for _ in range(1 + fan_out):
                    bodies.append(_Body(directory))
            except OSError as exc:  # name the target, not the temporary file
                raise type(exc)(exc.errno, exc.strerror, path) from None
        start = _start(n, budget_seconds)
        lower, upper = range(1 << n), range(1 << n, 1 << (n + 1))
        own = bodies[0] if bodies else None
        if fan_out:
            immunity.profile(Sanfv(n, 0))
            sys.stdout.flush()
            sys.stderr.flush()
            parent = os.getpid()
            read_end, write_end = os.pipe()
            pipe = open(read_end, "rb")
            gc.freeze()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns that a fork of a multi-threaded process may
                    # deadlock in the child.  The CLI starts numpy with one OpenBLAS
                    # thread, but an in-process caller's numpy may run a worker pool;
                    # the worker calls no BLAS routine, so it takes none of the pool's
                    # locks, and it leaves by os._exit.
                    warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                pass
            if pid == 0:
                os.close(read_end)
                _work(write_end, n, upper, budget_seconds, start, bodies[1] if bodies else None, parent)
            os.close(write_end)
        mine = _fold(n, lower, budget_seconds, start, own)
        theirs = None
        if pid is not None:
            message = pipe.read()
            status, pid = os.waitpid(pid, 0)[1], None
            if status == 0:
                theirs = pickle.loads(message)
        if theirs is None:
            if fan_out and bodies:
                bodies.pop().file.close()
            theirs = _fold(n, upper, budget_seconds, start, own)
        report = _merge(mine, theirs)
        if path is not None:
            _publish(path, mode, json.dumps(report.to_json_dict(), sort_keys=True) + "\n", bodies)
    finally:
        if pid is not None:  # this process failed while the worker ran
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pipe is not None:
            pipe.close()
            gc.unfreeze()
        for body in bodies:
            body.file.close()
    return report


def _publish(path: str, mode: int | None, summary: str, bodies: list[_Body]) -> None:
    """Write summary and then the bodies' bytes to path, replacing a regular file only once all is written.

    mode is the target's st_mode as _search found it before the census, or
    None if it was missing; whatever appeared at path since is not looked
    at again.  A missing or regular target (a symlink is followed) gets a
    new file in its directory, created with mode 0o666 less the umask or
    with the old file's permission bits, and renamed over it when complete:
    if a write fails, the new file is removed and the old one is left as it
    was.  Any other target (a FIFO, a character device) is written in place.
    """
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as handle:
            _copy(summary, bodies, handle)
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    while True:
        staged = os.path.join(directory, f".{name}.{os.urandom(6).hex()}")
        try:
            fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # name the target, not the new file
            raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            _copy(summary, bodies, handle)
        os.replace(staged, target)
    except BaseException:
        os.unlink(staged)
        raise


def _copy(summary: str, bodies: list[_Body], handle) -> None:
    """Write the summary line and then each body's bytes to the binary file handle."""
    handle.write(summary.encode("utf-8"))
    for body in bodies:
        body.file.seek(0)  # flushes the body's text layer
        shutil.copyfileobj(body.file.buffer, handle)


def _work(write_end: int, n: int, lams: range, budget_seconds: float | None, start: float, body, parent: int) -> None:
    """Fold lams in a forked worker, send its report pickled on write_end, and leave the process.

    The worker leaves by os._exit, so it runs no cleanup of its parent's and
    never returns into the stack it was forked from: with status 0 once the
    report is sent, and with status 1, having sent nothing, on any error.
    The parent then folds lams itself and meets the error there.
    """
    code = 1
    try:
        report = _fold(n, lams, budget_seconds, start, body, parent)
        if body is not None:
            body.file.flush()
        with open(write_end, "wb") as pipe:
            pickle.dump(report, pipe)
        code = 0
    finally:
        os._exit(code)


class _Body:
    """One staging file of search --out; calling it renders a profile's line into it.

    The file has no name (O_TMPFILE on Linux, unlinked at creation on other
    POSIX systems), so the operating system removes it when it is closed or
    the process dies, however it dies.  One immunity._ProfileRenderer
    renders all of its lines, so each distinct witness is listed, and each
    monomial's text made, once per body.
    """

    def __init__(self, directory: str):
        self.file = tempfile.TemporaryFile("w+", encoding="utf-8", dir=directory)
        self._write = self.file.write
        self._render = _ProfileRenderer((", ", ": "), memo_monomials=True).render

    def __call__(self, p: ImmunityProfile) -> None:
        self._write(self._render(p))


def write_profiles_jsonl(report: SearchReport, path: str) -> None:
    """Dump one profile per line (stable field order) so reruns can be diffed.

    The first line is the summary; each profile line holds the bytes of
    json.dumps(p.to_json_dict(), sort_keys=True), as in the file of
    ``search --out``.  The lines are written to path in place, so a write
    that fails can leave a partial file; the search command stages its
    lines instead and leaves the target as it was.
    """
    render = _ProfileRenderer((", ", ": "), memo_monomials=True).render
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
        for p in report.profiles:
            handle.write(render(p))
