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
This module holds only the census: how --out is examined, staged and
published is the CLI's (cli._Target), which hands _search the examined
target; _search renders its lines into files the target stages and gives
them back to the target's publish.  write_profiles_jsonl, the reference
writer of the tests, writes a report's lines directly.  Both write a
profile's line through one function, _writer.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import dataclass, replace

from . import immunity
from .bounds import _bound_checks
from .errors import CapabilityError
from .immunity import ImmunityProfile, _ProfileRenderer
from .sanfv import Sanfv, _check_n

# Below this n a fork saves no more than it costs: on two CPUs n = 7 and 8
# were slower forked or even, and n = 9, with the worker moved off its
# parent's CPU, was ahead in one series of ten pairs and even in two
# (BENCH_31.json).  At n = 10 and 11 the fork was even or ahead while the
# second CPU was free (BENCH_29.json) and behind when both processes shared
# one (BENCH_28.json), as they did whenever the kernel left the worker on
# its parent's CPU; with the move, n = 10 was ahead in 9 of 10 pairs
# (BENCH_31.json).
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


def _cpu(pid) -> int:
    """The CPU that process pid runs on or last ran on: field 39 of /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", "rb") as stat_file:
        return int(stat_file.read().rpartition(b")")[2].split()[36])


def _move_off(parent: int) -> None:
    """Keep this forked worker off its parent's CPU for a moment, then restore its mask (see _search).

    The worker reads its parent's CPU once and, when that CPU is in its mask
    of two or more CPUs, asks for the mask without that CPU and at once
    takes the whole mask back.  A worker that the kernel already ran on
    another CPU of the mask does not migrate, and on a larger mask the
    kernel chooses among the other CPUs.  Nothing moves without
    sched_setaffinity, with fewer than two CPUs in the mask, or when the
    parent's CPU is outside it; an OSError, /proc unreadable among them, is
    ignored.  If only the restore fails, the worker stays off its parent's
    CPU until it exits.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        mask = os.sched_getaffinity(0)
        if len(mask) < 2 or (cpu := _cpu(parent)) not in mask:
            return
        try:
            os.sched_setaffinity(0, mask - {cpu})
        finally:
            os.sched_setaffinity(0, mask)
    except OSError:
        pass


def _search(n: int, budget_seconds: float | None, out) -> SearchReport:
    """The census of the search command: its report and, when out is given, its JSONL file.

    out is the --out target as cli._Target examined it, or None.  The report
    and the file are those of _census(n, budget_seconds) and
    write_profiles_jsonl(profile_all(n), out.path).  The SANFV range is
    folded as its lower half, range(2^n), and then its upper half; both are
    even aligned, so f and f+1, which share one scan, stay in one half.
    This process folds the lower half.  From n = 10, with two usable CPUs,
    a forked worker folds the upper half meanwhile (see _work) and, if it
    exits 0, sends its report, which is merged after this process's.
    Otherwise (no fan-out, a failed fork, a worker that did not exit 0)
    this process folds the upper half itself after its own: the census is
    deterministic, so an error of that half is raised here, in the order
    one fold would raise it, and any other loss of the worker costs time.

    With a target, each process writes its profile lines, as they are
    made, through a _writer into a file of its own, staged by out before the
    census, so a target whose directory is missing or unwritable fails
    before any work.  The files are text files without a name (O_TMPFILE on
    Linux, unlinked at creation on other POSIX systems), so the operating
    system removes them when they are closed or the process dies, however
    it dies.  The summary comes first but is known last, so once the census
    is done out publishes the summary line and then this process's file
    and, if the worker sent its report, the worker's.  A worker's file that
    is not published is closed at once.  If the census raises, the target
    is neither created nor truncated.

    Before the fork this process profiles f = 0, which builds the per-n
    tables, or raises CapabilityError above the exact cap, before any fork.
    Linux often leaves a forked child on its parent's CPU, where two busy
    loops forked so ran no faster than one after the other (BENCH_31.json).
    So the worker, first thing, reads its parent's CPU from /proc, asks for
    its mask without that CPU and at once takes its whole mask back
    (_move_off), which leaves the scheduler free to move it when that CPU
    gets busy.  This process never touches its affinity, nor gc.
    The worker's report is read to its end before the worker is
    reaped, so a long message cannot block it.  If this process fails while
    the worker runs, the worker is killed and reaped before the error goes
    on.
    """
    fan_out = n >= _FAN_OUT_N and _usable_cpus() >= 2
    files = []  # this process's, then the worker's
    pid = pipe = None
    try:
        if out is not None:
            for _ in range(1 + fan_out):
                files.append(out.stage())
        start = _start(n, budget_seconds)
        lower, upper = range(1 << n), range(1 << n, 1 << (n + 1))
        own = _writer(files[0]) if files else None
        if fan_out:
            immunity.profile(Sanfv(n, 0))
            sys.stdout.flush()
            sys.stderr.flush()
            parent = os.getpid()
            read_end, write_end = os.pipe()
            pipe = open(read_end, "rb")
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
                _work(read_end, write_end, n, upper, budget_seconds, start, files[1] if files else None, parent)
            os.close(write_end)
        mine = _fold(n, lower, budget_seconds, start, own)
        theirs = None
        if pid is not None:
            message = pipe.read()
            status, pid = os.waitpid(pid, 0)[1], None
            if status == 0:
                theirs = pickle.loads(message)
        if theirs is None:
            if fan_out and files:
                files.pop().close()
            theirs = _fold(n, upper, budget_seconds, start, own)
        report = _merge(mine, theirs)
        if out is not None:
            out.publish(json.dumps(report.to_json_dict(), sort_keys=True) + "\n", files)
    finally:
        if pid:  # this process failed while the worker ran; a worker (pid 0) signals no one
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pipe is not None:
            pipe.close()
        for file in files:
            file.close()
    return report


def _work(read_end: int, write_end: int, n: int, lams: range, budget_seconds: float | None, start: float, file, parent: int) -> None:
    """Fold lams in a forked worker, send its report pickled on write_end, and leave the process.

    With a file, the worker writes its profile lines into it (see _writer)
    and flushes it before it sends its report.

    Everything the worker runs, from its step off its parent's CPU
    (_move_off) on, is inside one try, and it leaves by os._exit, so it
    runs no cleanup of its parent's and never returns into the stack it
    was forked from: with status 0 once the report is sent, and with status
    1, having sent nothing, on any error.  The parent then folds lams
    itself and meets the error there.
    """
    code = 1
    try:
        _move_off(parent)
        os.close(read_end)
        report = _fold(n, lams, budget_seconds, start, None if file is None else _writer(file), parent)
        if file is not None:
            file.flush()
        with open(write_end, "wb") as pipe:
            pickle.dump(report, pipe)
        code = 0
    finally:
        os._exit(code)


def _writer(file):
    """The fold's each for a text file: it writes a profile's JSON line into file.

    One immunity._ProfileRenderer renders all of the file's lines, so each
    distinct witness is listed once per file.
    """
    write, render = file.write, _ProfileRenderer((", ", ": ")).render
    return lambda p: write(render(p))


def write_profiles_jsonl(report: SearchReport, path: str) -> None:
    """Dump one profile per line (stable field order) so reruns can be diffed.

    The first line is the summary; each profile line holds the bytes of
    json.dumps(p.to_json_dict(), sort_keys=True), as in the file of
    ``search --out``.  The lines are written to path in place, so a write
    that fails can leave a partial file; the search command stages its
    lines instead and leaves the target as it was.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
        write = _writer(handle)
        for p in report.profiles:
            write(p)
