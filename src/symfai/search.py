"""Exhaustive enumeration of SB_n: profiles, extremal FAI, MAI census, JSONL.

profile_all(n) walks every symmetric function on n variables in SANFV
integer order, profiles it, and checks the full inequality suite; any
violation is a library defect and lands in the report.  The walk is one
fold over a stream of profiles: profile_all keeps them, while the MAI
census and the JSONL writer of ``search --out`` drop each one once it is
read, so their memory follows the distinct witnesses, not the 2^(n+1)
profiles.

The library calls fold in one process.  The census of the search command,
_search, uses up to two processes from n = 10: a forked worker folds the
upper half of the SANFV range while the caller folds the lower half, the
worker sends back its report (or its error) pickled, and the halves are
merged in SANFV order, so the summary, output file, stderr and exit code
are those of the one-process fold.  The per-n tables the worker shares
are built by profiling f = 0 before the fork.  write_profiles_jsonl, the
reference writer of the tests, writes a report's lines directly and
shares no staging code with the command.
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
from .attacks import bound_suite
from .errors import CapabilityError, InvariantViolation
from .immunity import ImmunityProfile, _ProfileRenderer
from .sanfv import Sanfv, _check_n

# Below this n a fork costs more than the half of the census it saves: on
# two CPUs n = 7 and 8 were slower forked and n = 9 was even.
_FAN_OUT_N = 10

# The exceptions a census raises that the command reports by type; a
# worker relays any other as a RuntimeError that carries its traceback.
_RELAYED = (CapabilityError, InvariantViolation, ValueError, OSError)


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
        report = bound_suite(p)
        for failure in report.failures():
            violations.append(f"{f.to_string()}: {failure.name}: {failure.detail}")
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
    write_profiles_jsonl(profile_all(n), path).  From n = 10 up to the
    exact cap, with two usable CPUs, the SANFV range is split into two
    even-aligned halves, so f and f+1, which share one scan, stay in one
    half; a forked worker folds the upper half while this process folds the
    lower, and the halves are merged in SANFV order.  Otherwise this process
    folds the whole range.

    With a path, each range's profile lines go, as they are rendered, to a
    _Body of its own in path's directory.  The summary comes first but is
    known last, so once the census is done _publish writes the summary line
    and then the bodies' bytes.  If the census raises, or the directory does
    not exist, path is neither created nor truncated.  An existing file or
    directory at path is opened for writing (not truncated) before the
    census, so an unwritable target fails at once; FIFOs are not opened.

    Before the fork this process profiles f = 0, which builds the per-n
    tables, and gc.freeze keeps the worker from copying the pages they live
    on.  The worker's result (see _work) is read to its end before the
    worker is reaped, so a long message cannot block it.  If this half
    fails, the worker is killed and reaped before the error goes on; an
    error of the worker's half is raised after this half, as a single fold
    would raise the lower half's error first.
    """
    parts = 2 if _FAN_OUT_N <= n <= immunity.MAX_EXACT_N and _usable_cpus() >= 2 else 1
    bodies: list[_Body] = []
    try:
        if path is not None:
            if os.path.isfile(path) or os.path.isdir(path):
                os.close(os.open(path, os.O_WRONLY))
            try:
                for _ in range(parts):
                    bodies.append(_Body(os.path.dirname(path) or "."))
            except OSError as exc:  # name the target, not the temporary file
                raise type(exc)(exc.errno, exc.strerror, path) from None
        start = _start(n, budget_seconds)
        size = (1 << (n + 1)) // parts
        lams = [range(i * size, (i + 1) * size) for i in range(parts)]
        each = bodies or [None] * parts
        if parts == 1:
            report = _fold(n, lams[0], budget_seconds, start, each[0])
        else:
            immunity.profile(Sanfv(n, 0))
            sys.stdout.flush()
            sys.stderr.flush()
            parent = os.getpid()
            read_end, write_end = os.pipe()
            gc.freeze()
            try:
                try:
                    with warnings.catch_warnings():
                        # Python 3.12 warns that a fork of a multi-threaded process (here
                        # numpy's OpenBLAS pool) may deadlock in the child.  The worker
                        # calls no BLAS routine, so it takes none of the pool's locks, and
                        # it leaves by os._exit.
                        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
                        pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    os.close(read_end)
                    _work(write_end, n, lams[1], budget_seconds, start, each[1], parent)
                os.close(write_end)
                try:
                    with open(read_end, "rb") as pipe:
                        mine = _fold(n, lams[0], budget_seconds, start, each[0])
                        message = pipe.read()
                    status = os.waitpid(pid, 0)[1]
                except BaseException:
                    import signal

                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    raise
            finally:
                gc.unfreeze()
            report = _merge(mine, _received(n, message, status))
        if path is not None:
            _publish(path, json.dumps(report.to_json_dict(), sort_keys=True) + "\n", bodies)
    finally:
        for body in bodies:
            body.file.close()
    return report


def _publish(path: str, summary: str, bodies: list[_Body]) -> None:
    """Write summary and then the bodies' bytes to path, replacing a regular file only once all is written.

    A missing or regular target (a symlink is followed) gets a new file in
    its directory, created with mode 0o666 less the umask or with the old
    file's permission bits, and renamed over it when complete: if a write
    fails, the new file is removed and the old one is left as it was.  Any
    other target (a FIFO, a character device) is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
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
    """Fold lams in a forked worker, send the result pickled on write_end, and leave the process.

    The result is the worker's report; or an error the command reports by
    type, re-made as its _RELAYED base type with the same text; or, for
    any other error, a RuntimeError that carries its traceback.  The worker
    leaves by os._exit, so it runs no cleanup of its parent's and never
    returns into the stack it was forked from: an error it cannot send
    (the parent is gone) ends it with status 1.
    """
    code = 1
    try:
        try:
            result = _fold(n, lams, budget_seconds, start, body, parent)
            if body is not None:
                body.file.flush()
        except Exception as exc:
            relayed = next((cls for cls in _RELAYED if isinstance(exc, cls)), None)
            if relayed is None:
                import traceback

                result = RuntimeError(traceback.format_exc())
            else:
                result = relayed(str(exc))
        with open(write_end, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)


def _received(n: int, message: bytes, status: int) -> SearchReport:
    """The worker's report, from what it sent and its wait status; raises what stopped it."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        import signal

        how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"
        raise CapabilityError(f"the census worker of n={n} {how}")
    sent = pickle.loads(message)
    if isinstance(sent, Exception):
        raise sent
    return sent


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
