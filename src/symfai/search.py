"""Exhaustive enumeration of SB_n: profiles, extremal FAI, MAI census, tables.

profile_all(n) walks every symmetric function on n variables in SANFV
integer order, profiles it, and checks the full inequality suite; any
violation is a library defect and lands in the report.  The walk is one
fold over a stream of profiles: profile_all keeps them, while the MAI
census and the JSONL writer of ``search --out`` drop each one once it is
read, so their memory follows the distinct witnesses, not the 2^(n+1)
profiles.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, replace

from . import immunity
from .attacks import bound_suite
from .errors import CapabilityError
from .gf2 import iter_bits
from .immunity import ImmunityProfile
from .sanfv import Sanfv, _check_n


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


def _census(n: int, budget_seconds: float | None = None, each=None) -> SearchReport:
    """Profile every f in SB_n in SANFV integer order and fold the summary as it goes.

    Each profile is handed to each (when it is not None) and then dropped,
    so the fold holds only the summary: the report's profiles are empty.
    """
    _check_n(n)
    if budget_seconds is not None and not math.isfinite(budget_seconds):
        raise ValueError(f"budget must be a finite number of seconds, got {budget_seconds}")

    start = time.monotonic()
    violations = []
    max_fai = -1
    max_fai_witnesses: list[str] = []
    mai_list = []
    mai_target = (n + 1) // 2

    count = 1 << (n + 1)
    for lam in range(count):
        if budget_seconds is not None and lam % 64 == 0:
            if time.monotonic() - start > budget_seconds:
                raise CapabilityError(f"search budget of {budget_seconds}s exceeded at n={n}")
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
        count=count,
        max_fai=max_fai,
        max_fai_witnesses=tuple(max_fai_witnesses),
        mai_list=tuple(mai_list),
        violations=tuple(violations),
        wall_time_s=time.monotonic() - start,
        profiles=(),
    )


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


class _ProfileRenderer:
    """JSON lines of profile records, written directly from the witnesses' masks.

    ``render(p, extra)`` gives the bytes of json.dumps(d, sort_keys=True,
    separators=separators) plus a newline, where d is p.to_json_dict() with
    the items of extra added.  It builds neither that dict nor the encoder's
    token list.  Each distinct witness tuple is listed once: listings are
    keyed by the tuple's identity, and each entry holds the tuple, so its id
    is not reused while the renderer lives.  With ``memo_monomials`` each
    monomial's text is also kept, made the first time a witness holds its
    mask; that pays off across the many witnesses of a census, while a
    single render keeps its peak small without it.
    """

    def __init__(self, separators: tuple[str, str], memo_monomials: bool = False):
        self.item, self.key = separators
        self._monomials: dict[int, str] | None = {} if memo_monomials else None
        self._listings: dict[int, tuple[tuple[int, ...], str]] = {}

    def _listed(self, masks: tuple[int, ...]) -> str:
        entry = self._listings.get(id(masks))
        if entry is None:
            item, memo = self.item, self._monomials

            def text(m: int) -> str:
                return "[" + item.join(map(str, iter_bits(m))) + "]"

            if memo is None:
                parts = [text(m) for m in masks]
            else:
                parts = [memo.get(m) or memo.setdefault(m, text(m)) for m in masks]
            entry = self._listings[id(masks)] = (masks, "[" + item.join(parts) + "]")
        return entry[1]

    def render(self, p: ImmunityProfile, extra: tuple[tuple[str, str], ...] = ()) -> str:
        """One line of JSON; extra holds (key, JSON text) pairs in key order.

        The keys of extra must sort between "ai_witness" and "capped", as the
        analyze payload's "bounds" and "bounds_ok" do: that is where they go.
        """
        item, key = self.item, self.key
        if p.fai_witness is None:
            fai_witness = "null"
        else:
            g, h = p.fai_witness
            fai_witness = f'{{"g"{key}{self._listed(g)}{item}"h"{key}{self._listed(h)}}}'
        extra_text = "".join([f'{item}"{name}"{key}{text}' for name, text in extra])
        deg = p.deg
        return (
            f'{{"ai"{key}{p.ai}{item}"ai_witness"{key}{self._listed(p.ai_witness)}{extra_text}{item}'
            f'"capped"{key}{"true" if p.capped else "false"}{item}"deg"{key}{"null" if deg is None else deg}{item}'
            f'"f"{key}"{p.f.to_string()}"{item}"fai"{key}{p.fai}{item}"fai_witness"{key}{fai_witness}{item}'
            f'"n"{key}{p.f.n}}}\n'
        )


def write_profiles_jsonl(report: SearchReport, path: str) -> None:
    """Dump one profile per line (stable field order) so reruns can be diffed.

    The first line is the summary; each profile line holds the bytes of
    json.dumps(p.to_json_dict(), sort_keys=True).  This is the writer of
    _census_jsonl, run over the report's profiles.
    """

    def replay(emit) -> SearchReport:
        for p in report.profiles:
            emit(p)
        return report

    _write_jsonl(path, replay)


def _census_jsonl(n: int, budget_seconds: float | None, path: str) -> SearchReport:
    """Run the census of SB_n into path as write_profiles_jsonl(profile_all(n), path) would.

    Each line is written as its profile is made, so no profile is held.
    """
    return _write_jsonl(path, lambda emit: _census(n, budget_seconds, emit))


def _write_jsonl(path: str, census) -> SearchReport:
    """Write the summary line and then one line per profile to path; return the report.

    census(emit) calls emit on each profile in order and returns the
    report.  One _ProfileRenderer renders the whole file, so each distinct
    witness is listed, and each monomial's text made, once per write.  The
    summary comes first but is known last, so the profile lines go to a
    temporary file in path's directory as they are rendered; then path
    gets the summary line and the temporary file's bytes.  The temporary
    file is always removed.  If census raises, or the directory does not
    exist, path is neither created nor truncated.
    """
    try:
        fd, staged = tempfile.mkstemp(suffix=".jsonl.tmp", dir=os.path.dirname(path) or ".")
    except OSError as exc:  # name the target, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        render = _ProfileRenderer((", ", ": "), memo_monomials=True).render
        with open(fd, "w", encoding="utf-8") as body:
            write = body.write
            report = census(lambda p: write(render(p)))
        with open(staged, "rb") as body, open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
            _append_file(handle, body)
    finally:
        os.unlink(staged)
    return report


def _append_file(handle, source) -> None:
    """Append the bytes of the binary file source to the text file handle.

    os.sendfile copies them kernel-side where the platform has it between
    two files; elsewhere they pass through this process in chunks.
    """
    handle.flush()
    offset = 0
    try:
        while sent := os.sendfile(handle.fileno(), source.fileno(), offset, 1 << 30):
            offset += sent
    except (AttributeError, OSError):  # no os.sendfile, or none between two files
        if offset:
            raise
        shutil.copyfileobj(source, handle.buffer)


# ---------------------------------------------------------------------------
# the two bound tables
# ---------------------------------------------------------------------------


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
