"""Exhaustive search harness: reports, MAI census, tables, persistence."""

import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import pytest

import symfai as s
from symfai import immunity, search
from symfai.bounds import bound_suite, lower_degree_table, tables_csv, upper_ai_table
from symfai.cli import main
from symfai.errors import CapabilityError, InvariantViolation
from symfai.search import profile_all, write_profiles_jsonl

from conftest import graded_reference, json_reference, run_python


# sha256 of the file of search --n k --out, k = 1..10, pinned from the
# census before its scan was rewritten as one loop per level
_SEARCH_OUT_SHA256 = {
    1: "01f49f357e357fe00b0386f3b54b5bc60a1ec7fe41adc6df1c547386b0dcea54",
    2: "bb842535e0b21ab88f8f1b47560bac96e6a96528ebc0c2c88afb33dafa22a2a9",
    3: "88595f445190be67e15077ec6709c437c752ea00a49d460f3efdd57330bd4978",
    4: "e5d5d7af081896c5b9e05a035afe238a16a93252a0279afa18c9e3eb04b9e8f9",
    5: "6d600e8766602d0c26145f29b58bb500e4e0a1ef525aeed6ccad5d9c91297592",
    6: "d95e287ac873d9015836eb0bdbbfae1cc3d133ddc1b4a8752ff1dc6230321cf7",
    7: "73820368a3bbf7c70061b185685f629bfb092c62efa2351af2ea965a8c2a6afb",
    8: "a76f5f66d43a23c3ebe478aa46ed188482e103e539f198b43927c8ccf681379c",
    9: "fc8b93f564be7070c9f0997783f4d3ec79337386b1f12f9ba3bf08941170b857",
    10: "17e0471aa0ed1d93ea6f4cd1cba0ca95ec0463d5cd90fae5ed5bd6cd5c6204b0",
    11: "ce7570d2d65ac34c8c7b3a0c1ab50374ea992e0c913d2e5a8b295a2c2b4e4eec",
}


@pytest.mark.parametrize("n", sorted(_SEARCH_OUT_SHA256))
def test_search_out_bytes_are_pinned(tmp_path, n):
    # n = 6 holds the FAI = n exception: exit 4, and the file is still written
    path = tmp_path / "census.jsonl"
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        assert main(["search", "--n", str(n), "--out", str(path)]) == (4 if n == 6 else 0)
    assert out.getvalue() == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _SEARCH_OUT_SHA256[n]


def test_profile_all_counts():
    for n in (3, 5):
        assert profile_all(n).count == 1 << (n + 1)


def test_profile_all_n5():
    report = profile_all(5)
    assert report.max_fai == 4
    assert report.violations == ()
    assert len(report.mai_list) == 2


def test_profile_all_n6_known_exception():
    # the strict below-n claim fails for exactly the eight functions
    # sigma_4 + a*sigma_3 + b*sigma_1 + c; every other inequality holds
    report = profile_all(6)
    assert report.max_fai == 6
    expected = sorted(
        s.Sanfv(6, (1 << 4) | (a << 3) | (b << 1) | c).to_string()
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    )
    assert sorted(report.max_fai_witnesses) == expected
    assert len(report.violations) == 8
    assert all("fai_below_n" in v for v in report.violations)


def test_census_violation_text_is_bound_suites():
    # the census reads the memoised checks instead of a BoundReport per
    # function; its strings are those of bound_suite's failures, in order
    expected = [
        f"{p.f.to_string()}: {check.name}: {check.detail}"
        for p in profile_all(6).profiles
        for check in bound_suite(p).failures()
    ]
    assert len(expected) == 8
    assert list(search._census(6).violations) == expected


def test_profile_all_n11_holds_every_bound():
    # the fai_below_n exceptions stay at n = 6: every check holds on SB_11
    assert profile_all(11).violations == ()


def test_profile_all_enumeration_order():
    report = profile_all(4)
    assert [p.f.bits for p in report.profiles] == list(range(1 << 5))


def test_profile_all_retains_no_report():
    ref = weakref.ref(profile_all(4))
    gc.collect()
    assert ref() is None


def _most_profiles_alive(monkeypatch, run):
    """The most profiles alive at once while run() walks the census of SB_8."""
    made, most = [], 0
    original = immunity.profile

    def tracked(f):
        nonlocal most
        p = original(f)
        made.append(weakref.ref(p))
        most = max(most, sum(ref() is not None for ref in made))
        return p

    monkeypatch.setattr(immunity, "profile", tracked)
    run()
    assert len(made) == 1 << 9
    return most


def test_streamed_census_holds_no_profile(monkeypatch, tmp_path):
    # the current profile and the one before it, whose names the loop still
    # binds; one CPU keeps the whole census in this process
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    for run in (
        lambda: s.find_symmetric_mai(8),
        lambda: main(["search", "--n", "8"]),
        lambda: main(["search", "--n", "8", "--out", str(tmp_path / "census.jsonl")]),
    ):
        assert _most_profiles_alive(monkeypatch, run) <= 2
    assert _most_profiles_alive(monkeypatch, lambda: profile_all(8)) == 1 << 9


def test_profile_all_limits():
    with pytest.raises(CapabilityError):
        profile_all(15)
    with pytest.raises(CapabilityError):
        profile_all(1, budget_seconds=-1.0)


def test_profile_matches_census_entry():
    for n in range(1, 9):
        for p in profile_all(n).profiles:
            assert s.profile(p.f).to_json_dict() == p.to_json_dict(), p.f.to_string()


def test_profile_all_verifies_every_ai_witness(monkeypatch):
    from symfai import immunity

    def reject(*args):
        raise InvariantViolation("rejected")

    monkeypatch.setattr(immunity, "_verify_annihilator", reject)
    with pytest.raises(InvariantViolation):
        profile_all(3)


def _last_repeat(witnesses):
    """Index of the last entry equal to an earlier one, or None."""
    seen, last = set(), None
    for i, witness in enumerate(witnesses):
        if witness in seen:
            last = i
        seen.add(witness)
    return last


def _reject_only(monkeypatch, name, f):
    """Stub the named verifier so that it rejects f alone and passes every other call on."""
    from symfai import immunity

    original = getattr(immunity, name)
    target = s.dense_from_sanfv(f).bits

    def stub(f_tt, *args):
        if f_tt == target:
            raise InvariantViolation("rejected")
        return original(f_tt, *args)

    monkeypatch.setattr(immunity, name, stub)
    immunity._witness.cache_clear()


def test_profile_all_verifies_a_repeated_ai_witness(monkeypatch):
    # the rejected function's annihilator is already in the witness memos
    # from an earlier function of the same census, so this fails if a memo
    # keeps verdicts instead of expansions
    profiles = profile_all(6).profiles
    late = _last_repeat([p.ai_witness for p in profiles])
    assert late is not None
    _reject_only(monkeypatch, "_verify_annihilator", profiles[late].f)
    with pytest.raises(InvariantViolation):
        profile_all(6)


def test_profile_all_verifies_a_repeated_fai_pair(monkeypatch):
    paired = [p for p in profile_all(6).profiles if p.fai_witness is not None]
    late = _last_repeat([p.fai_witness for p in paired])
    assert late is not None
    _reject_only(monkeypatch, "_verify_pair", paired[late].f)
    with pytest.raises(InvariantViolation):
        profile_all(6)


def test_find_symmetric_mai_9():
    mai = s.find_symmetric_mai(9)
    maj = s.majority(9)
    assert mai == [maj, s.add(maj, s.Sanfv(9, 1))]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_find_symmetric_mai_odd_n_is_majority(n):
    # Li and Qi (IEEE Trans. Inf. Theory, 2006): for odd n only the majority
    # function and its complement have maximum AI
    maj = s.majority(n)
    assert s.find_symmetric_mai(n) == [maj, s.add(maj, s.Sanfv(n, 1))]


def test_find_symmetric_mai_matches_census():
    for n in range(1, 9):
        census = [p.f for p in profile_all(n).profiles if p.ai == (n + 1) // 2]
        assert s.find_symmetric_mai(n) == census, n


def test_find_symmetric_mai_limits():
    with pytest.raises(CapabilityError):
        s.find_symmetric_mai(15)
    with pytest.raises(ValueError, match="positive integer"):
        s.find_symmetric_mai(0)


def test_find_symmetric_mai_8_structure():
    mai = s.find_symmetric_mai(8)
    assert {f.degree() for f in mai} <= {4, 8}
    assert all(s.mul(s.sigma(8, 1), f).degree() == 5 for f in mai)


def test_tables_match_known_cells():
    upper, lower = upper_ai_table(), lower_degree_table()
    assert upper == [
        ("1", 1),
        ("2-3", 2),
        ("4-7", 4),
        ("8-15", 8),
        ("16-31", 16),
        ("32-63", 32),
        ("64-127", 64),
        ("128-255", 128),
    ]
    assert lower == [
        ("1", 1),
        ("2", 2),
        ("3-4", 4),
        ("5-8", 8),
        ("9-16", 16),
        ("17-32", 32),
        ("33-64", 64),
        ("65-128", 128),
    ]


def test_tables_csv_shape():
    text = tables_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "degree_band,upper_ai"
    assert "8-15,8" in lines
    assert "ai_band,lower_degree" in lines
    assert "5-8,8" in lines
    assert "1,1" in lines


def test_profiles_jsonl_roundtrip(tmp_path):
    report = profile_all(4)
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    write_profiles_jsonl(report, str(path_a))
    write_profiles_jsonl(profile_all(4), str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    lines = path_a.read_text().splitlines()
    assert len(lines) == report.count + 1
    header = json.loads(lines[0])
    assert header["n"] == 4 and "wall_time_s" not in header
    row = json.loads(lines[1])
    assert row["f"] == "00000"


def test_streamed_out_equals_the_report_writer(tmp_path):
    for n in range(1, 9):
        streamed, written = tmp_path / f"streamed-{n}.jsonl", tmp_path / f"written-{n}.jsonl"
        code = main(["search", "--n", str(n), "--out", str(streamed)])
        assert code == (4 if n == 6 else 0), n
        write_profiles_jsonl(profile_all(n), str(written))
        assert streamed.read_bytes() == written.read_bytes(), n
    assert len(list(tmp_path.iterdir())) == 16  # no temporary file is left


def test_out_of_a_killed_census_leaves_no_file(tmp_path):
    # the body is staged in a file without a name, so a process that dies
    # mid-census, with no cleanup run, leaves nothing in the directory; the
    # exit status 7 shows that the census, and not some other error, ended it
    code = """
import os, sys
from symfai import immunity
from symfai.cli import main

real, calls = immunity.profile, 0

def dying(f):
    global calls
    calls += 1
    if calls == 40:
        os._exit(7)
    return real(f)

immunity.profile = dying
main(["search", "--n", "5", "--out", sys.argv[1]])
"""
    proc = run_python("-c", code, str(tmp_path / "census.jsonl"), text=True)
    assert proc.returncode == 7, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_out_of_a_failing_census_keeps_the_target(tmp_path, monkeypatch, capsys):
    # a census that raises with lines already staged exits 4, leaves the
    # earlier file byte-identical and leaves no other file
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    target = tmp_path / "census.jsonl"
    assert main(["search", "--n", "4", "--out", str(target)]) == 0
    before = target.read_bytes()
    real, calls = immunity.profile, 0

    def failing(f):
        nonlocal calls
        calls += 1
        if calls == 100:
            raise InvariantViolation("injected at the 100th profile")
        return real(f)

    monkeypatch.setattr(immunity, "profile", failing)
    capsys.readouterr()
    assert main(["search", "--n", "8", "--out", str(target)]) == 4
    out, err = capsys.readouterr()
    assert calls == 100 and out == "" and "injected at the 100th profile" in err
    assert list(tmp_path.iterdir()) == [target] and target.read_bytes() == before


@pytest.mark.parametrize("n", [8, 10], ids=["one-process", "fanned-out"])
def test_a_failed_write_over_an_existing_target_keeps_it(n, tmp_path, monkeypatch, capsys):
    # the disk fills up while the bodies are copied: exit 2, the old bytes
    # intact and no other file left
    target = tmp_path / "census.jsonl"
    target.write_text("kept\n")
    copied = []

    def no_space(source, destination):
        destination.write(source.read(1000))
        copied.append(destination)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(shutil, "copyfileobj", no_space)
    assert main(["search", "--n", str(n), "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert copied and out == "" and "No space left on device" in err
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "kept\n"


def test_out_replaces_a_file_with_its_permission_bits(tmp_path):
    expected = tmp_path / "expected.jsonl"
    assert main(["search", "--n", "6", "--out", str(expected)]) == 4
    existing = tmp_path / "existing.jsonl"
    existing.write_text("kept\n")
    existing.chmod(0o604)
    real = tmp_path / "real.jsonl"
    real.write_text("kept\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(real.name)
    old_umask = os.umask(0o027)
    try:
        for target in (existing, tmp_path / "new.jsonl", link):
            assert main(["search", "--n", "6", "--out", str(target)]) == 4
    finally:
        os.umask(old_umask)
    assert (existing.stat().st_mode & 0o777, (tmp_path / "new.jsonl").stat().st_mode & 0o777) == (0o604, 0o640)
    # a symlink is followed: the link stays and the file it names is replaced
    assert link.is_symlink() and os.readlink(link) == real.name
    for target in (existing, tmp_path / "new.jsonl", real):
        assert target.read_bytes() == expected.read_bytes(), target.name
    names = ["existing.jsonl", "expected.jsonl", "link.jsonl", "new.jsonl", "real.jsonl"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names  # no new file left behind


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_out_to_a_fifo_writes_in_place(tmp_path):
    expected = tmp_path / "expected.jsonl"
    assert main(["search", "--n", "5", "--out", str(expected)]) == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(["search", "--n", "5", "--out", str(fifo)]) == 0
    finally:
        reader.join(30)
    assert not reader.is_alive() and got == [expected.read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.jsonl", "pipe"]


def test_out_stages_beside_the_file_it_writes(tmp_path, monkeypatch):
    # a missing or regular target is staged in the directory of the file it
    # names, where the new file is made; a device, written in place, in the
    # default temporary directory, since its own directory may be unwritable
    other = tmp_path / "other"
    other.mkdir()
    (other / "real.jsonl").write_text("kept\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(other / "real.jsonl")
    dirs, real = [], tempfile.TemporaryFile

    def spy(*args, dir=None, **kwargs):
        dirs.append(dir)
        return real(*args, dir=dir, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    for target in (tmp_path / "new.jsonl", link, os.devnull):
        assert main(["search", "--n", "4", "--out", str(target)]) == 0
    assert dirs == [os.path.realpath(tmp_path), os.path.realpath(other), None]
    # a fanned-out census stages this process's body and the worker's there
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    with _deadline(60):
        assert main(["search", "--n", "10", "--out", str(link)]) == 0
    assert dirs[3:] == [os.path.realpath(other)] * 2


def test_out_through_a_symlink_into_a_missing_directory_fails_before_the_census(tmp_path, monkeypatch, capsys):
    link = tmp_path / "link.jsonl"
    link.symlink_to(tmp_path / "missing" / "census.jsonl")

    def profile(f):
        raise AssertionError("the census ran")

    monkeypatch.setattr(immunity, "profile", profile)
    assert main(["search", "--n", "12", "--out", str(link)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{link}'\n")
    assert list(tmp_path.iterdir()) == [link]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_out_to_proc_self_fd_writes_to_that_descriptor(tmp_path):
    expected = tmp_path / "expected.jsonl"
    write_profiles_jsonl(profile_all(4), str(expected))
    proc = run_python("-m", "symfai.cli", "search", "--n", "4", "--out", "/proc/self/fd/1")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected.read_bytes()


def _relisted_json(masks):
    """Variable lists of the masks, re-listed from their ANF by the pure-Python definitions."""
    anf = 0
    for m in masks:
        anf ^= 1 << m
    return json_reference(graded_reference(anf))


def test_profiles_jsonl_matches_pure_python_rebuild(tmp_path):
    report = profile_all(8)
    path = tmp_path / "census.jsonl"
    write_profiles_jsonl(report, str(path))
    expected = [json.dumps(report.to_json_dict(), sort_keys=True)]
    for p in report.profiles:
        witness = None
        if p.fai_witness is not None:
            witness = {"g": _relisted_json(p.fai_witness[0]), "h": _relisted_json(p.fai_witness[1])}
        row = {
            "f": p.f.to_string(),
            "n": p.f.n,
            "deg": p.deg,
            "ai": p.ai,
            "ai_witness": _relisted_json(p.ai_witness),
            "fai": p.fai,
            "fai_witness": witness,
            "capped": p.capped,
        }
        expected.append(json.dumps(row, sort_keys=True))
    lines = path.read_text().splitlines()
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        assert line == want


def test_profiles_jsonl_lines_equal_json_dumps(tmp_path):
    # the directly written lines against the encoder; the cases must reach
    # every branch of the line format
    seen = set()
    for n in range(1, 10):
        report = profile_all(n)
        path = tmp_path / f"census-{n}.jsonl"
        write_profiles_jsonl(report, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == report.count + 1
        assert lines[0] == json.dumps(report.to_json_dict(), sort_keys=True)
        for line, p in zip(lines[1:], report.profiles):
            assert line == json.dumps(p.to_json_dict(), sort_keys=True), (n, p.f.to_string())
            seen.add(("deg", p.deg is None))
            seen.add(("fai_witness", p.fai_witness is None))
            seen.add(("capped", p.capped))
    assert seen == {(key, flag) for key in ("deg", "fai_witness", "capped") for flag in (True, False)}


def test_profiles_jsonl_lists_equal_but_separate_witnesses(tmp_path):
    # every profile gets fresh copies of its witness tuples, made as the
    # writer reaches it and dropped after its line: equal contents under
    # other identities, and ids that CPython may hand to the next copies
    report = profile_all(7)

    def copy(masks):
        return tuple(list(masks))

    def fresh_profiles():
        for p in report.profiles:
            pair = None if p.fai_witness is None else (copy(p.fai_witness[0]), copy(p.fai_witness[1]))
            yield s.ImmunityProfile(p.f, p.ai, copy(p.ai_witness), p.fai, pair)

    path = tmp_path / "fresh.jsonl"
    write_profiles_jsonl(dataclasses.replace(report, profiles=fresh_profiles()), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == report.count + 1
    for line, p in zip(lines[1:], report.profiles):
        assert line == json.dumps(p.to_json_dict(), sort_keys=True), p.f.to_string()


# ---------------------------------------------------------------------------
# the search command's census on two processes
# ---------------------------------------------------------------------------


def _summary(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def _counted_forks(monkeypatch) -> list:
    """Record each os.fork call of this process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


@pytest.mark.skipif(search._usable_cpus() < 2, reason="the census fans out only with two usable CPUs")
@pytest.mark.parametrize("n", [10, 11, 12])
def test_fanned_out_search_equals_the_one_process_census(n, tmp_path, monkeypatch, capsys):
    forks = _counted_forks(monkeypatch)
    streamed, written = tmp_path / "streamed.jsonl", tmp_path / "written.jsonl"
    assert main(["search", "--n", str(n), "--out", str(streamed)]) == 0
    assert main(["search", "--n", str(n)]) == 0
    out, err = capsys.readouterr()
    assert len(forks) == 2 and err == ""
    report = profile_all(n)
    write_profiles_jsonl(report, str(written))
    assert streamed.read_bytes() == written.read_bytes()
    assert out == _summary(report)
    assert sorted(tmp_path.iterdir()) == [streamed, written]


def _report(max_fai, witnesses, mai, violations):
    return search.SearchReport(3, 4, max_fai, witnesses, mai, violations, 0.0, ())


@pytest.mark.parametrize(
    "high_fai, witnesses",
    [(6, ("c",)), (5, ("a", "b", "c")), (4, ("a", "b"))],
    ids=["above", "equal", "below"],
)
def test_merge_keeps_the_order_of_one_fold(high_fai, witnesses):
    low = _report(5, ("a", "b"), ("m1", "m2"), ("v1",))
    high = _report(high_fai, ("c",), ("m3",), ("v2", "v3"))
    merged = search._merge(low, high)
    assert (merged.count, merged.max_fai, merged.max_fai_witnesses) == (8, max(5, high_fai), witnesses)
    assert merged.mai_list == ("m1", "m2", "m3")
    assert merged.violations == ("v1", "v2", "v3")


def test_merged_halves_equal_the_whole_census():
    # SB_6 has bound violations; no lam below 16 reaches its maximum FAI,
    # and a split at 22 leaves maximal functions in both halves
    whole = search._census(6)
    for split in (0, 16, 22, 64, 100, 128):
        low, high = (search._fold(6, lams, None, 0.0) for lams in (range(split), range(split, 128)))
        merged = search._merge(low, high)
        assert _summary(merged) == _summary(whole), split


def test_library_calls_never_fork(tmp_path, monkeypatch):
    # nor touch the affinity mask
    def fork(*args):
        raise AssertionError("forked or touched affinity")

    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", fork, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", fork, raising=False)
    monkeypatch.setattr(search, "_cpu", fork)
    report = profile_all(10)
    assert s.find_symmetric_mai(10) == [s.Sanfv.from_string(10, t) for t in report.mai_list]
    # above the exact cap the search command raises before any fork, from
    # the profile of f = 0 that builds the tables, and creates no file
    assert main(["search", "--n", "15"]) == 3
    assert main(["search", "--n", "15", "--out", str(tmp_path / "capped.jsonl")]) == 3
    assert list(tmp_path.iterdir()) == []


_FREEZE_KEPT = """
import gc, os, sys
from symfai import search
from symfai.cli import main

search._usable_cpus = lambda: 2
forks, fork = [], os.fork
os.fork = lambda: forks.append(None) or fork()
gc.freeze()
counts = [gc.get_freeze_count()]
main(["search", "--n", "10"])
counts.append(gc.get_freeze_count())
search._search(10, None, None)
counts.append(gc.get_freeze_count())
sys.stderr.write(f"{len(forks)} {counts}")
"""


def test_the_census_leaves_the_callers_frozen_heap_alone():
    # main(argv) leaves gc alone, and so does the fanned-out census inside
    # it.  A fresh process, since a test process frees frozen objects of its
    # own meanwhile
    proc = run_python("-c", _FREEZE_KEPT, text=True)
    assert proc.returncode == 0, proc.stderr
    forks, counts = proc.stderr.split(" ", 1)
    counts = json.loads(counts)
    assert forks == "2" and counts[0] > 0 and counts == [counts[0]] * 3


_TEST_PID = os.getpid()


def _fail_at(monkeypatch, lam, act):
    """Make immunity.profile call act(monkeypatch) at Sanfv(10, lam); a fork inherits the patch."""
    real = immunity.profile

    def failing(f):
        if f.bits == lam:
            act(monkeypatch)
        return real(f)

    monkeypatch.setattr(immunity, "profile", failing)


def _raise_invariant(monkeypatch):
    raise InvariantViolation("injected")


def _raise_value_error(monkeypatch):
    raise ValueError("injected")


def _raise_no_space(monkeypatch):
    raise OSError(28, "No space left on device")


def _divide_by_zero(monkeypatch):
    1 // 0


def _exceed_budget(monkeypatch):
    # the clock of the process that profiles lam jumps past any budget;
    # the test process gets its own back when monkeypatch is undone
    real = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: real() + 1e9)


def _run_census(monkeypatch, capsys, cpus, lam, act, target):
    """Run search --n 10 --out target on cpus usable CPUs with act at lam.

    Returns the exit code (or the error raised), stdout, stderr, the bytes
    of each file in target's directory, and the number of forks.
    """
    with monkeypatch.context() as patch:
        patch.setattr(search, "_usable_cpus", lambda: cpus)
        forks = _counted_forks(patch)
        _fail_at(patch, lam, act)
        capsys.readouterr()
        argv = ["search", "--n", "10", "--budget-seconds", "1000", "--out", str(target)]
        with _deadline(60):
            try:
                result = main(argv)
            except ZeroDivisionError as exc:
                result = (type(exc), exc.args)
    out, err = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in target.parent.iterdir()}
    return result, out, err, files, len(forks)


_FAULTS = [
    ("invariant", _raise_invariant, 4, "invariant violation: injected\n"),
    ("valueerror", _raise_value_error, 2, "error: injected\n"),
    ("oserror", _raise_no_space, 2, "error: [Errno 28] No space left on device\n"),
    ("zerodivision", _divide_by_zero, (ZeroDivisionError, ("integer division or modulo by zero",)), ""),
    ("budget", _exceed_budget, 3, "capability error: search budget of 1000.0s exceeded at n=10\n"),
]


@pytest.mark.parametrize(
    "lam, act, result, message",
    [(lam, act, result, message) for lam in (1024 + 65, 65) for _, act, result, message in _FAULTS],
    ids=[f"{half}-{name}" for half in ("worker", "parent") for name, *_ in _FAULTS],
)
def test_a_failing_fanned_out_census_reports_like_one_process(lam, act, result, message, tmp_path, monkeypatch, capsys):
    # SB_10's upper half, lam >= 1024, is the worker's; a fault of that
    # half happens again when this process folds it in the worker's place
    target = tmp_path / "census.jsonl"
    target.write_text("kept\n")
    fanned = _run_census(monkeypatch, capsys, 2, lam, act, target)
    alone = _run_census(monkeypatch, capsys, 1, lam, act, target)
    assert alone == (result, "", message, {"census.jsonl": b"kept\n"}, 0)
    assert fanned == alone[:4] + (1,)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counterexample():
    exc = InvariantViolation("injected")
    exc.counterexample = "sigma_5"
    return exc


@pytest.mark.parametrize("make", [_counterexample, ZeroDivisionError], ids=["invariant", "zerodivision"])
def test_an_error_of_the_upper_half_reaches_the_caller_as_itself(make, monkeypatch):
    raised = []

    def act(patch):
        raised.append(make())
        raise raised[-1]

    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    forks = _counted_forks(monkeypatch)
    _fail_at(monkeypatch, 1024 + 65, act)
    with _deadline(60), pytest.raises((InvariantViolation, ZeroDivisionError)) as info:
        search._search(10, None, None)
    # the worker's copy is lost with it; this process raised the one that arrived
    assert len(forks) == 1 and len(raised) == 1 and info.value is raised[0]
    if make is _counterexample:
        assert info.value.counterexample == "sigma_5"


def _kill_worker(monkeypatch):
    if os.getpid() != _TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)


def _exit_worker(monkeypatch):
    if os.getpid() != _TEST_PID:
        os._exit(3)


def _fail_worker(monkeypatch):
    if os.getpid() != _TEST_PID:
        raise InvariantViolation("only the worker meets this")


@pytest.fixture(scope="module")
def census10(tmp_path_factory) -> bytes:
    """The bytes of write_profiles_jsonl(profile_all(10))."""
    path = tmp_path_factory.mktemp("reference") / "census.jsonl"
    write_profiles_jsonl(profile_all(10), str(path))
    return path.read_bytes()


@pytest.mark.parametrize(
    "act", [_kill_worker, _exit_worker, _fail_worker, None], ids=["killed", "exit-3", "worker-error", "fork-eagain"]
)
def test_a_lost_worker_costs_time_not_the_census(act, census10, tmp_path, monkeypatch, capsys):
    # the worker fails late in its half, with most of its lines staged
    target = tmp_path / "census.jsonl"
    target.write_text("old\n")
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    if act is None:
        forks = []

        def fork():
            forks.append(None)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
    else:
        forks = _counted_forks(monkeypatch)
        _fail_at(monkeypatch, 2040, act)
    capsys.readouterr()
    with _deadline(60):
        assert main(["search", "--n", "10", "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert len(forks) == 1 and target.read_bytes() == census10
    assert list(tmp_path.iterdir()) == [target]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_CLOSE_FAILS_IN_THE_WORKER = """
import os, sys
from symfai import search
from symfai.cli import main

parent, close = os.getpid(), os.close

def failing(fd):
    if os.getpid() != parent:
        raise OSError(9, "injected in the worker")
    close(fd)

search._usable_cpus = lambda: 2
os.close = failing
sys.exit(main(["search", "--n", "10", "--out", sys.argv[1]]))
"""


def test_a_worker_that_fails_at_its_first_step_costs_time_not_the_census(tmp_path):
    # the worker's first call, the close of its copy of the pipe's read end,
    # raises: the worker exits 1 and this process folds its half.  Its own
    # session keeps a signal to the process group inside the launch.
    target = tmp_path / "census.jsonl"
    proc = run_python("-c", _CLOSE_FAILS_IN_THE_WORKER, str(target), start_new_session=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == _SEARCH_OUT_SHA256[10]
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity calls on this platform")
@pytest.mark.parametrize(
    "act, raises",
    [(None, None), (_raise_invariant, InvariantViolation), (_kill_worker, None)],
    ids=["success", "census-raises", "worker-lost"],
)
def test_this_process_never_touches_its_affinity(act, raises, monkeypatch):
    # only the worker may move, whatever the census does
    before, calls = os.sched_getaffinity(0), []

    def recording(pid, mask, real=os.sched_setaffinity):
        if os.getpid() == _TEST_PID:
            calls.append(set(mask))
        real(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    if act is not None:
        _fail_at(monkeypatch, 65 if raises else 2040, act)
    with _deadline(60), pytest.raises(raises) if raises else contextlib.nullcontext():
        assert search._search(10, None, None).count == 2048
    assert calls == [] and os.sched_getaffinity(0) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "mask, cpu, calls",
    [
        ({0, 1}, 0, [{1}, {0, 1}]),
        ({0, 1}, 1, [{0}, {0, 1}]),
        ({0, 2, 5, 7}, 2, [{0, 5, 7}, {0, 2, 5, 7}]),
        ({0, 2, 5, 7}, 7, [{0, 2, 5}, {0, 2, 5, 7}]),
        ({1, 3}, 2, []),
        ({0}, 0, []),
    ],
    ids=["two-first", "two-second", "four-inner", "four-last", "parent-outside-mask", "one-cpu-mask"],
)
def test_the_worker_excludes_its_parents_cpu_for_a_moment(mask, cpu, calls, monkeypatch):
    # the worker reads its parent's CPU once, when its mask has two CPUs or
    # more; if that CPU is in the mask, it asks for the rest and then for
    # the whole mask
    asked, reads = [], []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, m: asked.append(set(m)), raising=False)
    monkeypatch.setattr(search, "_cpu", lambda pid: reads.append(pid) or cpu)
    search._move_off(os.getppid())
    assert asked == calls and reads == ([os.getppid()] if len(mask) > 1 else [])


_MOVE_FAILS = """
import os, sys
from symfai import search
from symfai.cli import main

parent, real, full = os.getpid(), os.sched_setaffinity, os.sched_getaffinity(0)

def failing(pid, mask):
    where = "parent" if os.getpid() == parent else "worker"
    with open(sys.argv[3], "a") as calls:
        calls.write(f"{where} {sorted(mask)}\\n")
    if sys.argv[2] == "refused" or set(mask) == full:
        raise OSError(22, "injected in the " + where)
    real(pid, mask)

if sys.argv[2] == "refused":
    os.sched_getaffinity = lambda pid: {0, 1}
search._usable_cpus = lambda: 2
search._cpu = lambda pid: min(os.sched_getaffinity(0))
os.sched_setaffinity = failing
sys.exit(main(["search", "--n", "10", "--out", sys.argv[1]]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity calls on this platform")
@pytest.mark.parametrize("how", ["refused", "restore-refused"])
def test_a_move_that_fails_costs_nothing(how, tmp_path):
    # the worker reads its parent on the first CPU of its mask.  Refused:
    # both calls raise, on a mask that reads two CPUs on any host.  Restore
    # refused: the worker really leaves the first CPU of the real mask and
    # stays off it until it exits
    mask = sorted({0, 1} if how == "refused" else os.sched_getaffinity(0))
    if len(mask) < 2:
        pytest.skip("a real move needs two CPUs in the mask")
    (tmp_path / "out").mkdir()
    target, calls = tmp_path / "out" / "census.jsonl", tmp_path / "calls"
    proc = run_python("-c", _MOVE_FAILS, str(target), how, str(calls), start_new_session=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == _SEARCH_OUT_SHA256[10]
    assert list(target.parent.iterdir()) == [target]
    assert calls.read_text().splitlines() == [f"worker {mask[1:]}", f"worker {mask}"]


def _one_usable_cpu(monkeypatch):
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)


def _one_cpu_in_the_real_mask(monkeypatch):
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _no_sched_setaffinity(monkeypatch):
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)


def _already_apart(monkeypatch):
    # the parent reads CPU 0; a worker on CPU 1 asks for {1} and then
    # {0, 1}, and the kernel leaves it where it runs
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(search, "_cpu", lambda pid: 0)


def _no_proc(monkeypatch):
    def missing(pid):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), f"/proc/{pid}/stat")

    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(search, "_cpu", missing)


@pytest.mark.parametrize(
    "setup, fans_out, calls",
    [
        (_one_usable_cpu, False, []),
        (_one_cpu_in_the_real_mask, True, []),
        (_no_sched_setaffinity, True, []),
        (_already_apart, True, ["worker [1]", "worker [0, 1]"]),
        (_no_proc, True, []),
    ],
    ids=["one-usable-cpu", "one-cpu-mask", "no-sched-setaffinity", "already-apart", "no-proc"],
)
def test_no_move_unless_the_worker_shares_its_parents_cpu(setup, fans_out, calls, tmp_path, monkeypatch, capsys):
    # any call, in either process, is logged to a file; a worker that fans
    # out sends its report, so this process folds the lower half only
    log = tmp_path / "calls"
    (tmp_path / "out").mkdir()
    target = tmp_path / "out" / "census.jsonl"

    def log_call(pid, mask):
        with open(log, "a") as handle:
            handle.write(f"{'parent' if os.getpid() == _TEST_PID else 'worker'} {sorted(mask)}\n")

    monkeypatch.setattr(os, "sched_setaffinity", log_call, raising=False)
    folds, fold = [], search._fold

    def recording(n, lams, *args):
        folds.append(lams)
        return fold(n, lams, *args)

    monkeypatch.setattr(search, "_fold", recording)
    setup(monkeypatch)
    with _deadline(60):
        assert main(["search", "--n", "10", "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == _SEARCH_OUT_SHA256[10]
    assert folds == [range(1024)] + ([] if fans_out else [range(1024, 2048)])
    assert (log.read_text().splitlines() if log.exists() else []) == calls
    assert list(target.parent.iterdir()) == [target]


def _fork_eagain(monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize(
    "cpus, lose", [(1, None), (2, _fork_eagain), (2, lambda patch: _fail_at(patch, 2040, _kill_worker))],
    ids=["one-cpu", "fork-eagain", "killed"],
)
def test_this_process_folds_both_halves_into_its_own_body_when_no_report_arrives(
    cpus, lose, census10, tmp_path, monkeypatch
):
    # the lower half and then the upper half, each into this process's
    # body; the worker's body, if any, is not published
    calls, fold = [], search._fold

    def recording(n, lams, budget_seconds, start, each=None, parent=None):
        calls.append((lams, each))
        return fold(n, lams, budget_seconds, start, each, parent)

    monkeypatch.setattr(search, "_fold", recording)
    monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
    if lose is not None:
        lose(monkeypatch)
    target = tmp_path / "census.jsonl"
    with _deadline(60):
        assert main(["search", "--n", "10", "--out", str(target)]) == 0
    own = calls[0][1]
    assert isinstance(own, search._Body)
    assert calls == [(range(1024), own), (range(1024, 2048), own)]
    assert target.read_bytes() == census10 and list(tmp_path.iterdir()) == [target]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_a_fifo_made_at_a_missing_target_during_the_census_is_replaced(census10, tmp_path, monkeypatch, capsys):
    # the target was missing when the census began, so the new file is
    # renamed over what appeared there; opening the FIFO would wait for a
    # reader that never comes
    target = tmp_path / "census.jsonl"
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    _fail_at(monkeypatch, 100, lambda patch: os.mkfifo(target))
    capsys.readouterr()
    with _deadline(60):
        assert main(["search", "--n", "10", "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.is_file() and target.read_bytes() == census10
    assert list(tmp_path.iterdir()) == [target]


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, a block that runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="finds the worker through /proc")
@pytest.mark.skipif(search._usable_cpus() < 2, reason="the census fans out only with two usable CPUs")
def test_the_worker_of_a_killed_census_exits(tmp_path):
    src = str(Path(s.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "symfai.cli", "search", "--n", "14", "--out", str(tmp_path / "census.jsonl")]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (children := _children(proc.pid)):
            assert proc.poll() is None and time.monotonic() < deadline, "no worker was forked"
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
    [worker] = children
    deadline = time.monotonic() + 2
    while _running(worker):
        assert time.monotonic() < deadline, "the worker outlived its parent"
        time.sleep(0.01)
    assert list(tmp_path.iterdir()) == []


def _children(pid: int) -> list[int]:
    """Child pids of a process, from /proc/<pid>/task/*/children."""
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += map(int, (task / "children").read_text().split())
        except OSError:
            pass
    return found


def _running(pid: int) -> bool:
    """True while pid is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
