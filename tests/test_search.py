"""Exhaustive search harness: reports, MAI census, tables, persistence."""

import contextlib
import dataclasses
import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import symfai as s
from symfai import immunity, search
from symfai.cli import main
from symfai.errors import CapabilityError, InvariantViolation
from symfai.attacks import lower_degree_table, tables_csv, upper_ai_table
from symfai.search import profile_all, write_profiles_jsonl

from conftest import graded_reference, json_reference, run_python


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

    monkeypatch.setattr(search.shutil, "copyfileobj", no_space)
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


def test_library_calls_never_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    report = profile_all(10)
    assert s.find_symmetric_mai(10) == [s.Sanfv.from_string(10, t) for t in report.mai_list]
    # the capability check runs before any fork
    assert main(["search", "--n", "15"]) == 3


_TEST_PID = os.getpid()


def _fail_at(monkeypatch, lam, act):
    """Make immunity.profile call act() at Sanfv(10, lam); the fork inherits the patch."""
    real = immunity.profile

    def failing(f):
        if f.bits == lam:
            act()
        return real(f)

    monkeypatch.setattr(immunity, "profile", failing)


def _raise_invariant():
    raise InvariantViolation("injected")


def _exceed_budget():
    # this process's clock alone jumps past any budget
    assert os.getpid() != _TEST_PID, "the clock of the test process jumped"
    real = time.monotonic
    time.monotonic = lambda: real() + 1e9


def _kill_self():
    assert os.getpid() != _TEST_PID, "the test process was to be killed"
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_no_space():
    raise OSError(28, "No space left on device")


def _raise_value_error():
    raise ValueError("injected")


@pytest.mark.parametrize(
    "lam, act, code, message",
    [
        (1024 + 65, _raise_invariant, 4, "invariant violation: injected\n"),
        (65, _raise_invariant, 4, "invariant violation: injected\n"),
        (1024 + 65, _exceed_budget, 3, "capability error: search budget of 1000.0s exceeded at n=10\n"),
        (1024 + 65, _kill_self, 3, "capability error: the census worker of n=10 was killed by SIGKILL\n"),
        (1024 + 65, _raise_no_space, 2, "error: [Errno 28] No space left on device\n"),
        (1024 + 65, _raise_value_error, 2, "error: injected\n"),
    ],
    ids=["worker-invariant", "parent-invariant", "worker-budget", "worker-killed", "worker-oserror", "worker-valueerror"],
)
def test_a_failing_fanned_out_census_reports_like_one_process(lam, act, code, message, tmp_path, monkeypatch, capsys):
    # SB_10's upper half, lam >= 1024, is the worker's
    target = tmp_path / "census.jsonl"
    target.write_text("kept\n")
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    forks = _counted_forks(monkeypatch)
    _fail_at(monkeypatch, lam, act)
    capsys.readouterr()
    argv = ["search", "--n", "10", "--budget-seconds", "1000", "--out", str(target)]
    with _deadline(60):
        assert main(argv) == code
    out, err = capsys.readouterr()
    assert (len(forks), out, err) == (1, "", message)
    _assert_left_as_it_was(target)
    if act not in (_exceed_budget, _kill_self):  # one process fails with the same words
        monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
        assert main(argv) == code
        assert capsys.readouterr() == ("", message)


def test_a_fanned_out_census_relays_an_unexpected_error_with_its_traceback(tmp_path, monkeypatch):
    target = tmp_path / "census.jsonl"
    target.write_text("kept\n")
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    _fail_at(monkeypatch, 1024 + 65, lambda: 1 // 0)
    with _deadline(60), pytest.raises(RuntimeError, match="(?s)Traceback.*ZeroDivisionError"):
        main(["search", "--n", "10", "--out", str(target)])
    _assert_left_as_it_was(target)


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


def _assert_left_as_it_was(target):
    """The target keeps its bytes, no other file is in its directory and no child process is left."""
    assert list(target.parent.iterdir()) == [target] and target.read_text() == "kept\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
