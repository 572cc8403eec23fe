"""Command line behaviour: outputs, determinism, exit codes."""

import errno
import gc
import hashlib
import io
import json
import os
import random
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

import symfai as s
from symfai.bounds import bound_suite
from symfai.cli import main
from symfai.immunity import _ProfileRenderer

from conftest import run_python


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_analyze_sigma4():
    code, out, _ = run_cli(["analyze", "--n", "8", "--f", "sigma:4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["deg"] == 4 and payload["ai"] == 4 and payload["fai"] == 6
    assert payload["bounds_ok"] is True
    assert any(c["name"] == "fai_sandwich" for c in payload["bounds"])


def test_analyze_pretty_has_indentation():
    code, out, _ = run_cli(["analyze", "--n", "5", "--f", "majority", "--format", "pretty"])
    assert code == 0 and out.startswith("{\n ")


def test_attack_lists_certificates():
    code, out, _ = run_cli(["attack", "--n", "8", "--f", "sigma:4"])
    assert code == 0
    payload = json.loads(out)
    assert [c["source"] for c in payload] == ["thm5-multiplier"]
    assert payload[0]["h"] == "000001000"


def test_attack_residue_filter():
    code, out, _ = run_cli(["attack", "--n", "6", "--f", "0000001", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert [c["params"]["k"] for c in payload] == [2]


def test_convert_both_directions():
    code, out, _ = run_cli(["convert", "--n", "2", "--f", "101"])
    assert code == 0 and out == "v:110\n"
    code, out, _ = run_cli(["convert", "--n", "2", "--f", "v:110"])
    assert code == 0 and out == "101\n"


def test_search_n5_clean_exit():
    code, out, _ = run_cli(["search", "--n", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_fai"] == 4 and payload["violations"] == []


def test_search_n6_reports_violations():
    code, out, err = run_cli(["search", "--n", "6"])
    assert code == 4
    assert json.loads(out)["max_fai"] == 6
    assert "fai_below_n" in err


def test_analyze_flags_failing_bound():
    # threshold 4 on n=6 trips the strict below-n check; the profile is
    # still emitted and the exit code signals the violation
    code, out, _ = run_cli(["analyze", "--n", "6", "--f", "sigma:4"])
    assert code == 4
    payload = json.loads(out)
    assert payload["bounds_ok"] is False
    assert payload["fai"] == 6


def test_search_out_writes_jsonl(tmp_path):
    path = tmp_path / "profiles.jsonl"
    code, out, _ = run_cli(["search", "--n", "3", "--out", str(path)])
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert len(lines) == (1 << 4) + 1


def test_search_out_with_violations_writes_the_file_and_exits_4(tmp_path):
    path = tmp_path / "census.jsonl"
    code, out, err = run_cli(["search", "--n", "6", "--out", str(path)])
    assert code == 4 and out == ""
    assert err.startswith("bound violations found:\n") and err.count("fai_below_n") == 8
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == (1 << 7) + 1
    assert json.loads(lines[0])["max_fai"] == 6
    assert list(tmp_path.iterdir()) == [path]


def test_search_out_to_a_directory_fails_before_the_census(tmp_path, monkeypatch):
    from symfai import immunity

    def profile(f):
        raise AssertionError(f"profiled {f.to_string()} for an unwritable target")

    monkeypatch.setattr(immunity, "profile", profile)
    target = tmp_path / "census"
    target.mkdir()
    code, out, err = run_cli(["search", "--n", "12", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--n", "5", "--f", "majority"],
        ["attack", "--n", "5", "--f", "majority"],
        ["search", "--n", "12"],
        ["convert", "--n", "5", "--f", "majority"],
        ["tables"],
        ["stat", "--n", "5", "--samples", "2"],
    ],
    ids=["analyze", "attack", "search", "convert", "tables", "stat"],
)
def test_empty_out_exits_2_before_any_work(argv, tmp_path, monkeypatch):
    from symfai import immunity

    def profile(f):
        raise AssertionError(f"profiled {f.to_string()} for an empty --out")

    # the check comes before any work: no profile is made (analyze and
    # search would make one) and no file is written
    monkeypatch.setattr(immunity, "profile", profile)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as info:
        main([*argv, "--out", ""])
    assert (info.value.code, out.getvalue()) == (2, "")
    assert err.getvalue().endswith("error: argument --out: expected a path, got ''\n")
    assert list(tmp_path.iterdir()) == []


def test_tables_csv_default():
    code, out, _ = run_cli(["tables"])
    assert code == 0
    assert out.splitlines()[0] == "degree_band,upper_ai"
    assert "128-255,128" in out


def _analyze_payload(n, spec):
    """The analyze payload by the encoder's route: to_json_dict() plus the bound checks."""
    p = s.profile(s.parse_function(n, spec))
    report = bound_suite(p)
    payload = p.to_json_dict()
    payload["bounds"] = [c.to_json_dict() for c in report.checks]
    payload["bounds_ok"] = report.all_ok
    return payload, 0 if report.all_ok else 4


def _bit_string(n, bits):
    return "".join(str(bits >> i & 1) for i in range(n + 1))


def _renderer_cases():
    """Every f with n <= 8; each threshold, its complement and four seeded SANFVs at n = 11..14."""
    cases = [(n, _bit_string(n, lam)) for n in range(1, 9) for lam in range(1 << (n + 1))]
    rng = random.Random(16)
    for n in range(11, 15):
        full = (1 << (n + 1)) - 1
        for k in range(n + 2):
            v = s.to_values(s.threshold(n, k)).bits
            cases += [(n, "v:" + _bit_string(n, v)), (n, "v:" + _bit_string(n, full ^ v))]
        cases += [(n, _bit_string(n, rng.getrandbits(n + 1))) for _ in range(4)]
    return cases


def test_analyze_json_equals_json_dumps():
    # the directly rendered default output against the encoder; the cases
    # must reach every branch of the payload
    seen = set()
    for n, spec in _renderer_cases():
        payload, want_code = _analyze_payload(n, spec)
        code, out, err = run_cli(["analyze", "--n", str(n), "--f", spec])
        assert (code, err) == (want_code, ""), (n, spec)
        assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", (n, spec)
        for key in ("deg", "fai_witness"):
            seen.add((key, payload[key] is None))
        seen.add(("capped", payload["capped"]))
        seen.add(("bounds_ok", payload["bounds_ok"]))
    assert seen == {(key, flag) for key in ("deg", "fai_witness", "capped", "bounds_ok") for flag in (True, False)}


@pytest.mark.parametrize(("n", "spec"), [(5, "majority"), (6, "sigma:4"), (8, "000000000"), (14, "v:000000011111111")])
def test_analyze_out_and_pretty_match_the_encoder(tmp_path, n, spec):
    payload, want_code = _analyze_payload(n, spec)
    argv = ["analyze", "--n", str(n), "--f", spec]
    code, out, _ = run_cli(argv)
    path = tmp_path / "out.json"
    assert run_cli([*argv, "--out", str(path)]) == (want_code, "", "")
    assert code == want_code and path.read_text(encoding="utf-8") == out
    code, out, _ = run_cli([*argv, "--format", "pretty"])
    assert code == want_code and out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _render_peak_mb(f):
    p = s.profile(f)
    report = bound_suite(p)
    tracemalloc.start()
    try:
        _ProfileRenderer((",", ":")).render(p, report)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# sha256 of analyze's stdout over the specs of the test below, pinned while
# analyze still wrote --out in place
_ANALYZE_STDOUT_SHA256 = "6a6758eec48631fffc859c1415381b4dfcc8562f026f444fb0d7ae371af9a58c"


def test_analyze_stdout_bytes_are_pinned():
    # every f with n <= 8 in SANFV integer order, then, for n = 1..14, each
    # value vector with one switch from 0 to 1 followed by its complement
    specs = [(n, s.Sanfv(n, lam).to_string()) for n in range(1, 9) for lam in range(1 << (n + 1))]
    for n in range(1, 15):
        for t in range(n + 2):
            specs += [(n, "v:" + "0" * t + "1" * (n + 1 - t)), (n, "v:" + "1" * t + "0" * (n + 1 - t))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        codes = [main(["analyze", "--n", str(n), "--f", spec]) for n, spec in specs]
    assert (len(codes), codes.count(0), codes.count(4), err.getvalue()) == (1286, 1274, 12, "")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == _ANALYZE_STDOUT_SHA256


def test_analyze_renders_in_bounded_memory():
    # json.dumps of the payload peaked at 1.94-2.06 MB here: the encoder
    # holds one string per token of the 2,838-monomial witness
    t = s.threshold(14, 7)
    for f in (t, s.Sanfv(14, t.bits ^ 1)):  # f and f + 1
        assert _render_peak_mb(f) <= 0.5


def _search_out_peak_mb(tmp_path) -> float:
    """Traced peak of this process over search --n 10 --out, with warm tables and fresh witnesses."""
    from symfai import bounds, immunity

    argv = ["search", "--n", "10", "--out", str(tmp_path / "census.jsonl")]
    assert main(argv) == 0
    immunity._witness.cache_clear()
    immunity._mask_interns.cache_clear()
    bounds._bound_checks.cache_clear()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_search_out_streams_in_bounded_memory(tmp_path, monkeypatch):
    # the census held all 2,048 profiles and peaked at 1.79 MB here; streamed
    # it peaks at 0.94 MB.  The tables are warmed first and the witnesses
    # made afresh, so the peak does not depend on the tests before this one.
    # One CPU keeps the whole census in this process.
    from symfai import search

    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    assert _search_out_peak_mb(tmp_path) <= 1.25


def test_fanned_out_search_out_streams_in_bounded_memory(tmp_path, monkeypatch):
    # the parent profiles half of the census and folds the worker's bytes after its own
    import os

    from symfai import search

    forks, fork = [], os.fork
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    assert _search_out_peak_mb(tmp_path) <= 1.25
    assert len(forks) == 2  # the warm-up run and the traced one


def test_cli_import_leaves_fractions_and_decimal_unloaded():
    code = "import sys, symfai.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_RING = {"cli", "errors", "gf2", "sanfv"}
_ENGINE = _RING | {"bounds", "immunity"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["attack", "--n", "9", "--f", "majority"], _RING | {"attacks"}),
        (["stat", "--n", "9", "--samples", "2"], _RING | {"attacks"}),
        (["convert", "--n", "9", "--f", "majority"], _RING),
        (["analyze", "--n", "8", "--f", "v:111110000"], _ENGINE),
        (["search", "--n", "4"], _ENGINE | {"search"}),
        (["tables"], _RING | {"bounds"}),
    ],
    ids=["attack", "stat", "convert", "analyze", "search", "tables"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    # a fresh interpreter per command: this process has loaded every module
    code = (
        "import io, json, sys, contextlib\n"
        "from symfai.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('symfai.'))]))\n"
    )
    proc = run_python("-c", code, *argv, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, sorted(f"symfai.{m}" for m in modules)]


# Runs every command in process and prints, per command, its exit code and
# the sha256 of its stdout, its stderr and its --out file.  With "guard", each
# checking route (the references' elimination, the orbit-table helpers the
# scan replaced, the reference JSONL writer, the attacks alias) records its
# name in a file and raises, and symfai.dense cannot be imported; the record
# file catches a call in the forked census worker, whose failure the census
# would otherwise absorb by folding the worker's half itself.
_GUARDED_COMMANDS = """
import contextlib, hashlib, io, json, os, sys

from symfai import search
from symfai.cli import main

guard, hits = sys.argv[1] == "guard", "hits.txt"
if guard:
    from symfai import attacks, gf2, immunity

    def forbid(name):
        def call(*args, **kwargs):
            with open(hits, "a") as log:
                log.write(name + "\\n")
            raise AssertionError(name + " reached")

        return call

    gf2.BitBasis.insert = forbid("gf2.BitBasis.insert")
    for name in ("_class_delta_echelon", "_class_truth_table", "_product_columns", "_zero_span_min_degree", "all_zero_set_degrees"):
        setattr(immunity, name, forbid("immunity." + name))
    search.write_profiles_jsonl = forbid("search.write_profiles_jsonl")
    attacks.bound_suite = forbid("attacks.bound_suite")
    sys.modules["symfai.dense"] = None  # importing it raises ImportError
search._usable_cpus = lambda: 2
forks, fork = [], os.fork
os.fork = lambda: forks.append(None) or fork()

commands = [
    ["analyze", "--n", "13", "--f", "majority"],
    ["analyze", "--n", "13", "--f", "majority", "--format", "pretty"],
    ["analyze", "--n", "14", "--f", "v:000000011111111"],
    ["analyze", "--n", "14", "--f", "v:000000011111111", "--format", "pretty"],
    ["search", "--n", "8"],
    ["search", "--n", "10", "--out", "census10.jsonl"],
    ["attack", "--n", "9", "--f", "majority"],
    ["stat", "--n", "9", "--samples", "2"],
    ["convert", "--n", "9", "--f", "majority"],
    ["tables"],
]
results = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out.getvalue(), err.getvalue())]
    if "--out" in argv:
        with open(argv[-1], "rb") as file:
            digests.append(hashlib.sha256(file.read()).hexdigest())
    results.append([argv, code, *digests])
try:
    import symfai.dense  # noqa: F401
    dense_loads = True
except ImportError:
    dense_loads = False
recorded = open(hits).read() if os.path.exists(hits) else ""
print(json.dumps({"results": results, "forks": len(forks), "dense_loads": dense_loads, "hits": recorded}))
"""


def test_no_command_reaches_a_checking_route(tmp_path):
    # every output byte and exit code is the same when the checking routes
    # raise, so the production paths (the forked census worker included)
    # reach none of them, and deleting them changes no output
    runs = {}
    for mode in ("plain", "guard"):
        (tmp_path / mode).mkdir()
        proc = run_python("-c", _GUARDED_COMMANDS, mode, text=True, cwd=tmp_path / mode)
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    plain, guard = runs["plain"], runs["guard"]
    assert (guard["hits"], guard["dense_loads"], plain["dense_loads"]) == ("", False, True)
    assert plain["forks"] == guard["forks"] == 1
    assert [r[1] for r in plain["results"]] == [0] * 10
    assert guard["results"] == plain["results"]


_THREAD_PROBE = (
    "import atexit, os, runpy, sys\n"
    "atexit.register(lambda: print(len(os.listdir('/proc/self/task')), file=sys.stderr))\n"
    "sys.argv = ['symfai', 'tables']\n"
    "runpy.run_module('symfai.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_a_cli_launch_runs_one_os_thread(monkeypatch):
    # numpy's OpenBLAS pool started a worker thread in every launch, which
    # spun about 60 ms of CPU while numpy loaded; symfai makes no BLAS call.
    # The probe runs python -m symfai.cli tables and counts threads at exit.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    proc = run_python("-c", _THREAD_PROBE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "1\n"


def test_only_the_cli_sets_the_openblas_thread_count(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = "import os, symfai, symfai.search, symfai.dense; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python("-c", code, text=True).stdout == "None\n"
    # a user's own setting wins
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    code = "import os, symfai.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python("-c", code, text=True).stdout == "2\n"


def test_immunity_does_not_load_the_dense_oracle():
    proc = run_python("-c", "import sys, symfai.immunity; print('symfai.dense' in sys.modules)", text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_stat_deterministic_bytes():
    args = ["stat", "--n", "21", "--samples", "300", "--seed", "9"]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second and first[0] == 0
    # the bytes as printed while fractions was imported at module level
    assert first[1] == '{"mean_gap":"601/150","mean_gap_float":4.006666666666667,"n":21,"samples":300,"seed":9,"vanished":0}\n'
    payload = json.loads(first[1])
    assert payload["samples"] == 300 and payload["seed"] == 9


def test_parse_errors_exit_2():
    code, _, err = run_cli(["analyze", "--n", "4", "--f", "010"])  # wrong length
    assert code == 2 and "error" in err
    code, _, _ = run_cli(["convert", "--n", "3", "--f", "01x1"])
    assert code == 2
    code, _, _ = run_cli(["stat", "--n", "10", "--samples", "10"])
    assert code == 2  # even n
    for spec, shown in (("sigma:x", "'x'"), ("sigma:", "''")):
        code, out, err = run_cli(["analyze", "--n", "3", "--f", spec])
        assert code == 2 and out == ""
        assert err == f"error: sigma index must be an integer, got {shown}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--f", "1"],
        ["attack", "--f", "1"],
        ["convert", "--f", "1"],
        ["convert", "--f", "v:1"],
    ],
)
def test_nonpositive_n_rejected_before_length_check(argv):
    code, out, err = run_cli([*argv, "--n", "-3"])
    assert code == 2 and out == ""
    assert err.startswith("error: variable count must be a positive integer")


def test_csv_format_rejected_by_parser():
    with pytest.raises(SystemExit) as info:
        run_cli(["analyze", "--n", "5", "--f", "majority", "--format", "csv"])
    assert info.value.code == 2


def test_capability_errors_exit_3():
    code, _, err = run_cli(["analyze", "--n", "20", "--f", "sigma:4"])
    assert code == 3 and "capability" in err
    code, _, _ = run_cli(["search", "--n", "15"])
    assert code == 3


def test_search_budget_exit_3(tmp_path):
    code, _, err = run_cli(["search", "--n", "2", "--budget-seconds", "-1"])
    assert code == 3 and "budget" in err
    # the streamed --out leaves no temporary file and neither creates nor truncates the target
    target = tmp_path / "census.jsonl"
    code, out, err = run_cli(["search", "--n", "2", "--budget-seconds", "-1", "--out", str(target)])
    assert code == 3 and out == "" and "budget" in err
    assert list(tmp_path.iterdir()) == []
    target.write_text("kept\n")
    code, _, _ = run_cli(["search", "--n", "2", "--budget-seconds", "-1", "--out", str(target)])
    assert code == 3
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "kept\n"


def test_search_bad_n_exits_2_with_the_variable_count_message():
    code, out, err = run_cli(["search", "--n", "-2"])
    assert code == 2 and out == ""
    assert err == "error: variable count must be a positive integer, got -2\n"


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_search_nonfinite_budget_exits_2(budget):
    code, out, err = run_cli(["search", "--n", "2", "--budget-seconds", budget])
    assert code == 2 and out == ""
    assert err.startswith("error: budget must be a finite number of seconds")


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as info:
        run_cli(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--n", "5", "--f", "majority"],
        ["analyze", "--n", "5", "--f", "majority", "--format", "pretty"],
        ["attack", "--n", "9", "--f", "majority"],
        ["stat", "--n", "9", "--samples", "20"],
        ["convert", "--n", "9", "--f", s.Sanfv(9, 0b1011000101).to_string()],
        ["convert", "--n", "9", "--f", "v:0000011111"],
        ["tables"],
        ["tables", "--format", "json"],
        ["tables", "--format", "pretty"],
    ],
    ids=["analyze", "analyze-pretty", "attack", "stat", "convert-sanfv", "convert-values", "tables-csv", "tables-json",
         "tables-pretty"],
)
def test_out_file_matches_stdout(tmp_path, argv):
    path = tmp_path / "out"
    code, out, _ = run_cli(argv)
    code2, out2, err2 = run_cli([*argv, "--out", str(path)])
    assert code == code2 == 0 and (out2, err2) == ("", "")
    assert path.read_bytes() == out.encode("utf-8") and out
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "name, message",
    [
        ("missing/", "[Errno 21] Is a directory"),
        ("nodir/missing/", "[Errno 2] No such file or directory"),
        ("missing/.", "[Errno 2] No such file or directory"),
        ("missing/..", "[Errno 2] No such file or directory"),
        ("nodir/missing/.", "[Errno 2] No such file or directory"),
    ],
    ids=["missing", "missing-parent", "missing-dot", "missing-dotdot", "missing-parent-dot"],
)
@pytest.mark.parametrize(
    "argv", [["search", "--n", "3"], ["analyze", "--n", "3", "--f", "majority"]], ids=["search", "analyze"]
)
def test_a_missing_out_path_with_a_trailing_separator_fails_before_any_work(argv, name, message, tmp_path, monkeypatch):
    # it fails as open(path, "w") would, and nothing is created; a last
    # component of . or .. is a directory too
    from symfai import immunity

    def profile(f):
        raise AssertionError(f"profiled {f.to_string()} for a target that cannot be written")

    monkeypatch.setattr(immunity, "profile", profile)
    target = f"{tmp_path}/{name}"
    assert run_cli([*argv, "--out", target]) == (2, "", f"error: {message}: '{target}'\n")
    assert list(tmp_path.iterdir()) == []


def test_a_failed_publish_over_an_existing_target_keeps_it(tmp_path, monkeypatch):
    # analyze stages its output beside the target, as search does: a rename
    # that fails leaves the old bytes and removes the new file
    target = tmp_path / "analyze.json"
    target.write_text("kept\n")

    def failing(source, destination):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "replace", failing)
    code, out, err = run_cli(["analyze", "--n", "5", "--f", "majority", "--out", str(target)])
    assert (code, out, err) == (2, "", "error: [Errno 5] Input/output error\n")
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [["analyze", "--n", "5", "--f", "majority"], ["search", "--n", "3"]])
def test_unwritable_out_path_exits_2(tmp_path, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli([*argv, "--out", str(target)])
    assert code == 2 and out == "" and err.startswith("error: ")
    # the message names the target, and nothing is left behind
    assert str(target) in err
    assert list(tmp_path.iterdir()) == []


def test_cross_process_determinism(tmp_path):
    outputs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        proc = run_python("-m", "symfai.cli", "search", "--n", "4", "--out", str(path))
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


# A process that the CLI owns (cli.main with no argv) runs its atexit
# handlers, flushes and leaves by os._exit, skipping finalization; nothing
# may depend on the collector finalizing leftovers there.  No test calls
# main() without argv in this process, which it would end.

_CLI_ENTRY = "import sys; from symfai.cli import main; sys.exit(main())"
# registers an atexit handler before main, and reports whether main returned
_EXIT_PROBE = (
    "import atexit, os, sys\n"
    "atexit.register(os.write, 2, b'atexit\\n')\n"
    "from symfai.cli import main\n"
    "code = main()\n"
    "os.write(2, b'returned %d\\n' % code)\n"
    "sys.exit(code)\n"
)


def test_a_cli_process_runs_its_atexit_handlers_and_leaves_from_main():
    proc = run_python("-c", _EXIT_PROBE, "tables", text=True)
    # the handler ran once, and main did not return
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, run_cli(["tables"])[1], "atexit\n")


@pytest.mark.parametrize(
    "argv, status",
    [
        (["tables"], 0),
        (["analyze", "--n", "5", "--f", "bogus"], 2),
        (["bogus"], 2),  # argparse's usage error raises SystemExit
        (["search", "--n", "15"], 3),
        (["search", "--n", "6"], 4),
    ],
    ids=["ok", "bad-request", "usage", "capability", "violations"],
)
def test_a_cli_process_exits_as_main_argv_returns(argv, status):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the usage error
            code = exc.code
    assert code == status
    for entry in (("-m", "symfai.cli"), ("-c", _CLI_ENTRY), ("-c", _EXIT_PROBE)):
        proc = run_python(*entry, *argv, text=True)
        # the probe's handler runs once on every route, and main never
        # returns: it leaves, or the usage error propagates
        probed = "atexit\n" if entry[1] == _EXIT_PROBE else ""
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.getvalue(), err.getvalue() + probed), entry


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_stdout_flush_leaves_through_finalization(monkeypatch):
    # with buffered stdout the output reaches the device only as the process
    # ends; main then returns, and finalization reports the failed flush
    # exactly as it does for any script
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)

    def launch(*args):
        with open("/dev/full", "wb") as full:
            proc = run_python(*args, stdout=full, text=True)
        return proc.returncode, proc.stderr

    expected = launch("-c", "import sys; sys.stdout.write('x\\n')")
    assert expected[0] == 120 and expected[1].startswith("Exception ignored")
    assert launch("-m", "symfai.cli", "tables") == expected
    assert launch("-c", _CLI_ENTRY, "tables") == expected
    # the atexit handler ran in main, and finalization does not run it again
    assert launch("-c", _EXIT_PROBE, "tables") == (120, "atexit\nreturned 0\n" + expected[1])


def test_main_with_argv_returns_and_leaves_atexit_alone():
    code = (
        "import atexit, contextlib, io\n"
        "from symfai.cli import main\n"
        "atexit.register(print, 'atexit')\n"
        "handlers, registered = atexit._ncallbacks(), []\n"
        "atexit.register = registered.append\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['tables'])\n"
        "print(code, registered, atexit._ncallbacks() == handlers)\n"
    )
    proc = run_python("-c", code, text=True)
    # main returned 0, registered nothing, ran no handler, and the process
    # went on; the handler ran at its exit
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 [] True\natexit\n", "")


def _attack_spec(n: int) -> str:
    return s.Sanfv(n, random.Random(n).getrandbits(n) | 1 << n).to_string()


@pytest.mark.parametrize(
    "argv, out, status",
    [
        (["analyze", "--n", "14", "--f", "v:000000011111111"], None, 0),
        (["analyze", "--n", "14", "--f", "v:000000011111111", "--format", "pretty"], None, 0),
        (["attack", "--n", "4097", "--f", _attack_spec(4097)], None, 0),
        (["search", "--n", "8"], "census.jsonl", 0),
        (["search", "--n", "6"], None, 4),
        (["analyze", "--n", "5", "--f", "majority"], "missing/x.json", 2),
    ],
    ids=["analyze-json", "analyze-pretty", "attack", "search-out", "search-violations", "out-missing-directory"],
)
@pytest.mark.parametrize("entry", [("-m", "symfai.cli"), ("-c", _CLI_ENTRY)], ids=["module", "script"])
def test_a_cli_process_prints_what_main_argv_returns(tmp_path, argv, out, status, entry):
    def run(where, launch):
        where.mkdir()
        args = argv if out is None else [*argv, "--out", str(where / out)]
        code, stdout, stderr = launch(args)
        written = (where / out).read_bytes() if out and (where / out).exists() else None
        # the two runs differ only by their directory, which a message may name
        return code, stdout, stderr.replace(str(where), "<dir>"), written

    def fresh(args):
        proc = run_python(*entry, *args)
        return proc.returncode, proc.stdout, proc.stderr.decode()

    def in_process(args):
        code, stdout, stderr = run_cli(args)
        return code, stdout.encode(), stderr

    expected = run(tmp_path / "in-process", in_process)
    assert run(tmp_path / "fresh", fresh) == expected
    assert expected[0] == status


@pytest.mark.parametrize(
    "argv, out, status",
    [
        (["analyze", "--n", "12", "--f", "v:0000000111111"], None, 0),
        (["analyze", "--n", "8", "--f", "sigma:4"], "analyze.json", 0),
        (["attack", "--n", "9", "--f", "majority"], None, 0),
        (["stat", "--n", "65", "--samples", "20"], "stat.json", 0),
        (["convert", "--n", "9", "--f", "majority"], None, 0),
        (["tables"], "tables.csv", 0),
        (["search", "--n", "10"], "census.jsonl", 0),
        (["search", "--n", "6"], "census.jsonl", 4),
        (["search", "--n", "3"], "missing/census.jsonl", 2),
        (["analyze", "--n", "5", "--f", "majority"], "missing/x.json", 2),
    ],
    ids=["analyze", "analyze-out", "attack", "stat-out", "convert", "tables-out", "search-out",
         "search-violations", "search-missing-directory", "analyze-missing-directory"],
)
def test_every_command_closes_what_it_opens(tmp_path, monkeypatch, argv, out, status):
    # a warning from a finalizer reaches sys.unraisablehook, not the caller
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    args = argv if out is None else [*argv, "--out", str(tmp_path / out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code, _, _ = run_cli(args)
        gc.collect()
    assert [(u.exc_type, str(u.exc_value)) for u in unraisable] == []
    assert code == status
