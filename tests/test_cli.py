"""Command line behaviour: outputs, determinism, exit codes."""

import atexit
import gc
import io
import json
import random
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

import symfai as s
from symfai.attacks import bound_suite
from symfai.cli import _analyze_text, main

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
        _analyze_text(p, report, "json")
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_analyze_renders_in_bounded_memory():
    # json.dumps of the payload peaked at 1.94-2.06 MB here: the encoder
    # holds one string per token of the 2,838-monomial witness
    t = s.threshold(14, 7)
    for f in (t, s.Sanfv(14, t.bits ^ 1)):  # f and f + 1
        assert _render_peak_mb(f) <= 0.5


def _search_out_peak_mb(tmp_path) -> float:
    """Traced peak of this process over search --n 10 --out, with warm tables and fresh witnesses."""
    from symfai import attacks, immunity

    argv = ["search", "--n", "10", "--out", str(tmp_path / "census.jsonl")]
    assert main(argv) == 0
    immunity._witness.cache_clear()
    immunity._mask_interns.cache_clear()
    attacks._bound_checks.cache_clear()
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
    # the parent folds half of the census and merges the worker's report
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
_ENGINE = _RING | {"attacks", "immunity"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["attack", "--n", "9", "--f", "majority"], _RING | {"attacks"}),
        (["stat", "--n", "9", "--samples", "2"], _RING | {"attacks"}),
        (["convert", "--n", "9", "--f", "majority"], _RING),
        (["analyze", "--n", "8", "--f", "v:111110000"], _ENGINE),
        (["search", "--n", "4"], _ENGINE | {"search"}),
        (["tables"], _RING | {"attacks"}),
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


def test_out_file_matches_stdout(tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(["analyze", "--n", "5", "--f", "majority"])
    code2, out2, _ = run_cli(["analyze", "--n", "5", "--f", "majority", "--out", str(path)])
    assert code == code2 == 0 and out2 == ""
    assert path.read_text() == out


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


# A process that the CLI owns freezes its heap at exit (cli.main with no
# argv), so nothing may depend on the collector finalizing leftovers there.

_CLI_ENTRY = "import sys; from symfai.cli import main; sys.exit(main())"
_FREEZE_PROBE = (
    "import atexit, gc, os, sys\n"
    "atexit.register(lambda: os.write(2, b'frozen: %d\\n' % gc.get_freeze_count()))\n"
    "sys.argv = ['symfai', 'tables']\n"
    "from symfai.cli import main\n"
    "sys.exit(main({}))\n"
)


def test_a_cli_process_freezes_its_heap_at_exit():
    # the probe registers before main, so it runs after main's hook (atexit is LIFO)
    proc = run_python("-c", _FREEZE_PROBE.format(""), text=True)
    assert proc.returncode == 0
    assert proc.stdout == run_cli(["tables"])[1]
    frozen = int(proc.stderr.removeprefix("frozen: "))
    assert frozen > 0
    # the same launch through main(argv) freezes nothing
    proc = run_python("-c", _FREEZE_PROBE.format("sys.argv[1:]"), text=True)
    assert (proc.returncode, proc.stderr) == (0, "frozen: 0\n")


def test_main_with_argv_registers_no_exit_hook(monkeypatch):
    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    frozen = gc.get_freeze_count()
    assert run_cli(["tables"])[0] == 0
    assert registered == [] and gc.get_freeze_count() == frozen
    # main() with no argv reads sys.argv and registers the hook
    monkeypatch.setattr(sys, "argv", ["symfai", "tables"])
    assert run_cli(None)[0] == 0
    assert registered == [gc.freeze] and gc.get_freeze_count() == frozen


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
