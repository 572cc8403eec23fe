"""End-to-end benchmark of the symfai command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {analyze-cold,census,algebra-large,all}
                             --seed N --seconds S --trace {0,1} [--smoke]

A single sequential closed-loop client runs the workload's fixed call list,
each call in a fresh interpreter (one call in flight), in a fresh temporary
working directory, repeating the list while another pass fits in
``--seconds``.  Every output is checked against an independent reference
(see checks.py).  Set-up time is the median of several launches that do no
work (``symfai tables``).  Reported times are scaled by a reference launch
that runs no symfai code (see REFERENCE_CMD).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the same passes are run again through traced_cli.py,
which times every layer from outside the package, and the last line
reports the per-layer metrics.  METRICS.md describes every metric.
``--smoke`` runs the same workloads at n <= 5.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
CLI_ENTRY = "import sys; from symfai.cli import main; sys.exit(main())"

SETUP_ARGV = ("tables",)  # a CLI launch that does no work
# The host's speed drifts by 20% and more over minutes, so every reported
# time is scaled to a reference machine: a fixed launch that runs no symfai
# code (interpreter start, numpy import, big-int and dict work, the same mix
# as the program's) is timed after every call, and times are multiplied by
# REFERENCE_LAUNCH_S / (its median in the run).
REFERENCE_CMD = (
    "-c",
    "import numpy\n"
    "x = 3\n"
    "for i in range(500):\n"
    "    x = (x * x + i) % ((1 << 8191) - 1)\n"
    "table = {i: i * i for i in range(50000)}\n",
)
REFERENCE_LAUNCH_S = 0.2
MIN_PROBES = 9  # set-up and reference launches per run, at least
RUN_BUDGET_S = 150.0  # every call is killed once a run has spent this long


@dataclass
class CallResult:
    index: int
    wall_s: float
    rss_mb: float
    code: int
    stdout: str  # sha256 digests; the bytes live once in Runner.blobs
    out_file: str | None
    stdout_bytes: int
    trace: dict | None = None


@dataclass
class Pass:
    wall_s: float
    results: list[CallResult]


class Runner:
    """Launches CLI calls, keeps their outputs, enforces the run budget.

    ``setup`` and ``reference`` collect the probe launches that follow every
    untraced workload call, so they sample the machine over the whole run.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.blobs: dict[str, bytes] = {}
        self.setup: list[CallResult] = []
        self.reference: list[CallResult] = []
        self.warmup: CallResult | None = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _keep(self, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        self.blobs.setdefault(digest, data)
        return digest

    def launch(self, index: int, args, workdir: Path, out_file: str | None = None,
               trace_path: Path | None = None) -> CallResult:
        """Run ``python3 *args`` in ``workdir`` and wait for it with os.wait4."""
        stdout_path = workdir / f"stdout-{index}"
        with open(stdout_path, "wb") as stdout, open(workdir / f"stderr-{index}", "wb") as stderr:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=workdir, env=self.env,
                                    stdout=stdout, stderr=stderr)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        output = stdout_path.read_bytes()
        out_path = workdir / out_file if out_file else None
        return CallResult(
            index=index,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
            code=code,
            stdout=self._keep(output),
            out_file=self._keep(out_path.read_bytes()) if out_path and out_path.exists() else None,
            stdout_bytes=len(output),
            trace=json.loads(trace_path.read_text()) if trace_path and trace_path.exists() else None,
        )

    def run_pass(self, calls, traced: bool = False, probes: bool = False) -> Pass:
        """Run the call list once in a fresh directory.

        The pass wall time is the sum of its calls' wall times.  With
        ``probes`` a set-up launch and a reference launch follow each call.
        """
        SCRATCH.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=SCRATCH))
        try:
            results = []
            for i, call in enumerate(calls):
                if traced:
                    trace_path = workdir / f"trace-{i}.json"
                    args = (str(HERE / "traced_cli.py"), str(trace_path), *call.argv)
                else:
                    trace_path, args = None, ("-c", CLI_ENTRY, *call.argv)
                results.append(self.launch(i, args, workdir, call.out_file, trace_path))
                if probes:
                    self.probe(workdir)
            return Pass(sum(r.wall_s for r in results), results)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def probe(self, workdir: Path) -> None:
        self.setup.append(self.launch(-1, ("-c", CLI_ENTRY, *SETUP_ARGV), workdir))
        self.reference.append(self.launch(-2, REFERENCE_CMD, workdir))

    def measure(self, calls, seconds: float, traced: bool) -> tuple[list[Pass], list[Pass]]:
        """Repeat the call list while another pass fits in ``seconds``.

        With ``traced`` each untraced pass is followed by a traced one, so
        both see the same machine state.  Returns (untraced, traced) passes.
        """
        start = perf_counter()
        SCRATCH.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=SCRATCH))
        # warms the bytecode cache; its output is checked but it is not timed
        self.warmup = self.launch(-1, ("-c", CLI_ENTRY, *SETUP_ARGV), workdir)
        plain, tracing = [], []
        while True:
            plain.append(self.run_pass(calls, probes=True))
            if traced:
                tracing.append(self.run_pass(calls, traced=True))
            spent = perf_counter() - start
            if spent + spent / len(plain) > seconds or perf_counter() > self.deadline:
                break
        while len(self.setup) < MIN_PROBES and perf_counter() < self.deadline:
            self.probe(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        return plain, tracing

    def speed(self) -> float:
        """How much slower than the reference machine this run was (>1 = slower)."""
        return statistics.median(r.wall_s for r in self.reference) / REFERENCE_LAUNCH_S


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _span(trace: dict, name: str) -> dict:
    return trace["spans"].get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "items": 0, "counters": {}})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass (its calls' traces summed)."""

    def total(name, key="self_s"):
        return sum(_span(t, name)[key] for t in traces)

    def counter(name, key):
        return sum(_span(t, name)["counters"].get(key, 0) for t in traces)

    zero_hits = sum(t["zero_span_hits"] for t in traces)
    zero_calls = zero_hits + sum(t["zero_span_misses"] for t in traces)
    return {
        "cli.import_s": (statistics.median(t["import_s"] for t in traces), "s"),
        "cli.main.self_s": (total("cli.main"), "s"),
        "search.profile_all.self_s": (total("search.profile_all"), "s"),
        "search.write_jsonl.s": (total("search.write_jsonl"), "s"),
        "attacks.bound_suite.s": (total("attacks.bound_suite"), "s"),
        "attacks.certificates.s": (total("attacks.certificates"), "s"),
        "attacks.certificate_check.s": (total("attacks.certificate_check"), "s"),
        "attacks.gap_statistic.s": (total("attacks.gap_statistic"), "s"),
        "immunity.solve.s": (total("immunity.solve"), "s"),
        "immunity.class_delta_echelon.s": (total("immunity.class_delta_echelon"), "s"),
        "immunity.class_product_pieces.s": (total("immunity.class_product_pieces"), "s"),
        "immunity.table_mb": (max(t["table_bytes"] for t in traces) / 2**20, "MB"),
        "immunity.multiplier_scan.s": (
            total("immunity.multiplier_scan") + total("immunity.product_columns"), "s"),
        "immunity.multiplier_scan.columns": (total("immunity.product_columns", "items"), "count"),
        "immunity.all_zero_set_degrees.s": (total("immunity.all_zero_set_degrees"), "s"),
        "immunity.zero_span_min_degree.s": (total("immunity.zero_span_min_degree"), "s"),
        "immunity.zero_span_min_degree.hit_ratio": (_ratio(zero_hits, zero_calls), "ratio"),
        "immunity.verify.s": (total("immunity.verify"), "s"),
        "dense.rank_tables.s": (total("dense.rank_tables"), "s"),
        "dense.permuted_anf_int.calls": (total("dense.permuted_anf_int", "calls"), "count"),
        "dense.permuted_anf_int.s": (total("dense.permuted_anf_int"), "s"),
        "dense.truth_table.calls": (total("dense.truth_table", "calls"), "count"),
        "gf2.insert.calls": (total("gf2.insert", "calls"), "count"),
        "gf2.insert.s": (total("gf2.insert"), "s"),
        "gf2.insert.adopted_ratio": (
            _ratio(counter("gf2.insert", "adopted"), total("gf2.insert", "calls")), "ratio"),
        "gf2.subset_xor_transform.calls": (total("gf2.subset_xor_transform", "calls"), "count"),
        "gf2.subset_xor_transform.s": (total("gf2.subset_xor_transform"), "s"),
        "sanfv.mul.calls": (total("sanfv.mul", "calls"), "count"),
        "sanfv.mul.s": (total("sanfv.mul"), "s"),
        "sanfv.mul.term_pairs": (counter("sanfv.mul", "term_pairs"), "count"),
        "sanfv.to_values.s": (total("sanfv.to_values"), "s"),
        "sanfv.split.s": (total("sanfv.split"), "s"),
    }


def median_metrics(per_pass: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    return {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def span_table(traces: list[dict]) -> list[str]:
    """Human-readable per-span totals of one traced pass, by self time."""
    rows = {}
    for trace in traces:
        for name, span in trace["spans"].items():
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += span["calls"]
            row[1] += span["self_s"]
            row[2] += span["total_s"]
    lines = [f"  {'span':32} {'calls':>10} {'self_s':>9} {'total_s':>9}"]
    for name, (calls, self_s, total_s) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        if calls:
            lines.append(f"  {name:32} {calls:10d} {self_s:9.3f} {total_s:9.3f}")
    return lines


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    calls = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"), smoke)
    runner = Runner(perf_counter() + RUN_BUDGET_S)
    passes, traced = runner.measure(calls, seconds, trace)
    own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verified: dict[tuple, tuple[list[str], int]] = {}

    def check(result: CallResult) -> tuple[list[str], int]:
        """(problems, items) of an untraced call; each distinct output is checked once."""
        call = calls[result.index]
        key = (result.index, result.code, result.stdout, result.out_file)
        if key not in verified:
            if result.code != 0:
                verified[key] = ([f"{' '.join(call.argv)}: exit code {result.code}"], 0)
            else:
                out_file = runner.blobs[result.out_file] if result.out_file else None
                try:
                    verified[key] = call.verify(runner.blobs[result.stdout], out_file)
                except Exception as exc:  # malformed output fails the call, not the run
                    verified[key] = ([f"{' '.join(call.argv)}: unreadable output: {exc!r}"], 0)
        return verified[key]

    def check_setup(result: CallResult) -> list[str]:
        if result.code != 0 or result.stdout != runner.warmup.stdout or not runner.blobs[result.stdout]:
            return [f"tables launch: exit code {result.code} or unexpected output"]
        return []

    reference = {r.index: r for r in passes[0].results}

    def check_traced(result: CallResult) -> list[str]:
        base = reference[result.index]
        argv = " ".join(calls[result.index].argv)
        if (result.code, result.stdout, result.out_file) != (base.code, base.stdout, base.out_file):
            return [f"{argv}: traced output differs from the untraced output"]
        return [] if result.trace else [f"{argv}: no trace written"]

    items_per_pass = [sum(check(r)[1] for r in p.results) for p in passes]
    # one entry per workload call: a failed call counts once, however many checks it failed
    verdicts = [check(r)[0] for p in passes for r in p.results]
    verdicts += [check_traced(r) for p in traced for r in p.results]
    # a failed probe launch spoils the run's timings but is not a failed workload call
    run_problems = [problem for r in [runner.warmup, *runner.setup] for problem in check_setup(r)]
    run_problems += ["reference launch failed" for r in runner.reference if r.code != 0]

    walls = [p.wall_s for p in passes]
    raw = {
        "setup_s": statistics.median(r.wall_s for r in runner.setup),
        "wall_s": statistics.median(walls),
        "call_p50_s": statistics.median(r.wall_s for p in passes for r in p.results),
        "items_per_s": statistics.median(i / w for i, w in zip(items_per_pass, walls)),
    }
    speed = runner.speed()
    end_to_end = {
        "setup_s": (raw["setup_s"] / speed, "s"),
        "wall_s": (raw["wall_s"] / speed, "s"),
        "call_p50_s": (raw["call_p50_s"] / speed, "s"),
        "items_per_s": (raw["items_per_s"] * speed, "1/s"),
        "peak_rss_mb": (max(r.rss_mb for p in passes for r in p.results), "MB"),
    }
    if own_peak_mb >= end_to_end["peak_rss_mb"][0]:
        run_problems.append(f"the benchmark's own peak RSS ({own_peak_mb:.1f} MB) hides the calls' peak")
    per_layer = {}
    lines = []
    if traced and all(r.trace for p in traced for r in p.results):
        per_pass = []
        for p in traced:
            metrics = layer_metrics([r.trace for r in p.results])
            metrics["cli.stdout_bytes"] = (sum(r.stdout_bytes for r in p.results), "bytes")
            per_pass.append(metrics)
        per_layer = median_metrics(per_pass)
        overhead = statistics.median(p.wall_s for p in traced) - raw["wall_s"]
        per_layer["trace.overhead_s"] = (overhead, "s")
        lines = span_table([r.trace for r in traced[0].results])

    return {
        "workload": name,
        "calls": [" ".join(c.argv)[:60] for c in calls],
        "items": workloads.ITEMS[name],
        "ns": sorted({int(c.argv[c.argv.index("--n") + 1]) for c in calls}),
        "passes": len(passes),
        "setup_launches": len(runner.setup),
        "speed": speed,
        "raw": raw,
        "items_per_pass": items_per_pass[0],
        "attempted": len(verdicts),
        "failed": sum(1 for v in verdicts if v),
        "problems": [problem for v in verdicts for problem in v] + run_problems,
        "run_problems": run_problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "span_lines": lines,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def print_report(report: dict, trace: bool) -> None:
    print(f"# {report['workload']}: {len(report['calls'])} calls per pass, {report['passes']} passes")
    for call in report["calls"]:
        print(f"#   symfai {call}")
    notes = {
        "setup_s": f"median of {report['setup_launches']} launches of `symfai tables`",
        "wall_s": f"median over {report['passes']} passes of the call list",
        "call_p50_s": f"median of {report['passes'] * len(report['calls'])} calls",
        "items_per_s": f"{report['items']} per second; n = {', '.join(map(str, report['ns']))}",
        "peak_rss_mb": "largest per-call peak RSS",
    }
    print(f"# speed {report['speed']:.3f}: median reference launch / {REFERENCE_LAUNCH_S} s;"
          " times below are divided by it, items_per_s multiplied (raw values in brackets)")
    for name, (value, unit) in report["end_to_end"].items():
        measured = f"[{report['raw'][name]:.4f}] " if name in report["raw"] else ""
        print(f"{report['workload']:14} {name:14} {value:12.4f} {unit:5} {measured}{notes[name]}")
    ratio = report["failed"] / report["attempted"]
    print(f"{report['workload']:14} {'failed_ratio':14} {ratio:12.4f} ({report['failed']}/{report['attempted']})")
    print(f"{report['workload']:14} {'items_per_pass':14} {report['items_per_pass']:12d}")
    for problem in report["problems"][:20]:
        print(f"# FAILED CHECK: {problem}")
    if trace:
        for name, (value, unit) in report["per_layer"].items():
            print(f"{report['workload']:14} {name:42} {value:14.6g} {unit}")
        print("\n".join(report["span_lines"]))


def run_all(args) -> int:
    """Run each workload in a process of its own and merge their result lines.

    A launched child's peak RSS also covers the RSS of the process that
    launched it, so a workload must not run after another one's checks have
    grown this process.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + ["--smoke"] * args.smoke
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="the same workloads at n <= 5")
    args = parser.parse_args(argv)

    if not (SRC / "symfai" / "cli.py").is_file():
        sys.stderr.write(f"error: no symfai source at {SRC}; run from a checkout of the repository\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print_report(report, bool(args.trace))
    print(json.dumps({"provenance": provenance(args)}))
    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["run_problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
