"""Smoke test of the benchmark command at n <= 5; it asserts no timings.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    proc = subprocess.run(
        [*SPEC["command"], "--smoke", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC[section]:
            reported = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]


def test_smoke_traced_attribution():
    proc = subprocess.run(
        [*SPEC["command"], "--smoke", "--workload", "algebra-large", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["sanfv.mul.calls"]["value"] > 0
    assert metrics["immunity.table_mb"]["value"] == 0
    assert metrics["dense.permuted_anf_int.calls"]["value"] == 0


def test_missing_program_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench = tmp_path / SPEC["paths"][0]
    bench.mkdir()
    for source in (ROOT / SPEC["paths"][0]).glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run([*SPEC["command"], "--workload", "census"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
