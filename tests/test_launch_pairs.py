"""tools/launch_pairs.py run for one pair of `symfai tables` launches of this checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "launch_pairs.py"


def test_one_pair_of_tables_against_the_checkout():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--pairs", "1", "--", "tables"],
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert result["argv"] == ["tables"] and result["pairs"] == 1
    assert result["stdout_agree"] is True
    for side in ("a", "b"):
        summary = result[side]
        assert summary["tree"] == str(ROOT)
        assert summary["codes"] == [0]
        (wall,) = summary["wall_s"]
        assert summary["wall_median_s"] == wall > 0
        assert summary["wall_quartiles_s"] == [wall, wall]
        assert summary["maxrss_median_mb"] > 0
    assert result["a"]["won"] + result["b"]["won"] <= 1


def test_usage_without_a_command():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--"], capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == "" and done.stderr.startswith("usage:")
