"""The benchmark's last stdout line is its result: one strict-JSON object
whose gated end-to-end metrics are finite. A run that prints anything else
last cannot be scored, so a short offline run guards the line."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_offline_run_ends_with_a_finite_result_line():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline", "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
