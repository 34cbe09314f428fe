"""The benchmark's last stdout line is its result: one strict-JSON object
whose gated end-to-end metrics are finite. A run that prints anything else
last cannot be scored, so a short offline run guards the line. The train
workload's set-up and one short job run in process, on the package's data
functions as the benchmark calls them."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

from waterline.data import SampleRecord

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


def test_train_workload_setup_and_job(tmp_path, monkeypatch):
    """Train.setup (generate, split, visible_examples on 8,000 frames) builds
    no SampleRecord, and a one-epoch job on its sets passes the benchmark's
    own check."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")

    def refuse(record):
        raise AssertionError(f"a SampleRecord was built: {record.sample_id}")

    train = workloads.Train()
    with monkeypatch.context() as patch:
        patch.setattr(SampleRecord, "__post_init__", refuse)
        state = train.setup(5, tmp_path)
    assert state["train_frames"] == round(train.FRAMES * workloads.wl_cli.DEFAULT_VAL_RATIO)
    assert len(state["train"][0]) == len(state["train"][1]) > len(state["val"][0]) > 0
    _, history = train._job(state, 0, 1, None)
    assert checks.train_job_ok(history, 1)
