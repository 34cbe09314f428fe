"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, and its workloads (perfbench/workloads.py) read package names; these
fail when a rename or deletion would break `run.py`."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import waterline.cli  # noqa: F401  imports every module the tracer wraps
import waterline.data
from waterline.geometry import CameraModel
from waterline.network import init_params, save_checkpoint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_finds_every_traced_function():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    original = waterline.data.visible_examples
    with tracing.instrument(tracer):  # getattr on every traced name
        assert waterline.data.visible_examples is not original
        waterline.data.visible_examples([])
    assert waterline.data.visible_examples is original
    assert tracer.counts["data.visible_examples_calls"] == 1


def test_gen_verify_projects_once_per_stage(tmp_path, capsys):
    """geometry.project_s measures geometry: `gen --verify` projects the whole
    dataset in one call in generate and checks it in one more."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_samples": 60, "seed": 4}))
    argv = ["gen", "--config", str(config), "--out", str(tmp_path / "data.jsonl"), "--verify"]
    with tracing.instrument(tracer):
        assert waterline.cli.main(argv) == 0
    assert "OK" in capsys.readouterr().out
    assert tracer.counts["geometry.project_calls"] == 2
    assert tracer.counts["data.generate_calls"] == 1


def test_offline_stages_make_no_per_query_calls(tmp_path, capsys):
    """predict, eval and calibrate work on whole arrays: no per-query feature,
    decoder-query or pixel-error call, and one eval forward each for predict
    and eval."""
    dataset, checkpoint = tmp_path / "data.jsonl", tmp_path / "checkpoint.json"
    records = waterline.data.generate(
        CameraModel.default(), waterline.data.GenConfig(n_samples=40, seed=3)
    )
    waterline.data.save_dataset(records, dataset)
    save_checkpoint(init_params(0), checkpoint)
    detector = tmp_path / "detector.jsonl"
    box = {"c_x": 0.5, "c_y": 0.5, "w": 0.1, "h": 0.1}
    detector.write_text("".join(
        json.dumps({"schema": 1, "sample_id": f"{i:03d}", "query_index": 0, "logit": i / 4 - 2,
                    "box": box, "gt_visible": i % 2 == 0, "gt_box": box}) + "\n"
        for i in range(30)
    ))
    runs = [
        ["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
         "--out", str(tmp_path / "pred.jsonl"), "--emit-features"],
        ["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
         "--out", str(tmp_path / "eval")],
        ["calibrate", "--dataset", str(detector), "--out", str(tmp_path / "cal")],
    ]
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for argv in runs:
            assert waterline.cli.main(argv) == 0
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"cli.predict", "cli.eval", "cli.calibrate", "metrics.calibrate"} <= names
    assert tracer.counts["features.build_calls"] == 0
    assert "features.decoder_query" not in names
    assert tracer.counts["metrics.pixel_error_calls"] == 0
    assert tracer.counts["network.forward_eval_calls"] == 2


def test_workloads_read_only_existing_package_names():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {  # `import waterline.cli as wl_cli` -> {"wl_cli": "waterline.cli"}
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.asname and alias.asname.startswith("wl_")
    }
    reads = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("waterline.cli", "DEFAULT_VAL_RATIO") in reads
    missing = [
        f"{module}.{name}"
        for module, name in sorted(reads)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
