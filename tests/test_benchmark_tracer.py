"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, and its workloads (perfbench/workloads.py) read package names; these
fail when a rename or deletion would break `run.py`."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import waterline.cli  # noqa: F401  imports every module the tracer wraps
import waterline.data
import waterline.training
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
    dataset in one call in generate_frames and checks it in one more."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_samples": 60, "seed": 4}))
    argv = ["gen", "--config", str(config), "--out", str(tmp_path / "data.jsonl"), "--verify"]
    with tracing.instrument(tracer):
        assert waterline.cli.main(argv) == 0
    assert "OK" in capsys.readouterr().out
    assert tracer.counts["geometry.project_calls"] == 2
    # gen calls generate_frames, which the tracer does not wrap; data.generate
    # spans only the callers that still read records.
    assert tracer.counts["data.generate_calls"] == 0


def _predict_and_eval(tmp_path):
    """A 40-frame dataset, and the argv of `predict --emit-features` and
    `eval` on it."""
    dataset, checkpoint = tmp_path / "data.jsonl", tmp_path / "checkpoint.json"
    frames = waterline.data.generate_frames(
        CameraModel.default(), waterline.data.GenConfig(n_samples=40, seed=3)
    )
    waterline.data.save_dataset(frames, dataset)
    save_checkpoint(init_params(0), checkpoint)
    return dataset, [
        ["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
         "--out", str(tmp_path / "pred.jsonl"), "--emit-features"],
        ["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
         "--out", str(tmp_path / "eval")],
    ]


def test_offline_stages_make_no_per_query_calls(tmp_path, capsys):
    """predict, eval and calibrate work on whole arrays: no per-query feature,
    decoder-query or pixel-error call, and one eval forward each for predict
    and eval."""
    _, runs = _predict_and_eval(tmp_path)
    detector = tmp_path / "detector.jsonl"
    box = {"c_x": 0.5, "c_y": 0.5, "w": 0.1, "h": 0.1}
    detector.write_text("".join(
        json.dumps({"schema": 1, "sample_id": f"{i:03d}", "query_index": 0, "logit": i / 4 - 2,
                    "box": box, "gt_visible": i % 2 == 0, "gt_box": box}) + "\n"
        for i in range(30)
    ))
    runs.append(["calibrate", "--dataset", str(detector), "--out", str(tmp_path / "cal")])
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


def test_tracer_sees_each_dataset_load(tmp_path, capsys):
    """data.load_s keeps measuring the loader: predict and eval each read the
    dataset once through data.load_dataset, which the tracer wraps by name,
    and eval no longer goes through visible_examples."""
    dataset, runs = _predict_and_eval(tmp_path)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for argv in runs:
            assert waterline.cli.main(argv) == 0
    capsys.readouterr()
    assert tracer.counts["data.load_calls"] == 2
    assert tracer.counts["data.bytes_read"] == 2 * dataset.stat().st_size
    assert tracer.counts["data.visible_examples_calls"] == 0


def test_train_steps_are_traced_per_layer():
    """training.batches, network.forward_train_s, network.backward_s and
    training.adamw_s measure their layers: each optimizer step is one train
    forward, one backward and one AdamW span under the request id the forward
    derives from the dropout seed, and each epoch one eval forward."""
    rng = np.random.default_rng(0)
    data = [(rng.uniform(-1.0, 1.0, (n, 6)), rng.uniform(0.1, 0.9, (n, 2))) for n in (100, 30)]
    config = waterline.training.TrainConfig(max_epochs=2, patience=2, batch_size=32)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _, history = waterline.training.train(*data, config)
    assert len(history.epochs) == 2
    counts = tracer.counts
    steps = {f"epoch{e}/batch{k}" for e in (1, 2) for k in range(4)}  # 32 + 32 + 32 + 4 rows
    assert counts["network.forward_train_calls"] == len(steps)
    assert counts["network.backward_calls"] == counts["training.adamw_calls"] == len(steps)
    assert counts["training.epoch_calls"] == 2
    names = [span[0] for span in tracer.spans]
    assert names.count("network.forward_eval") == 2
    assert names.count("training.train") == 1
    for name in ("network.forward_train", "network.backward", "training.adamw"):
        assert sorted(span[4] for span in tracer.spans if span[0] == name) == sorted(steps)


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
