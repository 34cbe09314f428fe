import base64
import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import waterline
from conftest import hand_made_records
from oracles import (
    frames_of, per_frame_predict_rows, per_line_records, predict_row, write_json_lines,
    write_repr_csv,
)
from waterline.cli import DEFAULT_VAL_RATIO, _verify_fidelity, load_predictions, main
from waterline.data import (
    GenConfig, SampleRecord, generate_frames, load_dataset, save_dataset,
)
from waterline.errors import DatasetParseError, DatasetSchemaError, NumericError, TrainingAborted
from waterline.features import ChartQuery, ImuSample
from waterline.geometry import CameraModel
from waterline.metrics import DetectionReport
from waterline.network import forward, init_params, load_checkpoint, save_checkpoint
from waterline.training import EpochStats, TrainConfig, TrainHistory


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_gen_config(path, **overrides):
    config = {
        "n_samples": 40,
        "queries_per_sample": [1, 2],
        "distance_range_m": [20.0, 800.0],
        "seed": 7,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def dataset(tmp_path):
    camera = CameraModel.default()
    config = GenConfig(
        n_samples=60, queries_per_sample=(1, 2), distance_range_m=(20.0, 800.0), seed=3
    )
    path = tmp_path / "dataset.jsonl"
    save_dataset(generate_frames(camera, config), path)
    return path


@pytest.fixture
def checkpoint(tmp_path, dataset):
    out_dir = tmp_path / "run"
    config_path = tmp_path / "train.json"
    config_path.write_text(json.dumps({"max_epochs": 3, "patience": 3, "batch_size": 32}))
    code = main(
        [
            "train",
            "--dataset",
            str(dataset),
            "--config",
            str(config_path),
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    return out_dir / "checkpoint.json"


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        config = _write_gen_config(tmp_path / "gen.json")
        out = tmp_path / "data.jsonl"
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 40
        manifest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seeds"] == {"generator": 7}
        captured = capsys.readouterr().out
        assert "samples: 40" in captured
        assert "visible queries:" in captured

    def test_rerun_is_byte_identical(self, tmp_path):
        config = _write_gen_config(tmp_path / "gen.json")
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen", "--config", str(config), "--out", str(out1)])
        main(["gen", "--config", str(config), "--out", str(out2)])
        assert _sha256(out1) == _sha256(out2)

    def test_seed_flag_overrides(self, tmp_path):
        config = _write_gen_config(tmp_path / "gen.json")
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen", "--config", str(config), "--out", str(out1)])
        main(["gen", "--config", str(config), "--out", str(out2), "--seed", "99"])
        assert _sha256(out1) != _sha256(out2)

    def test_verify_passes_on_noise_free(self, tmp_path, capsys):
        config = _write_gen_config(tmp_path / "gen.json")
        out = tmp_path / "data.jsonl"
        assert main(["gen", "--config", str(config), "--out", str(out), "--verify"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("faults, first", [
        ({1: "gap", 2: "behind"}, 1),
        ({2: "behind", 4: "gap"}, 2),
    ])
    def test_verify_names_first_offending_sample(self, faults, first):
        """The one-call check raises for the first faulty visible label in
        file order, with that fault's message."""
        camera = CameraModel.default()
        frames = generate_frames(camera, GenConfig(n_samples=30, seed=3))
        assert 0.0 <= _verify_fidelity(camera, frames) <= 1e-9
        records = frames.records()
        with_visible = [i for i, r in enumerate(records) if any(lb.visible for lb in r.labels)]
        for k, fault in faults.items():
            record = records[with_visible[k]]
            if fault == "gap":
                labels = tuple(dataclasses.replace(lb, c_x=lb.c_x + 1e-6) if lb.visible else lb
                               for lb in record.labels)
                record = dataclasses.replace(record, labels=labels)
            else:  # a visible label whose query lies behind the camera
                queries = tuple(ChartQuery(100.0, 180.0) for _ in record.queries)
                record = dataclasses.replace(record, queries=queries)
            records[with_visible[k]] = record
        sample_id = records[with_visible[first]].sample_id
        message = (f"sample {sample_id}: label/projection gap 1.000e-06 exceeds 1e-9"
                   if faults[first] == "gap" else f"sample {sample_id}: visible label but no projection")
        with pytest.raises(NumericError) as excinfo:
            _verify_fidelity(camera, frames_of(records))
        assert str(excinfo.value) == message

    def test_verify_skipped_on_noisy(self, tmp_path, capsys):
        config = _write_gen_config(tmp_path / "gen.json", bearing_noise_deg=0.5)
        out = tmp_path / "data.jsonl"
        assert main(["gen", "--config", str(config), "--out", str(out), "--verify"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        code = main(["gen", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 2

    def test_nan_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        config.write_text('{"n_samples": 5, "distance_noise_rel": NaN, "seed": 1}')
        out = tmp_path / "data.jsonl"
        code = main(["gen", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "generator config is not valid JSON: non-finite number NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, token", [("distance_noise_rel", "1e999"), ("distance_range_m", "[5.0, 1e999]")]
    )
    def test_overflowed_config_is_config_error(self, tmp_path, capsys, field, token):
        config = tmp_path / "gen.json"
        config.write_text(f'{{"n_samples": 5, "{field}": {token}}}')
        out = tmp_path / "data.jsonl"
        code = main(["gen", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, message",
        [("focal_px", "focal_px must be finite"), ("image_w", "image_w must be finite")],
    )
    def test_overflowed_camera_is_config_error(self, tmp_path, capsys, field, message):
        camera = dataclasses.asdict(CameraModel.default())
        camera[field] = "VALUE"
        camera_path = tmp_path / "camera.json"
        camera_path.write_text(json.dumps(camera).replace('"VALUE"', "1e999"))
        config = _write_gen_config(tmp_path / "gen.json")
        out = tmp_path / "data.jsonl"
        code = main(
            ["gen", "--camera", str(camera_path), "--config", str(config), "--out", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_camera_flag(self, tmp_path):
        camera_path = tmp_path / "camera.json"
        CameraModel(300.0, 320.0, 180.0, 640, 360, 5.0).save(camera_path)
        config = _write_gen_config(tmp_path / "gen.json")
        out = tmp_path / "data.jsonl"
        code = main(
            ["gen", "--camera", str(camera_path), "--config", str(config), "--out", str(out)]
        )
        assert code == 0


class TestTrain:
    def test_outputs(self, tmp_path, dataset, capsys):
        out_dir = tmp_path / "run"
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({"max_epochs": 2, "patience": 2, "batch_size": 32}))
        code = main(
            ["train", "--dataset", str(dataset), "--config", str(config_path), "--out", str(out_dir)]
        )
        assert code == 0
        with open(out_dir / "history.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 2
        summary = json.loads((out_dir / "history.json").read_text())
        assert set(summary) == {"best_epoch", "best_val_loss", "stop_reason"}
        assert (out_dir / "checkpoint.json").exists()
        assert (out_dir / "manifest.json").exists()
        assert "best epoch" in capsys.readouterr().out

    def test_rerun_checkpoint_identical(self, tmp_path, dataset):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({"max_epochs": 2, "patience": 2, "batch_size": 32}))
        hashes = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            main(
                [
                    "train",
                    "--dataset",
                    str(dataset),
                    "--config",
                    str(config_path),
                    "--out",
                    str(out_dir),
                ]
            )
            hashes.append(_sha256(out_dir / "checkpoint.json"))
        assert hashes[0] == hashes[1]

    def test_default_config_matches_recipe(self):
        config = TrainConfig()
        assert (config.lr, config.weight_decay, config.batch_size) == (1e-3, 1e-4, 256)
        assert (config.max_epochs, config.patience) == (1000, 60)
        assert 0.8 < DEFAULT_VAL_RATIO < 0.84
        assert config.val_ratio == DEFAULT_VAL_RATIO

    def test_unknown_config_key_is_config_error(self, tmp_path, dataset, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({"max_epoch": 2}))
        code = main(
            ["train", "--dataset", str(dataset), "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("n_records", [0, 1])
    def test_too_few_samples_is_config_error(self, tmp_path, capsys, n_records):
        dataset = tmp_path / "few.jsonl"
        imu = ImuSample(pitch_deg=1.0, roll_deg=-2.0, heading_deg=30.0)
        save_dataset(frames_of([SampleRecord(f"{i:06d}", imu, (), ()) for i in range(n_records)]),
                     dataset)
        code = main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "need at least 2 records to split" in capsys.readouterr().err

    def test_one_visible_train_query_is_config_error(self, tmp_path, capsys):
        # two frames of one visible query each: the split leaves one train sample
        config = GenConfig(n_samples=2, queries_per_sample=(1, 1), distance_range_m=(50.0, 200.0),
                           bearing_range_deg=(-5.0, 5.0), seed=0)
        frames = generate_frames(CameraModel.default(), config)
        assert np.count_nonzero(frames.visible) == 2
        dataset = tmp_path / "two.jsonl"
        save_dataset(frames, dataset)
        out_dir = tmp_path / "o"
        assert main(["train", "--dataset", str(dataset), "--out", str(out_dir)]) == 2
        assert "1 visible queries in the train split" in _one_error_line(capsys)
        assert not out_dir.exists()

    def test_malformed_dataset_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        code = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_nan_box_field_is_data_error(self, tmp_path, dataset, capsys):
        lines = dataset.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if '"visible":true' in line)
        record = json.loads(lines[i])
        record["labels"] = [{**lb, "c_x": "C_X"} if lb["visible"] else lb for lb in record["labels"]]
        lines[i] = json.dumps(record).replace('"C_X"', "NaN")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"line {i + 1}: 'c_x' must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["lr", "batch_size", "eta_min"])
    def test_overflowed_config_is_config_error(self, tmp_path, dataset, capsys, field):
        config_path = tmp_path / "train.json"
        config_path.write_text(f'{{"{field}": 1e999}}')
        out_dir = tmp_path / "o"
        code = main(
            ["train", "--dataset", str(dataset), "--config", str(config_path), "--out", str(out_dir)]
        )
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (out_dir / "checkpoint.json").exists()

    def test_non_object_config_is_config_error(self, tmp_path, dataset, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text("[2]")
        code = main(
            ["train", "--dataset", str(dataset), "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "training config must be a JSON object" in capsys.readouterr().err

    def test_no_visible_queries_is_config_error(self, tmp_path):
        records = load_dataset_without_visible(tmp_path)
        code = main(["train", "--dataset", str(records), "--out", str(tmp_path / "o")])
        assert code == 2


ABSENT = object()  # the whole config is `{}`


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("gen", "n_samples", 5.5),
        ("gen", "n_samples", True),
        ("gen", "seed", 1.5),
        ("gen", "queries_per_sample", [1, "3"]),
        ("camera", "focal_px", "600"),
        ("camera", "image_w", 960.7),
        ("train", "lr", "0.1"),
        ("train", "max_epochs", 2.5),
        ("train", "batch_size", 32.0),
        ("train", "val_ratio", "0.5"),
        ("train", "weight_decay", -5.0),
        ("train", "eta_min", -1e-4),
        ("train", "eta_min", 0.1),  # above the default lr of 1e-3
        pytest.param("gen", "n_samples", ABSENT, id="gen-n_samples-absent"),
        ("camera", "banana", 1),
        ("gen", "seed", -1),
        ("train", "seed", -1),
        ("train --seed", "seed", -3),
        ("gen", "pitch_range_deg", [-100, -95]),
    ],
)
def test_bad_config_value_is_config_error(tmp_path, dataset, capsys, command, field, value):
    out = tmp_path / "out"
    message = f"error: {field} must"
    if command == "train":
        config = tmp_path / "train.json"
        config.write_text(json.dumps({field: value}))
        argv = ["train", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
    elif command == "train --seed":
        argv = ["train", "--dataset", str(dataset), "--out", str(out), "--seed", str(value)]
    else:
        config = _write_gen_config(tmp_path / "gen.json")
        argv = ["gen", "--config", str(config), "--out", str(out)]
        if value is ABSENT:
            config.write_text("{}")
            message = f"error: generator config missing keys: ['{field}']"
        elif command == "gen":
            _write_gen_config(config, **{field: value})
        else:
            camera = tmp_path / "camera.json"
            fields = dataclasses.asdict(CameraModel.default())
            if field not in fields:
                message = f"error: unknown camera config keys: ['{field}']"
            camera.write_text(json.dumps({**fields, field: value}))
            argv += ["--camera", str(camera)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def load_dataset_without_visible(tmp_path):
    path = tmp_path / "novis.jsonl"
    lines = []
    for i in range(4):
        lines.append(
            json.dumps(
                {
                    "schema": 1,
                    "sample_id": str(i),
                    "imu": {"pitch_deg": 0, "roll_deg": 0, "heading_deg": 0},
                    "queries": [{"distance_m": 100, "bearing_deg": 170}],
                    "labels": [{"visible": False}],
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


_NAN = np.float64(np.nan).astype("<f8").tobytes()
_INF = np.float64(np.inf).astype("<f8").tobytes()


def _edit_blob(edit):
    """A checkpoint edit that applies edit(bytes) to the decoded params blob."""

    def apply(payload):
        raw = edit(base64.b64decode(payload["params"]))
        payload["params"] = base64.b64encode(raw).decode("ascii")

    return apply


def _as_v1(payload):
    """The container of the retired per-tensor JSON format."""
    del payload["params"]
    payload["format_version"] = 1
    payload["tensors"] = {"w1": {"shape": [1], "data": [0.0]}}


def _tampered_checkpoint(tmp_path, checkpoint, edit):
    payload = json.loads(checkpoint.read_text())
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad


class TestEval:
    def test_stats_schema(self, tmp_path, dataset, checkpoint, capsys):
        out_dir = tmp_path / "eval"
        code = main(
            ["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint), "--out", str(out_dir)]
        )
        assert code == 0
        stats = json.loads((out_dir / "error_stats.json").read_text())
        assert set(stats) == {"median_px", "mean_px", "p90_px", "n"}
        with open(out_dir / "errors.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["sample_id", "query_index", "error_px"]
        assert len(rows) - 1 == stats["n"]
        assert "median_px" in capsys.readouterr().out

    def test_no_visible_queries_errors(self, tmp_path, checkpoint, capsys):
        empty = load_dataset_without_visible(tmp_path)
        code = main(
            ["eval", "--dataset", str(empty), "--checkpoint", str(checkpoint), "--out", str(tmp_path / "e")]
        )
        assert code == 2
        assert "no visible queries" in capsys.readouterr().err

    def test_bad_checkpoint_is_config_error(self, tmp_path, dataset):
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps({"format_version": 1, "layer_sizes": [1], "tensors": {}}))
        code = main(
            ["eval", "--dataset", str(dataset), "--checkpoint", str(bad), "--out", str(tmp_path / "e")]
        )
        assert code == 2

    def test_invalid_utf8_dataset_is_data_error(self, tmp_path, dataset, checkpoint, capsys):
        bad = tmp_path / "bad.jsonl"
        lines = dataset.read_bytes().splitlines(keepends=True)
        bad.write_bytes(lines[0] + b"\xff\xfe" + lines[1] + b"".join(lines[2:]))
        code = main(
            ["eval", "--dataset", str(bad), "--checkpoint", str(checkpoint), "--out", str(tmp_path / "e")]
        )
        assert code == 3
        assert "line 2: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_nan_checkpoint_is_config_error(self, tmp_path, dataset, checkpoint, capsys):
        bad = _tampered_checkpoint(tmp_path, checkpoint, _edit_blob(lambda raw: _NAN + raw[8:]))
        code = main(
            ["eval", "--dataset", str(dataset), "--checkpoint", str(bad), "--out", str(tmp_path / "e")]
        )
        assert code == 2
        assert "checkpoint params have non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_edit_blob(lambda raw: raw[:-1]), "bytes, want"),
            (_edit_blob(lambda raw: _INF + raw[8:]), "non-finite values"),
            (lambda payload: payload.update(params="not base64!"), "not valid base64"),
            (lambda payload: payload.pop("params"), "no params blob"),
            (_as_v1, "unsupported checkpoint version 1"),
        ],
        ids=["truncated", "inf", "non-base64", "missing-params", "v1"],
    )
    def test_tampered_checkpoint_is_config_error(
        self, tmp_path, dataset, checkpoint, capsys, edit, message
    ):
        bad = _tampered_checkpoint(tmp_path, checkpoint, edit)
        code = main(
            ["eval", "--dataset", str(dataset), "--checkpoint", str(bad), "--out", str(tmp_path / "e")]
        )
        assert code == 2
        assert message in capsys.readouterr().err


class TestPredict:
    def test_rows_cover_every_query(self, tmp_path, dataset, checkpoint):
        out = tmp_path / "pred.jsonl"
        code = main(
            ["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint), "--out", str(out)]
        )
        assert code == 0
        total_queries = len(load_dataset(dataset).distance_m)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == total_queries
        for row in rows:
            assert len(row["decoder_query"]) == 4
            assert 0.0 < row["prediction"]["c_x"] < 1.0
            assert 0.0 < row["prediction"]["c_y_plus_half_h"] < 1.0
            assert "features" not in row

    def test_decoder_query_prefix_matches_features(self, tmp_path, dataset, checkpoint):
        out = tmp_path / "pred.jsonl"
        main(
            [
                "predict",
                "--dataset",
                str(dataset),
                "--checkpoint",
                str(checkpoint),
                "--out",
                str(out),
                "--emit-features",
            ]
        )
        for line in out.read_text().splitlines():
            row = json.loads(line)
            assert len(row["features"]) == 6
            assert row["decoder_query"][0] == row["features"][0]
            assert row["decoder_query"][1] == row["features"][2]
            assert row["decoder_query"][2] == row["prediction"]["c_x"]
            assert row["decoder_query"][3] == row["prediction"]["c_y_plus_half_h"]

    def test_rerun_identical(self, tmp_path, dataset, checkpoint):
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        main(["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint), "--out", str(out1)])
        main(["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint), "--out", str(out2)])
        assert _sha256(out1) == _sha256(out2)

    def test_rows_match_per_frame_forward(self, tmp_path, checkpoint):
        # Buoy-free frames and 1-3 query frames; the whole-set forward may
        # differ from 1-3 row forwards only by BLAS blocking.
        dataset = tmp_path / "mixed.jsonl"
        config = GenConfig(n_samples=200, queries_per_sample=(0, 3), seed=11)
        save_dataset(generate_frames(CameraModel.default(), config), dataset)
        out = tmp_path / "pred.jsonl"
        code = main(["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                     "--out", str(out), "--emit-features"])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        expected = per_frame_predict_rows(per_line_records(dataset), load_checkpoint(checkpoint))
        assert len(rows) == len(expected) > 200
        for row, (sample_id, qi, point, decoder_query, features) in zip(rows, expected):
            assert (row["sample_id"], row["query_index"]) == (sample_id, qi)
            prediction = [row["prediction"]["c_x"], row["prediction"]["c_y_plus_half_h"]]
            assert np.all(np.abs(np.subtract(prediction, point)) <= 1e-12)
            assert row["decoder_query"][:2] == decoder_query[:2]
            assert row["decoder_query"][2:] == prediction
            assert row["features"] == features

    @pytest.mark.parametrize("emit_features", [False, True])
    def test_hand_made_dataset_rows_equal_reference_writer(self, tmp_path, checkpoint,
                                                           emit_features):
        dataset = tmp_path / "hand.jsonl"
        save_dataset(frames_of(hand_made_records()), dataset)
        out, reference = tmp_path / "pred.jsonl", tmp_path / "reference.jsonl"
        argv = ["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                "--out", str(out)]
        assert main(argv + ["--emit-features"] * emit_features) == 0
        frames = load_dataset(dataset)
        feats = frames.features()
        pred, _ = forward(load_checkpoint(checkpoint), feats, training=False)
        write_json_lines(reference, (
            predict_row(sample_id, qi, features, point, emit_features)
            for sample_id, qi, features, point in zip(
                *(keys.tolist() for keys in frames.query_keys()), feats.tolist(), pred.tolist())
        ))
        assert out.read_bytes() == reference.read_bytes()
        assert len(out.read_text(encoding="ascii").splitlines()) == 3

    def test_buoy_free_dataset_writes_no_rows(self, tmp_path, checkpoint, capsys):
        dataset = tmp_path / "free.jsonl"
        imu = ImuSample(pitch_deg=1.0, roll_deg=-2.0, heading_deg=30.0)
        save_dataset(frames_of([SampleRecord(f"{i:06d}", imu, (), ()) for i in range(3)]), dataset)
        out = tmp_path / "pred.jsonl"
        code = main(["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                     "--out", str(out)])
        assert code == 0
        assert out.read_text() == ""
        assert "queries predicted: 0" in capsys.readouterr().out


def _write_predictions(path, n=80, seed=0, shift=0.0):
    rng = np.random.default_rng(seed)
    with open(path, "w") as f:
        for i in range(n):
            visible = bool(rng.random() < 0.5)
            logit = float(rng.normal(2.2 + 2.5 if visible else 2.2 - 2.5, 1.0) + shift)
            box = {
                "c_x": float(rng.uniform(0.3, 0.7)),
                "c_y": float(rng.uniform(0.3, 0.7)),
                "w": 0.1,
                "h": 0.1,
            }
            row = {
                "schema": 1,
                "sample_id": f"{i:04d}",
                "query_index": 0,
                "logit": logit,
                "box": box,
                "gt_visible": visible,
                "gt_box": box if visible else None,
            }
            f.write(json.dumps(row) + "\n")
    return path


class TestCalibrate:
    def test_default_grid(self, tmp_path, capsys):
        preds = _write_predictions(tmp_path / "preds.jsonl")
        out_dir = tmp_path / "cal"
        code = main(["calibrate", "--dataset", str(preds), "--out", str(out_dir)])
        assert code == 0
        with open(out_dir / "curve.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 25
        best = json.loads((out_dir / "best_bias.json").read_text())
        overall_col = [float(r[5]) for r in rows[1:]]
        assert best["overall"] == max(overall_col)
        assert "best bias" in capsys.readouterr().out

    def test_fine_step(self, tmp_path):
        preds = _write_predictions(tmp_path / "preds.jsonl")
        out_dir = tmp_path / "cal"
        code = main(
            ["calibrate", "--dataset", str(preds), "--out", str(out_dir), "--step", "0.025"]
        )
        assert code == 0
        with open(out_dir / "curve.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 241

    def test_custom_range_and_threshold(self, tmp_path):
        preds = _write_predictions(tmp_path / "preds.jsonl")
        out_dir = tmp_path / "cal"
        code = main(
            [
                "calibrate",
                "--dataset",
                str(preds),
                "--out",
                str(out_dir),
                "--range",
                "-1",
                "1",
                "--step",
                "0.5",
                "--threshold",
                "0.8",
            ]
        )
        assert code == 0
        best = json.loads((out_dir / "best_bias.json").read_text())
        assert best["grid"] == {"lo": -1.0, "hi": 1.0, "step": 0.5}
        assert best["threshold"] == 0.8

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--threshold", "1.5"], "threshold must lie in (0, 1)"),
            (["--threshold", "0"], "threshold must lie in (0, 1)"),
            (["--threshold", "nan"], "threshold must lie in (0, 1)"),
            (["--range", "-3", "1e400"], "grid bounds and step must be finite"),
            (["--range", "nan", "3"], "grid bounds and step must be finite"),
            (["--step", "inf"], "grid bounds and step must be finite"),
            (["--step", "1e-9"], "grid would have 6000000001 points, more than the limit"),
        ],
        ids=[
            "threshold-1.5", "threshold-0", "threshold-nan", "range-1e400", "range-nan", "step-inf",
            "step-1e-9",
        ],
    )
    def test_meaningless_sweep_is_config_error(self, tmp_path, capsys, flags, message):
        preds = _write_predictions(tmp_path / "preds.jsonl", n=5)
        out_dir = tmp_path / "cal"
        code = main(["calibrate", "--dataset", str(preds), "--out", str(out_dir), *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_empty_predictions_is_config_error(self, tmp_path, capsys):
        empty = tmp_path / "preds.jsonl"
        empty.write_text("")
        out_dir = tmp_path / "cal"
        code = main(["calibrate", "--dataset", str(empty), "--out", str(out_dir)])
        assert code == 2
        assert "no predictions to calibrate on" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_predict_output_names_its_format(self, tmp_path, capsys, dataset):
        predictions, checkpoint = tmp_path / "pred.jsonl", tmp_path / "checkpoint.json"
        save_checkpoint(init_params(0), checkpoint)
        argv = ["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                "--out", str(predictions)]
        assert main(argv) == 0
        capsys.readouterr()
        code = main(["calibrate", "--dataset", str(predictions), "--out", str(tmp_path / "cal")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: line 1: a `predict` output row (prediction, decoder_query); calibrate "
            "reads detector rows (logit, box, gt_visible, gt_box)\n"
        )

    def test_malformed_predictions_is_data_error(self, tmp_path):
        bad = tmp_path / "preds.jsonl"
        bad.write_text('{"schema": 1, "logit": 1.0}\n')
        code = main(["calibrate", "--dataset", str(bad), "--out", str(tmp_path / "cal")])
        assert code == 3

    @pytest.mark.parametrize("logit", ["true", "NaN", "Infinity", "1e999", '"abc"'])
    def test_bad_logit_is_data_error(self, tmp_path, capsys, logit):
        preds = _write_predictions(tmp_path / "preds.jsonl", n=5)
        lines = preds.read_text().splitlines()
        row = json.loads(lines[2])
        row["logit"] = "LOGIT"
        lines[2] = json.dumps(row).replace('"LOGIT"', logit)
        preds.write_text("\n".join(lines) + "\n")
        code = main(["calibrate", "--dataset", str(preds), "--out", str(tmp_path / "cal")])
        assert code == 3
        assert "line 3: 'logit' must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, side, value",
        [("box", "w", 0.0), ("box", "h", -0.1), ("gt_box", "w", -0.2), ("gt_box", "h", 0.0)],
    )
    def test_empty_box_is_data_error(self, tmp_path, capsys, key, side, value):
        preds = _write_predictions(tmp_path / "preds.jsonl", n=5)
        lines = preds.read_text().splitlines()
        row = json.loads(lines[2])
        row["gt_visible"] = True
        row["gt_box"] = dict(row["box"])
        row[key][side] = value
        lines[2] = json.dumps(row)
        preds.write_text("\n".join(lines) + "\n")
        code = main(["calibrate", "--dataset", str(preds), "--out", str(tmp_path / "cal")])
        assert code == 3
        assert f"line 3: '{key}' must have positive width and height" in capsys.readouterr().err

    def test_invalid_utf8_is_data_error(self, tmp_path, capsys):
        preds = _write_predictions(tmp_path / "preds.jsonl", n=5)
        preds.write_bytes(b"\xff\xfe" + preds.read_bytes())
        code = main(["calibrate", "--dataset", str(preds), "--out", str(tmp_path / "cal")])
        assert code == 3
        assert "line 1: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_load_predictions_requires_gt_box_when_visible(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        row = {
            "schema": 1,
            "sample_id": "a",
            "query_index": 0,
            "logit": 1.0,
            "box": {"c_x": 0.5, "c_y": 0.5, "w": 0.1, "h": 0.1},
            "gt_visible": True,
            "gt_box": None,
        }
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(DatasetSchemaError, match="gt_box"):
            load_predictions(path)

    def test_load_predictions_round_trip(self, tmp_path):
        path = _write_predictions(tmp_path / "preds.jsonl", n=10)
        rows = load_predictions(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        boxes = [list(line["box"].values()) for line in lines]
        assert rows.logits.tolist() == [line["logit"] for line in lines]
        assert rows.boxes.tolist() == boxes
        assert rows.gt_visible.tolist() == [line["gt_visible"] for line in lines]
        assert rows.gt_boxes.tolist() == [
            box if line["gt_visible"] else [0.0] * 4 for box, line in zip(boxes, lines)
        ]
        assert 0 < rows.gt_visible.sum() < 10

    def test_integer_numbers_load_as_floats(self, tmp_path, monkeypatch):
        """Values the writers never emit but the line rules accept: integer
        numbers, a gt_box beside gt_visible false and an extra key. They load
        by columns, with no per-line call; an integer too large for a float
        is named by its line."""
        path = _write_predictions(tmp_path / "preds.jsonl", n=6)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        expected = load_predictions(path)
        lines[1]["logit"] = 3
        lines[2]["box"]["w"] = 1
        lines[3].update(gt_visible=False, gt_box={"c_x": "x"}, note=None)
        lines[4].update(logit=-2, box={"c_x": 0, "c_y": 1, "w": 2, "h": 3}, gt_visible=True,
                        gt_box={"c_x": 1, "c_y": 0, "w": 1, "h": 1})
        lines[5]["logit"] = 2**53 + 1
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        per_line = []
        check_prediction = waterline.data._check_prediction
        monkeypatch.setattr(waterline.data, "_check_prediction",
                            lambda data, seen: per_line.append(data) or check_prediction(data, seen))
        rows = load_predictions(path)
        assert per_line == []
        assert rows.logits.tolist() == [expected.logits[0], 3.0, *expected.logits[2:4],
                                        -2.0, float(2**53 + 1)]
        assert rows.boxes[2].tolist() == [*expected.boxes[2, :2], 1.0, expected.boxes[2, 3]]
        assert not rows.gt_visible[3] and rows.gt_boxes[3].tolist() == [0.0] * 4
        assert rows.boxes[4].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert rows.gt_visible[4] and rows.gt_boxes[4].tolist() == [1.0, 0.0, 1.0, 1.0]
        assert rows.logits.dtype == rows.boxes.dtype == rows.gt_boxes.dtype == np.float64

        lines[2]["box"]["h"] = 10**400
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(DatasetSchemaError) as excinfo:
            load_predictions(path)
        assert str(excinfo.value) == f"line 3: 'h' must be a finite number, got {10**400!r}"


# Any JSON value, plus the non-finite floats and the out-of-range integers that
# json.dumps writes as NaN, Infinity and long digit strings.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)
_NUMBER = st.one_of(st.floats(), st.integers(-(10**400), 10**400), _JUNK)
_BOX = st.one_of(st.fixed_dictionaries({k: _NUMBER for k in ("c_x", "c_y", "w", "h")}), _JUNK)
_PREDICTION_LINE = st.one_of(
    st.fixed_dictionaries(
        {
            "schema": st.one_of(st.just(1), _JUNK),
            "sample_id": st.one_of(st.sampled_from(["a", "b"]), _JUNK),
            "query_index": st.one_of(st.integers(-1, 2), _JUNK),
            "logit": _NUMBER,
            "box": _BOX,
            "gt_visible": st.one_of(st.booleans(), _JUNK),
        },
        optional={"gt_box": _BOX},
    ).map(json.dumps),
    st.dictionaries(st.sampled_from(["schema", "sample_id", "query_index", "logit", "box",
                                     "gt_visible", "gt_box"]), _JUNK).map(
        json.dumps
    ),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_PREDICTION_LINE, min_size=1, max_size=4))
def test_load_predictions_yields_finite_typed_values_or_a_data_error(tmp_path, lines):
    path = tmp_path / "preds.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        rows = load_predictions(path)
    except (DatasetParseError, DatasetSchemaError):
        return  # main maps both to exit code 3
    n = len(rows.logits)
    assert rows.logits.shape == (n,) and rows.gt_visible.shape == (n,)
    assert rows.boxes.shape == rows.gt_boxes.shape == (n, 4)
    assert rows.logits.dtype == rows.boxes.dtype == rows.gt_boxes.dtype == np.float64
    assert rows.gt_visible.dtype == bool
    assert all(np.isfinite(column).all() for column in (rows.logits, rows.boxes, rows.gt_boxes))
    sizes = np.concatenate((rows.boxes[:, 2:], rows.gt_boxes[rows.gt_visible, 2:]))
    assert (sizes > 0).all()
    assert not rows.gt_boxes[~rows.gt_visible].any()
    # The columns hold each line's values, in file order.
    parsed = [json.loads(raw) for raw in path.read_bytes().split(b"\n") if raw.decode().strip()]
    assert rows.logits.tolist() == [float(line["logit"]) for line in parsed]
    assert rows.gt_visible.tolist() == [line["gt_visible"] for line in parsed]
    assert rows.boxes.tolist() == [[float(line["box"][k]) for k in "c_x c_y w h".split()]
                                   for line in parsed]


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "waterline" in capsys.readouterr().out


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestExitCodes:
    """main maps each kind of error to its exit code and one `error:` line on
    stderr, and writes no manifest for a failed command."""

    @pytest.mark.parametrize("content, message", [
        ('{"schema": 99}\n', "line 1: unsupported schema version 99"),  # DatasetSchemaError
        ("{broken\n", "line 1: "),  # DatasetParseError
    ], ids=["schema", "parse"])
    def test_malformed_dataset_exits_3(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content)
        out_dir = tmp_path / "o"
        assert main(["train", "--dataset", str(bad), "--out", str(out_dir)]) == 3
        assert _one_error_line(capsys).startswith(f"error: {message}")
        assert not out_dir.exists()

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["train", "--dataset", str(missing), "--out", str(tmp_path / "o")]) == 3
        assert _one_error_line(capsys) == f"error: dataset not found: {missing}"

    @pytest.mark.parametrize("command, role", [
        (["predict", "--checkpoint", "ck.json"], "dataset"),
        (["eval", "--checkpoint", "ck.json"], "dataset"),
        (["calibrate"], "detector file"),
    ])
    def test_missing_input_names_its_role(self, tmp_path, capsys, command, role):
        missing = tmp_path / "nope.jsonl"
        out = tmp_path / "out"
        assert main([*command, "--dataset", str(missing), "--out", str(out)]) == 3
        assert _one_error_line(capsys) == f"error: {role} not found: {missing}"
        assert not out.exists()

    def test_config_error_exits_2(self, tmp_path, dataset, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text('{"batch_size": 1}')
        out_dir = tmp_path / "o"
        argv = ["train", "--dataset", str(dataset), "--config", str(config_path),
                "--out", str(out_dir)]
        assert main(argv) == 2
        assert "batch_size" in _one_error_line(capsys)
        assert not (out_dir / "manifest.json").exists()

    def test_numeric_error_exits_4(self, tmp_path, dataset, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingAborted("epoch 1: non-finite gradient in w1")

        monkeypatch.setattr(waterline.cli, "train", diverge)
        out_dir = tmp_path / "o"
        assert main(["train", "--dataset", str(dataset), "--out", str(out_dir)]) == 4
        assert _one_error_line(capsys) == "error: epoch 1: non-finite gradient in w1"
        assert not (out_dir / "manifest.json").exists()

    def test_unmapped_exception_propagates(self, tmp_path, dataset, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("not an error kind main maps")

        monkeypatch.setattr(waterline.cli, "train", fail)
        with pytest.raises(RuntimeError, match="not an error kind"):
            main(["train", "--dataset", str(dataset), "--out", str(tmp_path / "o")])
        assert capsys.readouterr().err == ""

    def test_module_run_logs_as_waterline_cli(self, tmp_path):
        config = _write_gen_config(tmp_path / "gen.json")
        env = {**os.environ, "WATERLINE_LOG": "info",
               "PYTHONPATH": str(Path(waterline.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "waterline.cli", "gen", "--config", str(config),
             "--out", str(tmp_path / "data.jsonl")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "INFO:waterline.cli:no camera config given" in done.stderr

    @pytest.mark.parametrize("level", ["verbose", "5"])
    def test_unknown_log_level_is_usage_error(self, tmp_path, level):
        # In a fresh process: under pytest, logging.basicConfig does nothing,
        # since the root logger already has pytest's handlers.
        config = _write_gen_config(tmp_path / "gen.json")
        out = tmp_path / "data.jsonl"
        env = {**os.environ, "WATERLINE_LOG": level,
               "PYTHONPATH": str(Path(waterline.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "waterline.cli", "gen", "--config", str(config),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: WATERLINE_LOG"), done.stderr
        assert repr(level) in lines[0]
        assert not out.exists()


class TestOutputLocations:
    """gen and predict write the file --out, with its manifest beside it; train,
    eval and calibrate write into the directory --out, with manifest.json
    inside. Each creates the missing directories on the way; a run that fails
    on its input leaves none behind."""

    @pytest.fixture
    def argv(self, tmp_path, dataset, checkpoint):
        """Each command's argv, all but --out; item 2 is its input file."""
        train_config = tmp_path / "train.json"
        train_config.write_text(json.dumps({"max_epochs": 2, "patience": 2, "batch_size": 32}))
        return {
            "gen": ["gen", "--config", str(_write_gen_config(tmp_path / "gen.json"))],
            "train": ["train", "--dataset", str(dataset), "--config", str(train_config)],
            "eval": ["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint)],
            "calibrate": ["calibrate", "--dataset",
                          str(_write_predictions(tmp_path / "detector.jsonl"))],
            "predict": ["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint)],
        }

    @pytest.mark.parametrize("command, out, manifest", [
        ("gen", "data.jsonl", "data.jsonl.manifest.json"),
        ("train", "run", "run/manifest.json"),
        ("eval", "ev", "ev/manifest.json"),
        ("calibrate", "cal", "cal/manifest.json"),
        ("predict", "p.jsonl", "p.jsonl.manifest.json"),
    ])
    def test_missing_directories_are_created(self, tmp_path, argv, command, out, manifest):
        new = tmp_path / "new" / "nested"
        assert main([*argv[command], "--out", str(new / out)]) == 0
        assert json.loads((new / manifest).read_text())["command"] == command
        assert (new / out).is_dir() == (command not in ("gen", "predict"))

    @pytest.mark.parametrize("command, code", [
        ("gen", 2), ("train", 3), ("eval", 3), ("calibrate", 3), ("predict", 3),
    ])
    def test_failed_run_leaves_no_out(self, tmp_path, argv, capsys, command, code):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 99}\n')
        args = argv[command]
        args[2] = str(bad)
        assert main([*args, "--out", str(tmp_path / "new" / "out")]) == code
        _one_error_line(capsys)
        assert not (tmp_path / "new").exists()


# Floats a CSV writer must write as repr does.
_ODD_FLOATS = (-0.0, 5e-324, 1e16, 1 / 3)


class TestCsvOutputs:
    """errors.csv, curve.csv and history.csv hold the bytes of the writer that
    passes each float through repr by hand (oracles.write_repr_csv)."""

    def test_errors_csv(self, tmp_path, dataset, checkpoint, monkeypatch):
        monkeypatch.setattr(waterline.cli, "pixel_errors",
                            lambda pred, *_: [_ODD_FLOATS[i % 4] for i in range(len(pred))])
        out = tmp_path / "ev"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                     "--out", str(out)]) == 0
        frames = load_dataset(dataset)
        keys = zip(*(column[frames.visible].tolist() for column in frames.query_keys()))
        rows = [(sample_id, index, _ODD_FLOATS[i % 4])
                for i, (sample_id, index) in enumerate(keys)]
        write_repr_csv(tmp_path / "want.csv", ["sample_id", "query_index", "error_px"], rows)
        assert (out / "errors.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_curve_csv(self, tmp_path, monkeypatch):
        curve = [(bias, DetectionReport(*_ODD_FLOATS, overall, 1, 2, 3))
                 for bias, overall in ((-0.0, 1 / 3), (5e-324, 1e16))]
        monkeypatch.setattr(waterline.cli, "calibrate_bias", lambda *args, **kwargs: (-0.0, curve))
        out = tmp_path / "cal"
        detector = _write_predictions(tmp_path / "detector.jsonl")
        assert main(["calibrate", "--dataset", str(detector), "--out", str(out)]) == 0
        rows = [(bias, r.precision, r.recall, r.f1, r.miou, r.overall) for bias, r in curve]
        write_repr_csv(tmp_path / "want.csv",
                       ["bias", "precision", "recall", "f1", "miou", "overall"], rows)
        assert (out / "curve.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_history_csv(self, tmp_path, dataset, monkeypatch):
        epochs = [EpochStats(1, *_ODD_FLOATS), EpochStats(2, 1 / 3, 1e16, 5e-324, -0.0)]
        history = TrainHistory(epochs, best_epoch=1, best_val_loss=5e-324, stop_reason="max-epochs")
        monkeypatch.setattr(waterline.cli, "train", lambda *args: (init_params(0), history))
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset), "--out", str(out)]) == 0
        rows = [(e.epoch, e.train_loss, e.val_loss, e.lr, e.seconds) for e in epochs]
        write_repr_csv(tmp_path / "want.csv",
                       ["epoch", "train_loss", "val_loss", "lr", "seconds"], rows)
        assert (out / "history.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_calibration_demo_recovers_injected_shift(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "calibration_demo.py"
    env = {**os.environ, "PYTHONPATH": str(Path(waterline.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "recovered bias: -0.5" in done.stdout


_VERIFY_OK = re.compile(r"^verify: max \|label - projection\| = \S+ \(normalized\), OK$", re.M)


@pytest.mark.parametrize("seed", range(1, 11))
def test_offline_job_passes_on_benchmark_config(tmp_path, capsys, seed):
    """The benchmark's offline job through main: gen --verify, predict
    --emit-features, eval and calibrate on 500 frames of 1-3 queries at
    5-1000 m. Each command exits 0, gen's check passes, and predict writes and
    reports one row per chart query."""
    config = _write_gen_config(tmp_path / "gen.json", n_samples=500, queries_per_sample=[1, 3],
                               distance_range_m=[5.0, 1000.0], seed=seed)
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(init_params(seed), checkpoint)
    dataset, preds = tmp_path / "dataset.jsonl", tmp_path / "pred.jsonl"
    detector = _write_predictions(tmp_path / "detector.jsonl", n=1250, seed=seed, shift=0.5)

    assert main(["gen", "--config", str(config), "--out", str(dataset), "--verify"]) == 0
    out = capsys.readouterr().out
    assert _VERIFY_OK.search(out)
    n_queries = sum(
        int(re.search(rf"^{kind} queries: (\d+)$", out, re.M).group(1))
        for kind in ("visible", "invisible")
    )
    assert main(["predict", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                 "--out", str(preds), "--emit-features"]) == 0
    assert f"queries predicted: {n_queries}" in capsys.readouterr().out
    assert len(preds.read_text().splitlines()) == n_queries
    assert main(["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "eval")]) == 0
    assert main(["calibrate", "--dataset", str(detector), "--out", str(tmp_path / "cal")]) == 0
