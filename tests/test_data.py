import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterline.data import (
    GenConfig,
    SampleRecord,
    _clamp_90,
    _uniform,
    default_bearing_range,
    generate,
    load_dataset,
    save_dataset,
    split,
    visible_examples,
)
from waterline.errors import (
    ConfigError,
    DatasetParseError,
    DatasetSchemaError,
    GenerationError,
)
from waterline.features import ChartQuery, ImuSample, build_features, waterline_target
from waterline.geometry import project
from waterline.metrics import GtBox

BASE_CONFIG = dict(
    n_samples=60,
    queries_per_sample=(0, 3),
    distance_range_m=(10.0, 900.0),
    seed=5,
)


def _make_records(n, buoy_free_every=None):
    """Cheap hand-built records for split/serialization tests."""
    records = []
    for i in range(n):
        if buoy_free_every and i % buoy_free_every == 0:
            queries, labels = (), ()
        else:
            queries = (ChartQuery(100.0 + i, 5.0),)
            labels = (GtBox(True, 0.5, 0.5, 0.05, 0.08),)
        records.append(
            SampleRecord(
                sample_id=f"{i:06d}",
                imu=ImuSample(1.0, -2.0, 30.0),
                queries=queries,
                labels=labels,
            )
        )
    return records


class TestGenConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            GenConfig.from_dict({"n_samples": 5, "banana": 1})

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            GenConfig(n_samples=5, distance_range_m=(0.0, 100.0))
        with pytest.raises(ConfigError):
            GenConfig(n_samples=5, queries_per_sample=(3, 1))
        with pytest.raises(ConfigError):
            GenConfig(n_samples=5, visibility_dropout=1.5)
        with pytest.raises(ConfigError):
            GenConfig(n_samples=5, bearing_noise_deg=-1.0)

    def test_load_json(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"n_samples": 7, "distance_range_m": [20, 400], "seed": 3}))
        config = GenConfig.load(path)
        assert config.n_samples == 7
        assert config.distance_range_m == (20, 400)

    def test_load_rejects_nan(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text('{"n_samples": 7, "distance_noise_rel": NaN}')
        with pytest.raises(ConfigError, match="generator config.*NaN"):
            GenConfig.load(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text("[7]")
        with pytest.raises(ConfigError, match="generator config must be a JSON object"):
            GenConfig.load(path)

    def test_noise_free_flag(self):
        assert GenConfig(n_samples=1).noise_free
        assert not GenConfig(n_samples=1, bearing_noise_deg=0.5).noise_free


class TestGenerate:
    def test_deterministic(self, camera):
        config = GenConfig(**BASE_CONFIG)
        assert generate(camera, config) == generate(camera, config)

    def test_deterministic_bytes(self, camera, tmp_path):
        config = GenConfig(**BASE_CONFIG)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate(camera, config), p1)
        save_dataset(generate(camera, config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_alignment_and_validity(self, camera):
        records = generate(camera, GenConfig(**BASE_CONFIG))
        assert len(records) == 60
        for record in records:
            assert len(record.queries) == len(record.labels)
            record.imu.validate()
            for query in record.queries:
                query.validate()
            for label in record.labels:
                label.validate()

    def test_noise_free_fidelity(self, camera):
        records = generate(camera, GenConfig(**BASE_CONFIG))
        n_visible = 0
        for record in records:
            for query, label in zip(record.queries, record.labels):
                if not label.visible:
                    continue
                n_visible += 1
                pixel = project(camera, record.imu, query)
                target = waterline_target(label)
                assert abs(target[0] - pixel.u / camera.image_w) < 1e-9
                assert abs(target[1] - pixel.v / camera.image_h) < 1e-9
        assert n_visible > 20

    def test_wide_bearings_marked_invisible(self, camera):
        # zero attitude: anything beyond the horizontal half-FOV cannot land
        # in frame; the default bearing range deliberately overshoots it
        config = GenConfig(
            n_samples=150,
            queries_per_sample=(1, 2),
            distance_range_m=(20.0, 900.0),
            pitch_range_deg=(0.0, 0.0),
            roll_range_deg=(0.0, 0.0),
            heading_range_deg=(0.0, 0.0),
            seed=9,
        )
        records = generate(camera, config)
        half_fov = math.degrees(math.atan((camera.image_w / 2) / camera.focal_px))
        n_beyond = 0
        for record in records:
            for query, label in zip(record.queries, record.labels):
                if abs(query.bearing_deg) > half_fov + 1e-9:
                    assert not label.visible
                    n_beyond += 1
        assert n_beyond > 10  # the overshoot region was actually sampled

    def test_default_bearing_range_covers_fov_plus_margin(self, camera):
        lo, hi = default_bearing_range(camera)
        half_fov = math.degrees(math.atan((camera.image_w / 2) / camera.focal_px))
        assert hi == pytest.approx(half_fov + 5.0)
        assert lo == -hi

    def test_visibility_dropout_prunes_labels(self, camera):
        base = generate(camera, GenConfig(**BASE_CONFIG))
        dropped = generate(camera, GenConfig(**{**BASE_CONFIG, "visibility_dropout": 0.5}))
        count = lambda recs: sum(1 for r in recs for lb in r.labels if lb.visible)
        assert 0 < count(dropped) < count(base)

    def test_all_dropped_raises(self, camera):
        with pytest.raises(GenerationError):
            generate(camera, GenConfig(**{**BASE_CONFIG, "visibility_dropout": 1.0}))

    def test_overflowing_range_width_is_config_error(self, camera):
        config = GenConfig(**{**BASE_CONFIG, "heading_range_deg": (-1e308, 1e308)})
        with pytest.raises(ConfigError, match="finite width"):
            generate(camera, config)

    @pytest.mark.parametrize(
        "lo, hi",
        [(-10.0, 10.0), (5.0, 1000.0), (-7.5, -2.25), (0.125, 3.0), (3.0, 3.0), (-4.0, -4.0),
         (-180, 180)],
    )
    def test_uniform_bit_equal_to_generator_uniform(self, lo, hi):
        for seed in range(20):
            ours, numpy_ = np.random.default_rng((seed, 1)), np.random.default_rng((seed, 1))
            for _ in range(200):
                x, y = _uniform(ours, lo, hi), numpy_.uniform(lo, hi)
                assert x == y and type(x) is type(y) is float

    def test_clamp_equals_np_clip(self):
        values = [-math.inf, -1e300, -90.5, -90.0 - 1e-12, -90.0, -89.999, -0.0, 0.0, 45.0,
                  89.999, 90.0, 90.0 + 1e-12, 91.0, 1e300, math.inf]
        for x in values:
            clipped = float(np.clip(x, -90, 90))
            assert _clamp_90(x) == clipped and type(_clamp_90(x)) is float
            assert math.copysign(1.0, _clamp_90(x)) == math.copysign(1.0, clipped)

    def test_measurement_noise_breaks_fidelity_but_not_schema(self, camera):
        config = GenConfig(
            **{
                **BASE_CONFIG,
                "n_samples": 120,
                "bearing_noise_deg": 0.5,
                "pitch_noise_deg": 0.3,
                "roll_noise_deg": 0.3,
                "distance_noise_rel": 0.02,
            }
        )
        records = generate(camera, config)
        worst = 0.0
        for record in records:
            record.imu.validate()
            for query, label in zip(record.queries, record.labels):
                query.validate()
                if not label.visible:
                    continue
                pixel = project(camera, record.imu, query)
                if pixel is None:
                    continue
                target = waterline_target(label)
                worst = max(worst, abs(target[0] - pixel.u / camera.image_w))
        assert worst > 1e-6  # recorded measurements no longer match the label

    def test_label_noise_moves_targets(self, camera):
        clean = generate(camera, GenConfig(**BASE_CONFIG))
        noisy = generate(camera, GenConfig(**{**BASE_CONFIG, "label_noise_px": 3.0}))
        pairs = [
            (a, b)
            for ra, rb in zip(clean, noisy)
            for a, b in zip(ra.labels, rb.labels)
            if a.visible and b.visible
        ]
        assert pairs
        assert any(a.c_x != b.c_x or a.c_y != b.c_y for a, b in pairs)
        for record in noisy:
            for label in record.labels:
                label.validate()


class TestVisibleExamples:
    def test_shapes_and_content(self, camera):
        records = generate(camera, GenConfig(**BASE_CONFIG))
        x, y = visible_examples(records)
        n_visible = sum(1 for r in records for lb in r.labels if lb.visible)
        assert x.shape == (n_visible, 6)
        assert y.shape == (n_visible, 2)
        first = next(
            (r, q, lb)
            for r in records
            for q, lb in zip(r.queries, r.labels)
            if lb.visible
        )
        record, query, label = first
        assert np.array_equal(x[0], build_features(query, record.imu))
        assert tuple(y[0]) == waterline_target(label)

    def test_empty(self):
        x, y = visible_examples([])
        assert x.shape == (0, 6) and y.shape == (0, 2)


class TestSplit:
    def test_ratio_respected(self):
        parts = split(_make_records(10), 0.8, seed=0)
        assert len(parts.train) == 8 and len(parts.val) == 2

    def test_benchmark_sized_split(self):
        parts = split(_make_records(5189), 4285 / 5189, seed=1)
        assert len(parts.train) == 4285 and len(parts.val) == 904

    def test_deterministic(self):
        records = _make_records(50)
        a = split(records, 0.7, seed=4)
        b = split(records, 0.7, seed=4)
        assert [r.sample_id for r in a.train] == [r.sample_id for r in b.train]

    def test_disjoint_and_complete(self):
        records = _make_records(37)
        parts = split(records, 0.6, seed=2)
        train_ids = {r.sample_id for r in parts.train}
        val_ids = {r.sample_id for r in parts.val}
        assert not train_ids & val_ids
        assert len(train_ids | val_ids) == 37

    def test_buoy_free_frames_stratified(self):
        records = _make_records(100, buoy_free_every=5)  # 20 buoy-free
        parts = split(records, 0.8, seed=3)
        train_free = sum(1 for r in parts.train if r.buoy_free)
        val_free = sum(1 for r in parts.val if r.buoy_free)
        assert train_free == 16 and val_free == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            split(_make_records(1), 0.8, seed=0)
        with pytest.raises(ValueError):
            split(_make_records(10), 1.0, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_split_properties(self, n, ratio, seed):
        records = _make_records(n, buoy_free_every=4)
        parts = split(records, ratio, seed)
        assert len(parts.train) + len(parts.val) == n
        assert len(parts.train) >= 1 and len(parts.val) >= 1
        assert abs(len(parts.train) - ratio * n) <= 1.0
        ids = {r.sample_id for r in parts.train} | {r.sample_id for r in parts.val}
        assert len(ids) == n


class TestSerialization:
    def test_round_trip(self, camera, tmp_path):
        records = generate(camera, GenConfig(**BASE_CONFIG))
        path = tmp_path / "data.jsonl"
        save_dataset(records, path)
        assert load_dataset(path) == records

    def test_buoy_free_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = {
            "schema": 1,
            "sample_id": "x",
            "imu": {"pitch_deg": 0, "roll_deg": 0, "heading_deg": 0},
            "queries": [],
            "labels": [],
        }
        path.write_text(json.dumps(line) + "\n")
        records = load_dataset(path)
        assert len(records) == 1 and records[0].buoy_free

    def test_invisible_label_needs_no_box(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = {
            "schema": 1,
            "sample_id": "x",
            "imu": {"pitch_deg": 0, "roll_deg": 0, "heading_deg": 0},
            "queries": [{"distance_m": 100, "bearing_deg": 5}],
            "labels": [{"visible": False}],
        }
        path.write_text(json.dumps(line) + "\n")
        records = load_dataset(path)
        assert records[0].labels[0] == GtBox(False)

    def test_missing_imu_names_key_and_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = {
            "schema": 1,
            "sample_id": "a",
            "imu": {"pitch_deg": 0, "roll_deg": 0, "heading_deg": 0},
            "queries": [],
            "labels": [],
        }
        bad = {"schema": 1, "sample_id": "b", "queries": [], "labels": []}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DatasetSchemaError, match="line 2.*'imu'"):
            load_dataset(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(DatasetParseError, match="line 1"):
            load_dataset(path)

    def test_count_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = {
            "schema": 1,
            "sample_id": "x",
            "imu": {"pitch_deg": 0, "roll_deg": 0, "heading_deg": 0},
            "queries": [{"distance_m": 100, "bearing_deg": 5}],
            "labels": [],
        }
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DatasetSchemaError, match="1 queries vs 0 labels"):
            load_dataset(path)

    def test_unsupported_schema_version(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({"schema": 2}) + "\n")
        with pytest.raises(DatasetSchemaError, match="schema version"):
            load_dataset(path)

    def test_heading_wraps_on_ingestion(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = {
            "schema": 1,
            "sample_id": "x",
            "imu": {"pitch_deg": 0, "roll_deg": 0, "heading_deg": 270.0},
            "queries": [],
            "labels": [],
        }
        path.write_text(json.dumps(line) + "\n")
        assert load_dataset(path)[0].imu.heading_deg == -90.0

    def test_out_of_range_values_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = {
            "schema": 1,
            "sample_id": "x",
            "imu": {"pitch_deg": 95.0, "roll_deg": 0, "heading_deg": 0},
            "queries": [],
            "labels": [],
        }
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DatasetSchemaError, match="pitch"):
            load_dataset(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = {
            "schema": 1,
            "sample_id": "x",
            "imu": {"pitch_deg": "zero", "roll_deg": 0, "heading_deg": 0},
            "queries": [],
            "labels": [],
        }
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DatasetSchemaError, match="pitch_deg"):
            load_dataset(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
    def test_non_finite_box_field_rejected(self, tmp_path, token):
        path = tmp_path / "data.jsonl"
        line = {
            "schema": 1,
            "sample_id": "x",
            "imu": {"pitch_deg": 0, "roll_deg": 0, "heading_deg": 0},
            "queries": [{"distance_m": 100, "bearing_deg": 5}],
            "labels": [{"visible": True, "c_x": "C_X", "c_y": 0.5, "w": 0.05, "h": 0.08}],
        }
        path.write_text(json.dumps(line).replace('"C_X"', token) + "\n")
        with pytest.raises(DatasetSchemaError, match="line 1: 'c_x' must be a finite number"):
            load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = {
            "schema": 1,
            "sample_id": "x",
            "imu": {"pitch_deg": 0, "roll_deg": 0, "heading_deg": 0},
            "queries": [],
            "labels": [],
        }
        path.write_text("\n" + json.dumps(line) + "\n\n")
        assert len(load_dataset(path)) == 1
