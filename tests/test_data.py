import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import waterline.data
from waterline.data import (
    Frames,
    GenConfig,
    SampleRecord,
    _uniform,
    default_bearing_range,
    generate,
    load_dataset,
    load_predictions,
    save_dataset,
    split,
    visible_examples,
)
from waterline.cli import main
from waterline.errors import (
    ConfigError,
    DatasetParseError,
    DatasetSchemaError,
    GenerationError,
)
from waterline.features import (
    ChartQuery, ImuSample, build_features, waterline_target, wrap_angle_deg,
)
from waterline.metrics import GtBox

from conftest import hand_made_records, project_point
from oracles import (
    dataset_row, frames_of, per_line_records, record_split, record_visible_examples,
    scalar_generate, write_json_lines,
)

BASE_CONFIG = dict(
    n_samples=60,
    queries_per_sample=(0, 3),
    distance_range_m=(10.0, 900.0),
    seed=5,
)


def _make_frames(n, buoy_free_every=None):
    """Cheap hand-built frames for split tests."""
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
    return frames_of(records)


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
        assert list(generate(camera, config)) == list(generate(camera, config))

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
                u, v = project_point(camera, record.imu, query)
                target = waterline_target(label)
                assert abs(target[0] - u / camera.image_w) < 1e-9
                assert abs(target[1] - v / camera.image_h) < 1e-9
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
            draws = [ours.random() for _ in range(200)]
            want = [numpy_.uniform(lo, hi) for _ in range(200)]
            for u, y in zip(draws, want):
                x = _uniform(u, lo, hi)
                assert x == y and type(x) is type(y) is float
            assert _uniform(np.array(draws), lo, hi).tolist() == want

    # Each config, with a check that it reached the case it is there for.
    _REFERENCE_CONFIGS = {
        "default": ({}, lambda records: True),
        "all-noise": (
            {"distance_noise_rel": 0.05, "bearing_noise_deg": 1.0, "pitch_noise_deg": 5.0,
             "roll_noise_deg": 5.0, "heading_noise_deg": 5.0, "label_noise_px": 3.0,
             "pitch_range_deg": (-90.0, 90.0), "roll_range_deg": (-90.0, 90.0)},
            lambda records: any(abs(r.imu.pitch_deg) == 90.0 for r in records)  # clamped
            and any(abs(r.imu.roll_deg) == 90.0 for r in records),
        ),
        "dropout": ({"visibility_dropout": 0.5}, lambda records: True),
        "wrapping-bearings": (
            {"bearing_range_deg": (-400.0, 400.0)},
            lambda records: any(abs(q.bearing_deg) > 170.0 for r in records for q in r.queries),
        ),
        "buoy-free-frames": (
            {"queries_per_sample": (0, 3)}, lambda records: any(not r.queries for r in records),
        ),
        # Distances whose box height coeff / d overflows; looking down, some are visible.
        "tiny-distances": (
            {"distance_range_m": (5e-324, 1e-306), "pitch_range_deg": (-90.0, 90.0)},
            lambda records: all(q.distance_m == 1e-3 for r in records for q in r.queries),
        ),
    }

    @pytest.mark.parametrize("case", list(_REFERENCE_CONFIGS))
    def test_dataset_bytes_equal_scalar_reference(self, camera, tmp_path, case):
        overrides, reached = self._REFERENCE_CONFIGS[case]
        config = GenConfig(**{"n_samples": 400, "seed": 11, **overrides})
        frames = generate(camera, config)
        assert reached(frames)
        ours, reference = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
        save_dataset(frames, ours)
        write_json_lines(reference, map(dataset_row, scalar_generate(camera, config)))
        assert ours.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3])
    def test_stream_states_equal_default_rng(self, seed):
        # 2**128 + 3 has five 32-bit words: its entropy runs past the 4-word pool.
        states = list(waterline.data._stream_states(seed, 320))
        assert len(states) == 320
        for i, state in enumerate(states):
            assert state == np.random.default_rng((seed, i)).bit_generator.state, i

    def test_streams_drop_the_buffered_half_word(self):
        # Each sample's first draw is a 32-bit integer, which buffers the other
        # half of its 64-bit word; the next sample must not draw that half.
        for i, rng in enumerate(waterline.data._streams(2251, 50)):
            want = np.random.default_rng((2251, i))
            assert rng.integers(0, 2**31) == want.integers(0, 2**31)
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("overrides, error, message", [
        ({"visibility_dropout": 1.0}, GenerationError,
         "generation produced zero visible queries; widen the ranges or check the camera "
         "configuration"),
        ({"queries_per_sample": (0, 0)}, GenerationError,
         "generation produced zero visible queries; widen the ranges or check the camera "
         "configuration"),
        ({"bearing_range_deg": (-1e308, 1e308)}, ConfigError,
         "heading and bearing ranges must have a finite width"),
    ])
    def test_errors_match_scalar_reference(self, camera, overrides, error, message):
        config = GenConfig(**{**BASE_CONFIG, **overrides})
        for gen in (generate, scalar_generate):
            with pytest.raises(error) as excinfo:
                gen(camera, config)
            assert str(excinfo.value) == message

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
                pixel = project_point(camera, record.imu, query)
                if pixel is None:
                    continue
                target = waterline_target(label)
                worst = max(worst, abs(target[0] - pixel[0] / camera.image_w))
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
        frames = generate(camera, GenConfig(**BASE_CONFIG))
        x, y = visible_examples(frames)
        n_visible = sum(1 for r in frames for lb in r.labels if lb.visible)
        assert x.shape == (n_visible, 6)
        assert y.shape == (n_visible, 2)
        first = next(
            (r, q, lb)
            for r in frames
            for q, lb in zip(r.queries, r.labels)
            if lb.visible
        )
        record, query, label = first
        assert np.array_equal(x[0], build_features(query, record.imu))
        assert tuple(y[0]) == waterline_target(label)

    def test_bit_equal_to_per_query_forms(self, camera):
        config = GenConfig(**{**BASE_CONFIG, "n_samples": 600, "queries_per_sample": (0, 3),
                              "distance_noise_rel": 0.05, "bearing_noise_deg": 1.0,
                              "pitch_noise_deg": 1.0, "label_noise_px": 2.0})
        frames = generate(camera, config)
        visible = [(q, r.imu, lb) for r in frames for q, lb in zip(r.queries, r.labels)
                   if lb.visible]
        x, y = visible_examples(frames)
        assert x.tobytes() == np.stack([build_features(q, imu) for q, imu, _ in visible]).tobytes()
        assert [tuple(row) for row in y.tolist()] == [waterline_target(lb) for _, _, lb in visible]
        assert any(not r.queries for r in frames) and len(visible) > 300

    def test_empty(self):
        x, y = visible_examples(frames_of([]))
        assert x.shape == (0, 6) and y.shape == (0, 2)


class TestSplit:
    def test_ratio_respected(self):
        parts = split(_make_frames(10), 0.8, seed=0)
        assert len(parts.train) == 8 and len(parts.val) == 2

    def test_benchmark_sized_split(self):
        parts = split(_make_frames(5189), 4285 / 5189, seed=1)
        assert len(parts.train) == 4285 and len(parts.val) == 904

    def test_deterministic(self):
        frames = _make_frames(50)
        a = split(frames, 0.7, seed=4)
        b = split(frames, 0.7, seed=4)
        assert a.train.sample_id.tolist() == b.train.sample_id.tolist()

    def test_disjoint_and_complete(self):
        parts = split(_make_frames(37), 0.6, seed=2)
        train_ids = set(parts.train.sample_id.tolist())
        val_ids = set(parts.val.sample_id.tolist())
        assert not train_ids & val_ids
        assert len(train_ids | val_ids) == 37

    def test_buoy_free_frames_stratified(self):
        frames = _make_frames(100, buoy_free_every=5)  # 20 buoy-free
        parts = split(frames, 0.8, seed=3)
        train_free = sum(1 for r in parts.train if not r.queries)
        val_free = sum(1 for r in parts.val if not r.queries)
        assert train_free == 16 and val_free == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match=r"^need at least 2 records to split$"):
            split(_make_frames(1), 0.8, seed=0)
        with pytest.raises(ValueError, match=r"^split ratio must lie in \(0, 1\), got 1\.0$"):
            split(_make_frames(10), 1.0, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_split_properties(self, n, ratio, seed):
        parts = split(_make_frames(n, buoy_free_every=4), ratio, seed)
        assert len(parts.train) + len(parts.val) == n
        assert len(parts.train) >= 1 and len(parts.val) >= 1
        assert abs(len(parts.train) - ratio * n) <= 1.0
        ids = set(parts.train.sample_id.tolist()) | set(parts.val.sample_id.tolist())
        assert len(ids) == n

    @pytest.mark.parametrize("queries_per_sample", [(1, 3), (0, 2), (0, 1)])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 4285 / 5189, 0.97])
    def test_equal_to_record_reference(self, camera, queries_per_sample, ratio):
        """The frame-mask split and the column examples give what the
        record-based split and per-query gather give: the same frames in the
        same order, and bit-equal (x, y) on each half."""
        for seed in range(6):
            frames = generate(camera, GenConfig(n_samples=200, queries_per_sample=queries_per_sample,
                                                seed=seed))
            records = list(frames)
            parts, reference = split(frames, ratio, seed), record_split(records, ratio, seed)
            for half, want in ((parts.train, reference.train), (parts.val, reference.val)):
                assert half.sample_id.tolist() == [r.sample_id for r in want]
                assert list(half) == list(want)
                for got, expected in zip(visible_examples(half), record_visible_examples(want)):
                    assert (got.shape, got.tobytes()) == (expected.shape, expected.tobytes())
            assert len(parts.train) == len(reference.train)

    @pytest.mark.parametrize("n, ratio, message", [
        (1, 0.5, "need at least 2 records to split"),
        (0, 0.5, "need at least 2 records to split"),
        (5, 0.0, "split ratio must lie in (0, 1), got 0.0"),
        (5, 1.5, "split ratio must lie in (0, 1), got 1.5"),
    ])
    def test_errors_equal_to_record_reference(self, n, ratio, message):
        frames = _make_frames(n)
        for route, value in ((split, frames), (record_split, list(frames))):
            with pytest.raises(ValueError) as excinfo:
                route(value, ratio, seed=0)
            assert str(excinfo.value) == message


class TestFrames:
    def test_frames_as_records(self, camera):
        """len counts frames; frames[i] and iteration give the same records,
        built once; take keeps the masked frames' records in order."""
        frames = generate(camera, GenConfig(**BASE_CONFIG))
        records = list(frames)
        assert len(frames) == len(records) == 60
        assert all(frames[i] is record for i, record in enumerate(records))
        assert [r.sample_id for r in records] == frames.sample_id.tolist()
        keep = np.arange(60) % 3 == 1
        kept = frames.take(keep)
        assert list(kept) == [r for r, k in zip(records, keep) if k]
        assert list(frames.take(np.zeros(60, dtype=bool))) == []

    @pytest.mark.parametrize("source", ["generate", "load_dataset", "take"])
    def test_columns_are_read_only(self, camera, tmp_path, source):
        """An in-place write to a column raises, so the records a Frames has
        built cannot go stale."""
        frames = generate(camera, GenConfig(**BASE_CONFIG))
        if source == "load_dataset":
            save_dataset(frames, tmp_path / "data.jsonl")
            frames = load_dataset(tmp_path / "data.jsonl")
        elif source == "take":
            frames = frames.take(np.arange(60) % 2 == 0)
        first = frames[0]
        for field in dataclasses.fields(Frames):
            column = getattr(frames, field.name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]
        assert frames[0] is first


class TestSerialization:
    def test_round_trip(self, camera, tmp_path):
        frames = generate(camera, GenConfig(**BASE_CONFIG))
        path = tmp_path / "data.jsonl"
        save_dataset(frames, path)
        assert list(load_dataset(path)) == list(frames)

    def test_hand_made_records_equal_reference_writer(self, tmp_path):
        """In Frames an int field is the float that a load gives."""
        records = hand_made_records()
        frames = frames_of(records)
        ours, reference = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
        save_dataset(frames, ours)
        write_json_lines(reference, map(dataset_row, frames))
        assert ours.read_bytes() == reference.read_bytes()
        text = ours.read_text(encoding="ascii")
        for token in ('"roll_deg":0.0,', '"distance_m":5.0,', '"heading_deg":-0.0}', "5e-324",
                      "1e+16", '\\"quoted\\"', "back\\\\slash", "\\ud835\\udd18", "\\t"):
            assert token in text, token
        assert load_dataset(ours).sample_id.tolist() == [record.sample_id for record in records]

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
        frames = load_dataset(path)
        assert frames.sample_id.tolist() == ["x"] and frames.offsets.tolist() == [0, 0]

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
        frames = load_dataset(path)
        assert frames.visible.tolist() == [False] and frames.boxes.shape == (0, 4)

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
        assert load_dataset(path).imu[0, 2] == -90.0

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
        assert len(load_dataset(path).sample_id) == 1


def _dataset_line(i=2):
    return {
        "schema": 1,
        "sample_id": f"{i:06d}",
        "imu": {"pitch_deg": 1.0, "roll_deg": -2.0, "heading_deg": 30.0},
        "queries": [{"distance_m": 100.0, "bearing_deg": 5.0},
                    {"distance_m": 400.0, "bearing_deg": -20.0}],
        "labels": [{"visible": True, "c_x": 0.5, "c_y": 0.6, "w": 0.05, "h": 0.08},
                   {"visible": False}],
    }


def _prediction_line(i=2):
    box = {"c_x": 0.5, "c_y": 0.5, "w": 0.1, "h": 0.1}
    return {"schema": 1, "sample_id": f"{i:04d}", "query_index": 0, "logit": 1.5,
            "box": box, "gt_visible": True, "gt_box": dict(box)}


_DELETE = object()


def _edit(path, value=_DELETE):
    """A mutation that sets the dotted `path` of a line ("queries.0.bearing_deg")
    to `value`, or deletes that key or list item."""
    *keys, last = (int(k) if k.isdigit() else k for k in path.split("."))

    def mutate(line):
        target = line
        for key in keys:
            target = target[key]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
        return json.dumps(line)
    return mutate


D, P = "dataset", "predictions"
# One line-3 fault per check of the two loaders: loader, mutation, error, message.
_SINGLE_FAULTS = {
    "not-json": (D, lambda line: "{broken", DatasetParseError,
                 "line 3: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "bad-utf8": (D, lambda line: b"\xff" + json.dumps(line).encode(), DatasetParseError,
                 "line 3: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "not-object": (D, lambda line: "[1]", DatasetSchemaError, "line 3: record must be a JSON object"),
    "schema": (D, _edit("schema", 2), DatasetSchemaError, "line 3: unsupported schema version 2"),
    "schema-bool": (D, _edit("schema", True), DatasetSchemaError,
                    "line 3: unsupported schema version True"),
    "missing-key": (D, _edit("imu"), DatasetSchemaError, "line 3: missing key 'imu'"),
    "sample-id": (D, _edit("sample_id", 7), DatasetSchemaError, "line 3: 'sample_id' must be a string"),
    "imu-object": (D, _edit("imu", []), DatasetSchemaError, "line 3: 'imu' must be an object"),
    "string-number": (D, _edit("imu.pitch_deg", "zero"), DatasetSchemaError,
                      "line 3: 'pitch_deg' must be a finite number, got 'zero'"),
    "bool-number": (D, _edit("queries.1.distance_m", True), DatasetSchemaError,
                    "line 3: 'distance_m' must be a finite number, got True"),
    "nan": (D, lambda line: _edit("labels.0.c_x", "NAN")(line).replace('"NAN"', "NaN"),
            DatasetSchemaError, "line 3: 'c_x' must be a finite number, got nan"),
    "overflow": (D, lambda line: _edit("imu.roll_deg", "BIG")(line).replace('"BIG"', "1e999"),
                 DatasetSchemaError, "line 3: 'roll_deg' must be a finite number, got inf"),
    "arrays": (D, _edit("labels", {}), DatasetSchemaError,
               "line 3: 'queries' and 'labels' must be arrays"),
    "query-entry": (D, _edit("queries.0", 5), DatasetSchemaError,
                    "line 3: query entries must be objects"),
    "label-entry": (D, _edit("labels.1", "no"), DatasetSchemaError,
                    "line 3: label entries must be objects"),
    "visible": (D, _edit("labels.1.visible", 0), DatasetSchemaError,
                "line 3: 'visible' must be a boolean"),
    "empty-label": (D, _edit("labels.0.w", 0), DatasetSchemaError,
                    "line 3: 'label' must have positive width and height, got w=0.0, h=0.08"),
    # The count and range checks moved into the constructors.
    "counts": (D, _edit("labels.1"), DatasetSchemaError,
               "line 3: sample 000002: 2 queries vs 1 labels"),
    "pitch-range": (D, _edit("imu.pitch_deg", 95), DatasetSchemaError,
                    "line 3: pitch must lie in [-90, 90], got 95.0"),
    "roll-range": (D, _edit("imu.roll_deg", -91.5), DatasetSchemaError,
                   "line 3: roll must lie in [-90, 90], got -91.5"),
    "bearing-range": (D, _edit("queries.1.bearing_deg", 200), DatasetSchemaError,
                      "line 3: bearing must lie in [-180, 180], got 200.0"),
    "distance-range": (D, _edit("queries.0.distance_m", 0), DatasetSchemaError,
                       "line 3: chart distance must be positive and finite, got 0.0"),
    "label-outside-frame": (D, _edit("labels.0.c_x", 0.99), DatasetSchemaError,
                            "line 3: visible box extends outside the unit frame: "
                            "(0.99, 0.6, 0.05, 0.08)"),
    "prediction-object": (P, lambda line: "3", DatasetSchemaError,
                          "line 3: prediction line must be an object"),
    "prediction-schema": (P, _edit("schema"), DatasetSchemaError,
                          "line 3: unsupported schema version None"),
    "prediction-schema-bool": (P, _edit("schema", True), DatasetSchemaError,
                               "line 3: unsupported schema version True"),
    "prediction-sample-id": (P, _edit("sample_id", 7), DatasetSchemaError,
                             "line 3: 'sample_id' must be a string"),
    "prediction-no-query-index": (P, _edit("query_index"), DatasetSchemaError,
                                  "line 3: missing key 'query_index'"),
    "prediction-query-index-bool": (P, _edit("query_index", True), DatasetSchemaError,
                                    "line 3: 'query_index' must be a non-negative integer, got True"),
    "prediction-query-index-float": (P, _edit("query_index", 1.0), DatasetSchemaError,
                                     "line 3: 'query_index' must be a non-negative integer, got 1.0"),
    "prediction-query-index-negative": (P, _edit("query_index", -1), DatasetSchemaError,
                                        "line 3: 'query_index' must be a non-negative integer, got -1"),
    "prediction-duplicate": (P, _edit("sample_id", "0001"), DatasetSchemaError,
                             "line 3: duplicate sample_id and query_index ('0001', 0)"),
    "prediction-logit": (P, _edit("logit", "high"), DatasetSchemaError,
                         "line 3: 'logit' must be a finite number, got 'high'"),
    "prediction-box": (P, _edit("box"), DatasetSchemaError, "line 3: missing key 'box'"),
    "prediction-gt-visible": (P, _edit("gt_visible", 1), DatasetSchemaError,
                              "line 3: 'gt_visible' must be a boolean"),
    "prediction-gt-box": (P, _edit("gt_box", []), DatasetSchemaError,
                          "line 3: visible ground truth requires a 'gt_box' object"),
    "prediction-empty-box": (P, _edit("gt_box.h", -0.1), DatasetSchemaError,
                             "line 3: 'gt_box' must have positive width and height, got w=0.1, h=-0.1"),
}


def _loader_argv(loader, path, out):
    """main's argv for a command that loads path with loader first."""
    return (["predict", "--dataset", str(path), "--checkpoint", out, "--out", out]
            if loader == D else ["calibrate", "--dataset", str(path), "--out", out])


@pytest.mark.parametrize("case", list(_SINGLE_FAULTS))
def test_single_fault_message_names_line(tmp_path, capsys, case):
    """Each loader check keeps its message and its line; through main the
    error exits 3 with the same message."""
    loader, mutate, error, message = _SINGLE_FAULTS[case]
    make = _dataset_line if loader == D else _prediction_line
    lines = [json.dumps(make(i)).encode() for i in range(2)]
    bad = mutate(make())
    lines.append(bad if isinstance(bad, bytes) else bad.encode())
    path = tmp_path / "lines.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")

    with pytest.raises(error) as excinfo:
        (load_dataset if loader == D else load_predictions)(path)
    assert str(excinfo.value) == message and excinfo.value.line == 3

    # predict reads the dataset before the checkpoint
    assert main(_loader_argv(loader, path, str(tmp_path / "out"))) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


# Whitespace to str.strip() but not to JSON: form feed, U+001C, NBSP, U+3000.
@pytest.mark.parametrize("space", ["\x0c", "\x1c", "\xa0", "　"],
                         ids=["form-feed", "u001c", "nbsp", "u3000"])
@pytest.mark.parametrize("where", ["before", "after", "alone"])
@pytest.mark.parametrize("loader", [D, P])
def test_non_json_whitespace_is_a_parse_error(tmp_path, capsys, loader, where, space):
    """json.loads refuses such a character around a line and on a line of its
    own, so both loaders name the line, and main exits 3."""
    make = _dataset_line if loader == D else _prediction_line
    lines = [json.dumps(make(i)) for i in range(3)]
    lines[2] = {"before": space + lines[2], "after": lines[2] + space, "alone": space}[where]
    path = tmp_path / "lines.jsonl"
    path.write_bytes("\n".join(lines).encode() + b"\n")

    with pytest.raises(DatasetParseError) as excinfo:
        (load_dataset if loader == D else load_predictions)(path)
    assert excinfo.value.line == 3 and str(excinfo.value).startswith("line 3: ")

    assert main(_loader_argv(loader, path, str(tmp_path / "out"))) == 3
    assert capsys.readouterr().err == f"error: {excinfo.value}\n"


@pytest.mark.parametrize("loader", [D, P])
def test_json_whitespace_and_crlf_load(tmp_path, loader):
    """Space and tab padding, CRLF endings and lines of JSON whitespace alone
    load as the plain file does."""
    make = _dataset_line if loader == D else _prediction_line
    lines = [json.dumps(make(i)) for i in range(3)]
    plain, padded = tmp_path / "plain.jsonl", tmp_path / "padded.jsonl"
    plain.write_text("".join(line + "\n" for line in lines))
    padded.write_bytes(b"".join(f" \t{line}\t \r\n \t\r\n".encode() for line in lines))
    if loader == D:
        assert_same_frames(load_dataset(padded), load_dataset(plain))
    else:
        for got, want in zip(load_predictions(padded), load_predictions(plain), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _float_edit(path, token):
    """An _edit that writes the JSON number `token` (a float literal) at `path`."""
    return lambda line: _edit(path, "TOKEN")(line).replace('"TOKEN"', token)


# Faults in values of the types the writers emit, so that only the column
# checks see them first: fault, message.
_COLUMN_FAULTS = {
    "arrays": (lambda line: json.dumps({**line, "queries": {}, "labels": {}}),
               "'queries' and 'labels' must be arrays"),
    "distance-zero": (_float_edit("queries.0.distance_m", "0.0"),
                      "chart distance must be positive and finite, got 0.0"),
    "distance-negative": (_float_edit("queries.1.distance_m", "-1.5"),
                          "chart distance must be positive and finite, got -1.5"),
    "distance-inf": (_float_edit("queries.0.distance_m", "Infinity"),
                     "'distance_m' must be a finite number, got inf"),
    "bearing": (_float_edit("queries.1.bearing_deg", "-180.5"),
                "bearing must lie in [-180, 180], got -180.5"),
    "heading-inf": (_float_edit("imu.heading_deg", "-1e999"),
                    "'heading_deg' must be a finite number, got -inf"),
    "label-nan": (_float_edit("labels.0.h", "NaN"), "'h' must be a finite number, got nan"),
    "label-width": (_float_edit("labels.0.w", "-0.0"),
                    "'label' must have positive width and height, got w=-0.0, h=0.08"),
    "label-height": (_float_edit("labels.0.h", "-0.08"),
                     "'label' must have positive width and height, got w=0.05, h=-0.08"),
    "label-c_x-inf": (_float_edit("labels.0.c_x", "Infinity"),
                      "'c_x' must be a finite number, got inf"),
    "label-left": (_float_edit("labels.0.c_x", "0.024"),
                   "visible box extends outside the unit frame: (0.024, 0.6, 0.05, 0.08)"),
    "label-right": (_float_edit("labels.0.c_x", "0.976"),
                    "visible box extends outside the unit frame: (0.976, 0.6, 0.05, 0.08)"),
    "label-top": (_float_edit("labels.0.c_y", "0.0399"),
                  "visible box extends outside the unit frame: (0.5, 0.0399, 0.05, 0.08)"),
    "label-bottom": (_float_edit("labels.0.c_y", "0.9601"),
                     "visible box extends outside the unit frame: (0.5, 0.9601, 0.05, 0.08)"),
}


@pytest.mark.parametrize("case", list(_COLUMN_FAULTS))
def test_column_fault_names_line(tmp_path, case):
    """A fault the column checks catch gets the per-line message and line."""
    mutate, message = _COLUMN_FAULTS[case]
    path = tmp_path / "lines.jsonl"
    path.write_text("\n".join([json.dumps(_dataset_line(i)) for i in range(2)]
                              + [mutate(_dataset_line())]))
    with pytest.raises(DatasetSchemaError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == f"line 3: {message}" and excinfo.value.line == 3


@pytest.mark.parametrize("loader, make", [(load_dataset, _dataset_line),
                                          (load_predictions, _prediction_line)])
def test_deeply_nested_line_is_parse_error(tmp_path, loader, make):
    """Nesting deeper than the JSON decoder's recursion limit is a malformed
    line (exit 3), not an unexpected error."""
    path = tmp_path / "lines.jsonl"
    path.write_text(json.dumps(make()) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(DatasetParseError) as excinfo:
        loader(path)
    assert excinfo.value.line == 2 and "recursion" in str(excinfo.value)


# A finite, valid value of each dataset number; angles wider than their range
# come from the "angle" mutation.
_VISIBLE_LABEL = st.fixed_dictionaries({
    "visible": st.just(True),
    "c_x": st.floats(0.2, 0.8), "c_y": st.floats(0.2, 0.8),
    "w": st.floats(0.01, 0.3), "h": st.floats(0.01, 0.3),
})
_QUERY_AND_LABEL = st.tuples(
    st.fixed_dictionaries({"distance_m": st.floats(1e-3, 1e5), "bearing_deg": st.floats(-180, 180)}),
    st.one_of(st.fixed_dictionaries({"visible": st.just(False)}), _VISIBLE_LABEL),
)
_IMU = st.fixed_dictionaries(
    {"pitch_deg": st.floats(-90, 90), "roll_deg": st.floats(-90, 90),
     "heading_deg": st.floats(-720, 720)}  # wrapped on ingestion
)
_MUTATIONS = ("drop", "swap", "non-finite", "angle", "non-object", "counts", "utf8")


def _valid_line(draw, i):
    pairs = draw(st.lists(_QUERY_AND_LABEL, max_size=3))
    return {"schema": 1, "sample_id": f"{i:06d}", "imu": draw(_IMU),
            "queries": [q for q, _ in pairs], "labels": [label for _, label in pairs]}


def _mutated(draw, line, kind) -> bytes:
    """The bytes of `line` with one fault of the given kind."""
    queries, labels = line["queries"], line["labels"]
    objects = [line, line["imu"], *queries, *labels]
    if kind == "drop":
        obj = draw(st.sampled_from(objects))
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "swap":  # a value of another JSON type; True stands in for a number
        obj = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(obj)))
        others = [v for v in ("x", None, [], {}, True, 2.5) if type(v) is not type(obj[key])]
        obj[key] = draw(st.sampled_from(others))
    elif kind == "non-finite":
        obj, key = draw(st.sampled_from(
            [(obj, key) for obj in objects for key, v in obj.items() if type(v) is float]
        ))
        obj[key] = "NONFINITE"
        token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]))
        return json.dumps(line).replace('"NONFINITE"', token).encode()
    elif kind == "angle":
        obj, key, limit = draw(st.sampled_from(
            [(line["imu"], "pitch_deg", 90.0), (line["imu"], "roll_deg", 90.0)]
            + [(q, "bearing_deg", 180.0) for q in queries]
        ))
        obj[key] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(limit, 1e6, exclude_min=True))
    elif kind == "non-object":
        junk = draw(st.sampled_from([None, 3, "x", [], True]))
        if draw(st.booleans()):  # the whole line
            return json.dumps(junk).encode()
        container, key = draw(st.sampled_from(
            [(line, "imu")] + [(entries, i) for entries in (queries, labels) for i in range(len(entries))]
        ))
        container[key] = junk
    elif kind == "counts":
        if draw(st.booleans()):
            queries.append({"distance_m": 10.0, "bearing_deg": 0.0})
        else:
            labels.append({"visible": False})
    else:  # utf8
        text = json.dumps(line).encode()
        at = draw(st.integers(0, len(text)))
        return text[:at] + b"\xff" + text[at:]
    return json.dumps(line).encode()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_line_loads_or_names_its_line(tmp_path, data):
    """One mutated line of a multi-line dataset file: the file loads to finite,
    typed, in-range records, or the error names the mutated line (exit 3)."""
    n = data.draw(st.integers(1, 4), label="lines")
    k = data.draw(st.integers(1, n), label="mutated line")
    kind = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
    lines = [_valid_line(data.draw, i) for i in range(n)]
    raw = [json.dumps(line).encode() for line in lines]
    raw[k - 1] = _mutated(data.draw, lines[k - 1], kind)
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"\n".join(raw) + b"\n")
    try:
        frames = load_dataset(path)
    except (DatasetParseError, DatasetSchemaError) as exc:  # main maps both to exit code 3
        assert exc.line == k and str(exc).startswith(f"line {k}: ")
        return
    records = per_line_records(path)  # the per-line rules keep a file that loads
    assert len(records) == n
    for record in records:
        assert type(record.sample_id) is str
        record.imu.validate()
        values = [record.imu.pitch_deg, record.imu.roll_deg, record.imu.heading_deg]
        for query, label in zip(record.queries, record.labels, strict=True):
            query.validate()
            label.validate()
            values += [query.distance_m, query.bearing_deg, *(label.box if label.visible else ())]
            assert type(label.visible) is bool
        assert all(type(v) is float and math.isfinite(v) for v in values)
    assert_same_frames(frames, frames_of(records))
    assert list(frames) == records


def assert_same_frames(frames, reference):
    """Equal fields, dtypes and shapes; numbers equal bit for bit."""
    assert type(frames) is Frames
    for name in (field.name for field in dataclasses.fields(Frames)):
        got, want = getattr(frames, name), getattr(reference, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        if got.dtype == object:
            assert got.tolist() == want.tolist() and {type(v) for v in got.tolist()} <= {str}
        else:
            assert got.tobytes() == want.tobytes(), name


def _line(sample_id="x", heading=30.0, queries=(), labels=()):
    return json.dumps({"schema": 1, "sample_id": sample_id,
                       "imu": {"pitch_deg": 1.5, "roll_deg": -2.0, "heading_deg": heading},
                       "queries": list(queries), "labels": list(labels)})


_QUERY = {"distance_m": 412.0, "bearing_deg": -12.5}
_LABEL = {"visible": True, "c_x": 0.31, "c_y": 0.52, "w": 0.01, "h": 0.02}
# File text, the route that loads it, and a check of the Frames it gives.
_LOAD_CASES = {
    "integer-numbers": (
        _line(queries=[_QUERY], labels=[_LABEL]).replace("412.0", "412").replace("1.5", "0")
        + "\n", "columns",
        lambda f: f.distance_m.tolist() == [412.0] and f.imu[0].tolist() == [0.0, -2.0, 30.0],
    ),
    "integer-imu": (
        json.dumps({"schema": 1, "sample_id": "x",
                    "imu": {"pitch_deg": -3, "roll_deg": 90, "heading_deg": 540},
                    "queries": [_QUERY], "labels": [_LABEL]}) + "\n", "columns",
        lambda f: f.imu.tolist() == [[-3.0, 90.0, 180.0]] and f.imu.dtype == np.float64,
    ),
    "integer-beyond-2**53": (
        _line(queries=[{**_QUERY, "distance_m": 2**53 + 1}], labels=[{"visible": False}]) + "\n",
        "columns", lambda f: f.distance_m.tolist() == [float(2**53 + 1)],
    ),
    "blank-lines": (
        "\n" + _line("a", queries=[_QUERY], labels=[_LABEL]) + "\n\n  \n" + _line("b") + "\n",
        "columns", lambda f: f.sample_id.tolist() == ["a", "b"] and f.offsets.tolist() == [0, 1, 1],
    ),
    "empty-file": (
        "", "columns",
        lambda f: f.imu.shape == (0, 3) and f.offsets.tolist() == [0] and f.boxes.shape == (0, 4),
    ),
    "buoy-free-only": (
        "".join(_line(str(i)) + "\n" for i in range(3)), "columns",
        lambda f: f.offsets.tolist() == [0, 0, 0, 0] and f.distance_m.shape == (0,),
    ),
    "label-within-slack": (
        _line(queries=[_QUERY], labels=[{**_LABEL, "c_x": 0.9950005}]) + "\n", "columns",
        lambda f: f.boxes[:, 0].tolist() == [0.9950005],
    ),
    "heading-540": (
        _line(heading=540.0, queries=[_QUERY], labels=[{"visible": False}]) + "\n", "columns",
        lambda f: f.imu[0, 2].tobytes() == np.float64(wrap_angle_deg(540.0)).tobytes()
        and wrap_angle_deg(540.0) == 180.0 and f.visible.tolist() == [False],
    ),
}


@pytest.mark.parametrize("case", list(_LOAD_CASES))
def test_load_routes_agree(tmp_path, monkeypatch, case):
    """Every file that keeps the rules loads by columns, with no per-line
    call; an integer number loads as the float the per-line rules give it.
    The Frames equal the per-line reference."""
    text, route, check = _LOAD_CASES[case]
    path = tmp_path / "data.jsonl"
    path.write_text(text)
    per_line = []
    record_from_dict = waterline.data._record_from_dict
    monkeypatch.setattr(waterline.data, "_record_from_dict",
                        lambda data: per_line.append(data) or record_from_dict(data))
    frames = load_dataset(path)
    assert ("lines" if per_line else "columns") == route
    assert_same_frames(frames, frames_of(per_line_records(path)))
    assert check(frames)


def test_integer_beyond_float_range_names_its_line(tmp_path):
    """An integer too large for a float fails the column checks, and the
    per-line rules name its line with the message of a non-finite number."""
    path = tmp_path / "data.jsonl"
    path.write_text(_line("a") + "\n"
                    + _line("b", queries=[_QUERY], labels=[{**_LABEL, "w": 10**400}]) + "\n")
    with pytest.raises(DatasetSchemaError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == f"line 2: 'w' must be a finite number, got {10**400!r}"
    assert excinfo.value.line == 2


@pytest.mark.parametrize("loader, make, checks", [
    (load_dataset, _dataset_line, "_checked_frames"),
    (load_predictions, _prediction_line, "_checked_columns"),
])
def test_columns_refusing_a_valid_file_is_an_internal_error(tmp_path, monkeypatch, loader,
                                                            make, checks):
    """When no line breaks a rule, the column checks must not refuse the file:
    if they do, the loader raises AssertionError (exit 1), not a data error."""
    path = tmp_path / "lines.jsonl"
    path.write_text(json.dumps(make()) + "\n")
    monkeypatch.setattr(waterline.data, checks, lambda rows: None)
    with pytest.raises(AssertionError, match="column checks refused"):
        loader(path)
