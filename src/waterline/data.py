"""Dataset schema, synthetic scene generation, and train/val splitting.

On-disk format is JSON Lines, one sample per line:

    {"schema": 1,
     "sample_id": "000042",
     "imu": {"pitch_deg": ..., "roll_deg": ..., "heading_deg": ...},
     "queries": [{"distance_m": ..., "bearing_deg": ...}, ...],
     "labels":  [{"visible": true, "c_x": ..., "c_y": ..., "w": ..., "h": ...},
                 {"visible": false}, ...]}

`queries` and `labels` are aligned; an empty `queries` list marks a buoy-free
frame. Box fields are normalized to [0, 1] and are omitted when a label is
not visible. Headings are wrapped into [-180, 180] on ingestion.

The generator draws vessel attitude and chart queries at random, projects
each query's waterline point through the pinhole camera, and anchors a
distance-scaled box at the projected point. Measurement noise perturbs the
*recorded* query/IMU values, never the label: the annotation is ground truth,
the sensors are what lie.
"""

from __future__ import annotations

import json
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Annotated

import numpy as np

from .errors import (
    Bounds, Config, ConfigError, DatasetParseError, DatasetSchemaError, GenerationError,
)
from .features import ChartQuery, ImuSample, feature_matrix, waterline_targets, wrap_angle_deg
from .geometry import CameraModel, in_frame, project
from .metrics import Detections, GtBox

SCHEMA_VERSION = 1  # dataset lines
# Detector lines: a detector's per-query logit and box with their ground truth,
# read by load_predictions for `calibrate` (see load_predictions).
DETECTOR_SCHEMA = 1
# `predict` output lines: {"schema", "sample_id", "query_index", "prediction":
# {"c_x", "c_y_plus_half_h"}, "decoder_query": [4 floats], "features"?: [6 floats]}.
# No loader reads them.
PREDICT_SCHEMA = 1

# The one JSON Lines encoder of both writers (save_dataset and `predict`):
# json.dumps(obj, separators=(",", ":")) without building an encoder per line.
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))

# Box-size clamp: apparent height is limited to [MIN_BOX_PX, image_h / 2].
MIN_BOX_PX = 2.0

# GenConfig fields that perturb recorded measurements or labels.
NOISE_FIELDS = (
    "distance_noise_rel",
    "bearing_noise_deg",
    "pitch_noise_deg",
    "roll_noise_deg",
    "heading_noise_deg",
    "label_noise_px",
)


@dataclass(frozen=True)
class SampleRecord:
    """One frame: vessel attitude plus aligned chart queries and labels."""

    sample_id: str
    imu: ImuSample
    queries: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.queries) != len(self.labels):
            raise DatasetSchemaError(
                f"sample {self.sample_id}: {len(self.queries)} queries vs "
                f"{len(self.labels)} labels"
            )
        for label in self.labels:  # frame containment binds dataset labels, not every box
            label.validate()

    @property
    def buoy_free(self) -> bool:
        return len(self.queries) == 0


@dataclass(frozen=True)
class GenConfig(Config):
    """Knobs of the synthetic scene generator. Angles in degrees, ranges
    inclusive. distance_noise_rel is a fraction of the true distance; the
    other noise fields are absolute standard deviations."""

    label = "generator config"

    n_samples: Annotated[int, Bounds(1)]
    queries_per_sample: Annotated[tuple[int, int], Bounds(0)] = (1, 3)
    distance_range_m: Annotated[tuple[float, float], Bounds(0, lo_open=True)] = (5.0, 1000.0)
    bearing_range_deg: tuple[float, float] | None = None  # None: +/- (half horizontal FOV + 5 deg)
    pitch_range_deg: Annotated[tuple[float, float], Bounds(-90, 90)] = (-10.0, 10.0)
    roll_range_deg: Annotated[tuple[float, float], Bounds(-90, 90)] = (-10.0, 10.0)
    heading_range_deg: tuple[float, float] = (-180.0, 180.0)
    # apparent height ~ coeff / distance, in px; width = aspect * height
    box_height_coeff: Annotated[float, Bounds(0, lo_open=True)] = 900.0
    box_aspect: Annotated[float, Bounds(0, lo_open=True)] = 0.6
    distance_noise_rel: Annotated[float, Bounds(0)] = 0.0
    bearing_noise_deg: Annotated[float, Bounds(0)] = 0.0
    pitch_noise_deg: Annotated[float, Bounds(0)] = 0.0
    roll_noise_deg: Annotated[float, Bounds(0)] = 0.0
    heading_noise_deg: Annotated[float, Bounds(0)] = 0.0
    label_noise_px: Annotated[float, Bounds(0)] = 0.0
    visibility_dropout: Annotated[float, Bounds(0, 1)] = 0.0
    seed: Annotated[int, Bounds(0)] = 0

    @property
    def noise_free(self) -> bool:
        return all(getattr(self, name) == 0 for name in NOISE_FIELDS)


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple
    val: tuple
    ratio: float
    seed: int


def default_bearing_range(camera: CameraModel) -> tuple[float, float]:
    """+/- (half the horizontal field of view + 5 deg) of slack."""
    half_fov = math.degrees(math.atan((camera.image_w / 2) / camera.focal_px))
    return (-(half_fov + 5.0), half_fov + 5.0)


def generate(camera: CameraModel, config: GenConfig) -> list[SampleRecord]:
    """Produce synthetic samples whose labels are exact pinhole projections.

    A query is visible when its waterline point projects in front of the
    camera, lands inside the frame, and the anchored box fits entirely within
    the frame. Per-sample RNG streams are derived from (seed, sample_index),
    so output is deterministic and independent of iteration parallelism.

    Each sample's loop only draws from its stream, in a fixed order: the
    attitude uniforms, the query count, each query's distance and bearing
    uniforms, label jitter, dropout uniform and measurement noise, then the
    attitude noise. One array pass over the whole dataset then projects,
    boxes and labels every query and applies the recorded noise; the records
    are built last.
    """
    bearing_range = config.bearing_range_deg or default_bearing_range(camera)
    # The two unbounded ranges: a width that overflows would give non-finite draws.
    if not all(math.isfinite(float(hi) - float(lo))
               for lo, hi in (config.heading_range_deg, bearing_range)):
        raise ConfigError("heading and bearing ranges must have a finite width")
    qlo, qhi = config.queries_per_sample
    # Raw doubles, not float objects, until the array pass reads them.
    sample_draws = array("d")  # per sample: pitch, roll, heading uniforms, then their noise
    query_draws = array("d")  # per query: distance, bearing uniforms; du, dv; dropout; their noise
    counts = []
    for i in range(config.n_samples):
        rng = np.random.default_rng((config.seed, i))
        attitude = (rng.random(), rng.random(), rng.random())
        n_queries = int(rng.integers(qlo, qhi + 1))
        for _ in range(n_queries):
            query_draws.extend((  # a tuple's items are evaluated left to right
                rng.random(), rng.random(),
                rng.normal(0.0, config.label_noise_px),
                rng.normal(0.0, config.label_noise_px),
                rng.random(),
                rng.normal(0.0, config.distance_noise_rel),
                rng.normal(0.0, config.bearing_noise_deg),
            ))
        sample_draws.extend((
            *attitude,
            rng.normal(0.0, config.pitch_noise_deg),
            rng.normal(0.0, config.roll_noise_deg),
            rng.normal(0.0, config.heading_noise_deg),
        ))
        counts.append(n_queries)

    s = np.frombuffer(sample_draws, dtype=np.float64).reshape(-1, 6)
    q = np.frombuffer(query_draws, dtype=np.float64).reshape(-1, 7)  # (0, 7) if no queries
    pitch = _uniform(s[:, 0], *config.pitch_range_deg)
    roll = _uniform(s[:, 1], *config.roll_range_deg)
    heading = wrap_angle_deg(_uniform(s[:, 2], *config.heading_range_deg))
    d = _uniform(q[:, 0], *config.distance_range_m)
    bearing = wrap_angle_deg(_uniform(q[:, 1], *bearing_range))
    du, dv, dropout_u, d_noise, b_noise = q[:, 2:].T

    u, v = project(camera, np.repeat(pitch, counts), np.repeat(roll, counts), d, bearing)
    h_px = np.minimum(np.maximum(config.box_height_coeff / d, MIN_BOX_PX), camera.image_h / 2)
    w_px = config.box_aspect * h_px
    w_norm = w_px / camera.image_w
    h_norm = h_px / camera.image_h
    # Visibility is decided on the true projection: the point lands in frame
    # and the anchored box fits entirely inside it. A NaN pixel fails both.
    c_x = u / camera.image_w
    c_y = v / camera.image_h - h_norm / 2
    visible = (
        in_frame(camera, u, v)
        & (c_x - w_norm / 2 >= 0) & (c_x + w_norm / 2 <= 1)
        & (c_y - h_norm / 2 >= 0) & (c_y + h_norm / 2 <= 1)
        & ~(dropout_u < config.visibility_dropout)
    )
    if not visible.any():
        raise GenerationError(
            "generation produced zero visible queries; widen the ranges or "
            "check the camera configuration"
        )
    if config.label_noise_px > 0:
        # Jitter the annotated waterline point, clamped so the box stays in frame.
        u = np.minimum(np.maximum(u + du, w_px / 2), camera.image_w - w_px / 2)
        v = np.minimum(np.maximum(v + dv, h_px), float(camera.image_h))
        c_x = u / camera.image_w
        c_y = v / camera.image_h - h_norm / 2

    # Recorded measurements carry the sensor noise; the label does not.
    queries = [
        ChartQuery(distance, angle)
        for distance, angle in zip(np.maximum(d * (1.0 + d_noise), 1e-3).tolist(),
                                   wrap_angle_deg(bearing + b_noise).tolist())
    ]
    labels = [
        GtBox(True, *box) if vis else GtBox(visible=False)
        for vis, box in zip(visible.tolist(), zip(c_x.tolist(), c_y.tolist(),
                                                  w_norm.tolist(), h_norm.tolist()))
    ]
    imus = zip(np.clip(pitch + s[:, 3], -90.0, 90.0).tolist(),
               np.clip(roll + s[:, 4], -90.0, 90.0).tolist(),
               wrap_angle_deg(heading + s[:, 5]).tolist())
    records = []
    end = 0
    for i, (imu, n_queries) in enumerate(zip(imus, counts)):
        start, end = end, end + n_queries
        records.append(SampleRecord(
            f"{i:06d}", ImuSample(*imu), tuple(queries[start:end]), tuple(labels[start:end])
        ))
    return records


def _uniform(u, lo: float, hi: float):
    """Generator.uniform(lo, hi)'s own formula on the doubles `u` drawn by
    Generator.random(), so the same floats bit for bit; the width is taken
    before any int is converted, as Python's arithmetic on the scalars does."""
    return float(lo) + float(hi - lo) * u


def float_rows(rows, width: int) -> np.ndarray:
    """The (m, width) float64 array of m tuples of `width` numbers; faster than
    np.array over the tuples, with the same values."""
    return np.fromiter(chain.from_iterable(rows), np.float64).reshape(-1, width)


def visible_examples(records) -> tuple[np.ndarray, np.ndarray]:
    """Extract (features, waterline targets) for every visible query, the
    floats gathered in one pass and both arrays built whole-set."""
    rows = float_rows((
        (query.distance_m, query.bearing_deg,
         record.imu.pitch_deg, record.imu.roll_deg, record.imu.heading_deg,
         label.c_x, label.c_y, label.w, label.h)
        for record in records
        for query, label in zip(record.queries, record.labels)
        if label.visible
    ), 9)
    return feature_matrix(*rows[:, :5].T), waterline_targets(rows[:, 5:])


def split(records, ratio: float, seed: int) -> DatasetSplit:
    """Deterministic shuffled split by sample, stratified so buoy-free frames
    land in both halves proportionally when possible."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    records = list(records)
    n = len(records)
    if n < 2:
        raise ValueError("need at least 2 records to split")
    n_train = min(max(int(round(ratio * n)), 1), n - 1)

    strata = [
        [i for i, r in enumerate(records) if r.buoy_free],
        [i for i, r in enumerate(records) if not r.buoy_free],
    ]
    strata = [s for s in strata if s]

    # Largest-remainder allocation of the train quota across strata.
    quotas = [n_train * len(s) / n for s in strata]
    takes = [int(math.floor(q)) for q in quotas]
    remainders = sorted(
        range(len(strata)), key=lambda j: (-(quotas[j] - takes[j]), j)
    )
    shortfall = n_train - sum(takes)
    # n_train <= n - 1 keeps floor(quota) + 1 <= len(stratum): no take overshoots.
    for j in remainders[:shortfall]:
        takes[j] += 1

    train_idx = set()
    for j, stratum in enumerate(strata):
        order = np.random.default_rng((seed, j)).permutation(len(stratum))
        train_idx.update(stratum[k] for k in order[: takes[j]])

    train = tuple(records[i] for i in range(n) if i in train_idx)
    val = tuple(records[i] for i in range(n) if i not in train_idx)
    return DatasetSplit(train=train, val=val, ratio=ratio, seed=seed)


def save_dataset(records, path) -> None:
    """Write records as JSONL; float fields keep full 64-bit precision."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(COMPACT_JSON.encode(_record_to_dict(record)))
            f.write("\n")


def _jsonl(path, parse) -> list:
    """parse(value) for each non-blank line of a JSONL file; the one place that
    names a bad line. A line that is not UTF-8 JSON raises DatasetParseError, and
    a ValueError from `parse` (schema or range) becomes DatasetSchemaError."""
    values = []
    with open(path, "rb") as f:  # decoded per line, so a bad byte is reported with its line
        for line_no, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                data = json.loads(line)
            # bad UTF-8, JSONDecodeError, an over-long integer, or nesting too deep to decode
            except (ValueError, RecursionError) as exc:
                raise DatasetParseError(str(exc), line=line_no) from exc
            try:
                values.append(parse(data))
            except ValueError as exc:
                raise DatasetSchemaError(str(exc), line=line_no) from exc
    return values


def load_dataset(path) -> list[SampleRecord]:
    return _jsonl(path, _record_from_dict)


def load_predictions(path) -> Detections:
    """Read a detector file, the input of `calibrate`, as columns.

    Line schema: {"schema": 1, "sample_id": str, "query_index": int,
    "logit": number, "box": {c_x, c_y, w, h}, "gt_visible": bool,
    "gt_box": {c_x, c_y, w, h} | null}. query_index is a non-negative
    integer, and no (sample_id, query_index) pair appears twice in a file.

    Each rule is checked once per column. When a column fails one, the
    per-line rules of _prediction_from_dict run over the file: they name the
    first bad line, or, when every line keeps them (an integer logit, say),
    give the values.
    """
    columns = _checked_columns(_jsonl(path, _detector_fields))
    if columns is None:
        seen = set()

        def parse(data):
            row = _prediction_from_dict(data)
            key = row[1:3]
            if key in seen:
                raise DatasetSchemaError(f"duplicate sample_id and query_index {key!r}")
            seen.add(key)
            return row

        columns = _columns(list(zip(*_jsonl(path, parse))))
    return columns


_DETECTOR_KEYS = operator.itemgetter("schema", "sample_id", "query_index", "logit")
_BOX_KEYS = operator.itemgetter("c_x", "c_y", "w", "h")
_NO_BOX = (0.0, 0.0, 0.0, 0.0)  # the ground-truth box of a row whose buoy is not visible


def _detector_fields(data) -> tuple | None:
    """A detector line's values in row order (schema, sample_id, query_index,
    logit, box, gt_visible, gt_box), unchecked; None if a key or an object is
    missing."""
    try:
        visible = data["gt_visible"]
        return (*_DETECTOR_KEYS(data), *_BOX_KEYS(data["box"]), visible,
                *(_BOX_KEYS(data["gt_box"]) if visible is True else _NO_BOX))
    except (KeyError, TypeError):  # a missing key, or a value that is not an object
        return None


def _checked_columns(rows) -> Detections | None:
    """The columns of rows in _detector_fields' order, or None if a column
    breaks a rule of _prediction_from_dict or holds a value that the writers
    do not emit and that rule converts (an integer number)."""
    if not rows:
        return _columns([])
    if None in rows:
        return None
    cols = list(zip(*rows))
    schema, sample_id, query_index, visible = cols[0], cols[1], cols[2], cols[8]
    if not (_types(schema) == {int} and set(schema) == {DETECTOR_SCHEMA}
            and _types(sample_id) == {str}
            and _types(query_index) == {int} and min(query_index) >= 0
            and _types(visible) == {bool}
            and all(_types(col) == {float} for col in cols[3:8] + cols[9:])
            and len(set(zip(sample_id, query_index))) == len(rows)):
        return None
    columns = _columns(cols)
    sizes = np.concatenate((columns.boxes[:, 2:], columns.gt_boxes[columns.gt_visible, 2:]))
    finite = all(np.isfinite(col).all() for col in (columns.logits, columns.boxes, columns.gt_boxes))
    return columns if finite and (sizes > 0).all() else None


def _types(column) -> set:
    return set(map(type, column))


def _columns(cols) -> Detections:
    """Detections of valid values, from the columns of rows in
    _detector_fields' order (list(zip(*rows)), so [] for no rows)."""
    numbers = np.array(cols[3:8] + cols[9:], dtype=np.float64).reshape(9, -1)
    return Detections(
        logits=numbers[0],
        boxes=numbers[1:5].T,
        gt_visible=np.array(cols[8:9], dtype=bool).reshape(-1),
        gt_boxes=numbers[5:].T,
    )


def _record_to_dict(record: SampleRecord) -> dict:
    labels = []
    for label in record.labels:
        if label.visible:
            labels.append(
                {"visible": True, "c_x": label.c_x, "c_y": label.c_y, "w": label.w, "h": label.h}
            )
        else:
            labels.append({"visible": False})
    return {
        "schema": SCHEMA_VERSION,
        "sample_id": record.sample_id,
        "imu": {
            "pitch_deg": record.imu.pitch_deg,
            "roll_deg": record.imu.roll_deg,
            "heading_deg": record.imu.heading_deg,
        },
        "queries": [
            {"distance_m": q.distance_m, "bearing_deg": q.bearing_deg} for q in record.queries
        ],
        "labels": labels,
    }


def _require(data: dict, key: str):
    if key not in data:
        raise DatasetSchemaError(f"missing key {key!r}")
    return data[key]


def _number(data: dict, key: str) -> float:
    """data[key] as a finite float; JSON booleans are not numbers."""
    value = data.get(key)
    if type(value) is float and math.isfinite(value):  # what the writers emit
        return value
    value = _require(data, key)
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise DatasetSchemaError(f"{key!r} must be a finite number, got {value!r}")


def _box(data, key: str) -> tuple[float, float, float, float]:
    if not isinstance(data, dict):
        raise DatasetSchemaError(f"{key!r} must be an object")
    c_x, c_y, w, h = (_number(data, k) for k in ("c_x", "c_y", "w", "h"))
    if w <= 0 or h <= 0:
        raise DatasetSchemaError(
            f"{key!r} must have positive width and height, got w={w!r}, h={h!r}"
        )
    return c_x, c_y, w, h


def _prediction_from_dict(data) -> tuple:
    """One detector line's values in _detector_fields' order, each rule
    checked; the rules and their messages for the lines of a detector file."""
    if not isinstance(data, dict):
        raise DatasetSchemaError("prediction line must be an object")
    if "logit" not in data and "prediction" in data:
        raise DatasetSchemaError(
            "a `predict` output row (prediction, decoder_query); calibrate reads "
            "detector rows (logit, box, gt_visible, gt_box)"
        )
    schema = data.get("schema")
    if type(schema) is not int or schema != DETECTOR_SCHEMA:  # JSON true == 1 in Python
        raise DatasetSchemaError(f"unsupported schema version {schema!r}")
    sample_id = _require(data, "sample_id")
    if not isinstance(sample_id, str):
        raise DatasetSchemaError("'sample_id' must be a string")
    query_index = _require(data, "query_index")
    if type(query_index) is not int or query_index < 0:  # JSON true is an int in Python
        raise DatasetSchemaError(
            f"'query_index' must be a non-negative integer, got {query_index!r}"
        )
    head = (schema, sample_id, query_index, _number(data, "logit"),
            *_box(_require(data, "box"), "box"))
    gt_visible = _require(data, "gt_visible")
    if not isinstance(gt_visible, bool):
        raise DatasetSchemaError("'gt_visible' must be a boolean")
    if not gt_visible:
        return (*head, False, *_NO_BOX)
    gt_box = data.get("gt_box")
    if not isinstance(gt_box, dict):
        raise DatasetSchemaError("visible ground truth requires a 'gt_box' object")
    return (*head, True, *_box(gt_box, "gt_box"))


def _record_from_dict(data) -> SampleRecord:
    if not isinstance(data, dict):
        raise DatasetSchemaError("record must be a JSON object")
    schema = _require(data, "schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise DatasetSchemaError(f"unsupported schema version {schema!r}")
    sample_id = _require(data, "sample_id")
    if not isinstance(sample_id, str):
        raise DatasetSchemaError("'sample_id' must be a string")

    imu_data = _require(data, "imu")
    if not isinstance(imu_data, dict):
        raise DatasetSchemaError("'imu' must be an object")
    imu = ImuSample(
        pitch_deg=_number(imu_data, "pitch_deg"),
        roll_deg=_number(imu_data, "roll_deg"),
        heading_deg=wrap_angle_deg(_number(imu_data, "heading_deg")),
    )

    queries_data = _require(data, "queries")
    labels_data = _require(data, "labels")
    if not isinstance(queries_data, list) or not isinstance(labels_data, list):
        raise DatasetSchemaError("'queries' and 'labels' must be arrays")

    queries = []
    for q in queries_data:
        if not isinstance(q, dict):
            raise DatasetSchemaError("query entries must be objects")
        queries.append(ChartQuery(_number(q, "distance_m"), _number(q, "bearing_deg")))

    labels = []
    for entry in labels_data:
        if not isinstance(entry, dict):
            raise DatasetSchemaError("label entries must be objects")
        visible = _require(entry, "visible")
        if not isinstance(visible, bool):
            raise DatasetSchemaError("'visible' must be a boolean")
        labels.append(GtBox(True, *_box(entry, "label")) if visible else GtBox(visible=False))

    return SampleRecord(sample_id, imu, tuple(queries), tuple(labels))
