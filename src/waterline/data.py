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
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import (
    Bounds, Config, ConfigError, DatasetParseError, DatasetSchemaError, GenerationError,
)
from .features import ChartQuery, ImuSample, build_features, waterline_target, wrap_angle_deg
from .geometry import CameraModel, in_frame, project
from .metrics import GtBox, QueryPrediction

SCHEMA_VERSION = 1  # dataset lines
PREDICTIONS_SCHEMA = 1  # prediction lines: read by load_predictions, written by `predict`

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
    """
    bearing_range = config.bearing_range_deg or default_bearing_range(camera)
    # The two unbounded ranges: a width that overflows would give non-finite draws.
    if not all(math.isfinite(float(hi) - float(lo))
               for lo, hi in (config.heading_range_deg, bearing_range)):
        raise ConfigError("heading and bearing ranges must have a finite width")
    records = []
    visible_total = 0
    for i in range(config.n_samples):
        rng = np.random.default_rng((config.seed, i))
        pitch = _uniform(rng, *config.pitch_range_deg)
        roll = _uniform(rng, *config.roll_range_deg)
        heading = _uniform(rng, *config.heading_range_deg)
        true_imu = ImuSample(
            pitch_deg=pitch, roll_deg=roll, heading_deg=wrap_angle_deg(heading)
        )
        qlo, qhi = config.queries_per_sample
        n_queries = int(rng.integers(qlo, qhi + 1))

        queries = []
        labels = []
        for _ in range(n_queries):
            d = _uniform(rng, *config.distance_range_m)
            bearing = _uniform(rng, *bearing_range)
            true_query = ChartQuery(distance_m=d, bearing_deg=wrap_angle_deg(bearing))

            pixel = project(camera, true_imu, true_query)
            visible = pixel is not None and in_frame(camera, pixel)

            h_px = min(max(config.box_height_coeff / d, MIN_BOX_PX), camera.image_h / 2)
            w_px = config.box_aspect * h_px
            w_norm = w_px / camera.image_w
            h_norm = h_px / camera.image_h

            # Label noise jitters the annotated waterline point, in pixels.
            du = rng.normal(0.0, config.label_noise_px)
            dv = rng.normal(0.0, config.label_noise_px)
            drop = rng.random() < config.visibility_dropout

            if visible:
                # Visibility is decided on the true projection: the anchored
                # box must fit entirely inside the frame.
                c_x = pixel.u / camera.image_w
                c_y = pixel.v / camera.image_h - h_norm / 2
                fits = (
                    c_x - w_norm / 2 >= 0
                    and c_x + w_norm / 2 <= 1
                    and c_y - h_norm / 2 >= 0
                    and c_y + h_norm / 2 <= 1
                )
                visible = fits and not drop

            if visible and config.label_noise_px > 0:
                # Jitter the annotation, clamped so the box stays in frame.
                u = min(max(pixel.u + du, w_px / 2), camera.image_w - w_px / 2)
                v = min(max(pixel.v + dv, h_px), float(camera.image_h))
                c_x = u / camera.image_w
                c_y = v / camera.image_h - h_norm / 2

            if visible:
                labels.append(GtBox(visible=True, c_x=c_x, c_y=c_y, w=w_norm, h=h_norm))
                visible_total += 1
            else:
                labels.append(GtBox(visible=False))

            # Recorded measurements carry the sensor noise; the label does not.
            rec_d = max(d * (1.0 + rng.normal(0.0, config.distance_noise_rel)), 1e-3)
            rec_bearing = wrap_angle_deg(
                true_query.bearing_deg + rng.normal(0.0, config.bearing_noise_deg)
            )
            queries.append(ChartQuery(distance_m=rec_d, bearing_deg=rec_bearing))

        rec_imu = ImuSample(
            pitch_deg=_clamp_90(pitch + rng.normal(0.0, config.pitch_noise_deg)),
            roll_deg=_clamp_90(roll + rng.normal(0.0, config.roll_noise_deg)),
            heading_deg=wrap_angle_deg(
                true_imu.heading_deg + rng.normal(0.0, config.heading_noise_deg)
            ),
        )
        records.append(
            SampleRecord(
                sample_id=f"{i:06d}",
                imu=rec_imu,
                queries=tuple(queries),
                labels=tuple(labels),
            )
        )
    if visible_total == 0:
        raise GenerationError(
            "generation produced zero visible queries; widen the ranges or "
            "check the camera configuration"
        )
    return records


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi) without its argument checks: Generator.uniform's
    own formula on the same double, so the same float bit for bit."""
    return lo + (hi - lo) * rng.random()


def _clamp_90(angle: float) -> float:
    """A recorded pitch or roll clamped into [-90, 90], as np.clip would."""
    return min(max(angle, -90.0), 90.0)


def visible_examples(records) -> tuple[np.ndarray, np.ndarray]:
    """Extract (features, waterline targets) for every visible query."""
    xs = []
    ys = []
    for record in records:
        for query, label in zip(record.queries, record.labels):
            if label.visible:
                xs.append(build_features(query, record.imu))
                ys.append(waterline_target(label))
    if not xs:
        return np.zeros((0, 6)), np.zeros((0, 2))
    return np.stack(xs), np.asarray(ys, dtype=np.float64)


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
            f.write(json.dumps(_record_to_dict(record), separators=(",", ":")))
            f.write("\n")


def _jsonl(path):
    """Yield (line number, parsed value) for every non-blank line of a JSONL file."""
    with open(path, "rb") as f:  # decoded per line, so a bad byte is reported with its line
        for line_no, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                data = json.loads(line)
            except ValueError as exc:  # bad UTF-8, JSONDecodeError, or an over-long integer
                raise DatasetParseError(str(exc), line=line_no) from exc
            yield line_no, data


def load_dataset(path) -> list[SampleRecord]:
    return [_record_from_dict(data, line_no) for line_no, data in _jsonl(path)]


def load_predictions(path) -> tuple[list[QueryPrediction], list[GtBox]]:
    """Read the per-query predictions JSONL used for calibration.

    Line schema: {"schema": 1, "sample_id": str, "query_index": int,
    "logit": number, "box": {c_x, c_y, w, h}, "gt_visible": bool,
    "gt_box": {c_x, c_y, w, h} | null}.
    """
    preds: list[QueryPrediction] = []
    gts: list[GtBox] = []
    for line_no, data in _jsonl(path):
        if not isinstance(data, dict):
            raise DatasetSchemaError("prediction line must be an object", line=line_no)
        if data.get("schema") != PREDICTIONS_SCHEMA:
            raise DatasetSchemaError(
                f"unsupported schema version {data.get('schema')!r}", line=line_no
            )
        logit = _number(data, "logit", line_no)
        box = _box(_require(data, "box", line_no), "box", line_no)
        gt_visible = _require(data, "gt_visible", line_no)
        if not isinstance(gt_visible, bool):
            raise DatasetSchemaError("'gt_visible' must be a boolean", line=line_no)
        preds.append(QueryPrediction(objectness_logit=logit, box=box))
        if gt_visible:
            gt_box = data.get("gt_box")
            if not isinstance(gt_box, dict):
                raise DatasetSchemaError(
                    "visible ground truth requires a 'gt_box' object", line=line_no
                )
            gts.append(GtBox(True, *_box(gt_box, "gt_box", line_no)))
        else:
            gts.append(GtBox(visible=False))
    return preds, gts


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


def _require(data: dict, key: str, line_no: int):
    if key not in data:
        raise DatasetSchemaError(f"missing key {key!r}", line=line_no)
    return data[key]


def _number(data: dict, key: str, line_no: int) -> float:
    """data[key] as a finite float; JSON booleans are not numbers."""
    value = data.get(key)
    if type(value) is float and math.isfinite(value):  # what the writers emit
        return value
    value = _require(data, key, line_no)
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise DatasetSchemaError(f"{key!r} must be a finite number, got {value!r}", line=line_no)


def _box(data, key: str, line_no: int) -> tuple[float, float, float, float]:
    if not isinstance(data, dict):
        raise DatasetSchemaError(f"{key!r} must be an object", line=line_no)
    c_x = _number(data, "c_x", line_no)
    c_y = _number(data, "c_y", line_no)
    w = _number(data, "w", line_no)
    h = _number(data, "h", line_no)
    if w <= 0 or h <= 0:
        raise DatasetSchemaError(
            f"{key!r} must have positive width and height, got w={w!r}, h={h!r}", line=line_no
        )
    return c_x, c_y, w, h


def _record_from_dict(data: dict, line_no: int) -> SampleRecord:
    if not isinstance(data, dict):
        raise DatasetSchemaError("record must be a JSON object", line=line_no)
    schema = _require(data, "schema", line_no)
    if schema != SCHEMA_VERSION:
        raise DatasetSchemaError(f"unsupported schema version {schema!r}", line=line_no)
    sample_id = _require(data, "sample_id", line_no)
    if not isinstance(sample_id, str):
        raise DatasetSchemaError("'sample_id' must be a string", line=line_no)

    imu_data = _require(data, "imu", line_no)
    if not isinstance(imu_data, dict):
        raise DatasetSchemaError("'imu' must be an object", line=line_no)
    imu = ImuSample(
        pitch_deg=_number(imu_data, "pitch_deg", line_no),
        roll_deg=_number(imu_data, "roll_deg", line_no),
        heading_deg=wrap_angle_deg(
            _number(imu_data, "heading_deg", line_no)
        ),
    )

    queries_data = _require(data, "queries", line_no)
    labels_data = _require(data, "labels", line_no)
    if not isinstance(queries_data, list) or not isinstance(labels_data, list):
        raise DatasetSchemaError("'queries' and 'labels' must be arrays", line=line_no)
    if len(queries_data) != len(labels_data):
        raise DatasetSchemaError(
            f"{len(queries_data)} queries vs {len(labels_data)} labels", line=line_no
        )

    queries = []
    for q in queries_data:
        if not isinstance(q, dict):
            raise DatasetSchemaError("query entries must be objects", line=line_no)
        queries.append(
            ChartQuery(
                distance_m=_number(q, "distance_m", line_no),
                bearing_deg=_number(q, "bearing_deg", line_no),
            )
        )

    labels = []
    for entry in labels_data:
        if not isinstance(entry, dict):
            raise DatasetSchemaError("label entries must be objects", line=line_no)
        visible = _require(entry, "visible", line_no)
        if not isinstance(visible, bool):
            raise DatasetSchemaError("'visible' must be a boolean", line=line_no)
        if visible:
            labels.append(GtBox(True, *_box(entry, "label", line_no)))
        else:
            labels.append(GtBox(visible=False))

    try:
        imu.validate()
        for query in queries:
            query.validate()
        for label in labels:
            label.validate()
        return SampleRecord(
            sample_id=sample_id, imu=imu, queries=tuple(queries), labels=tuple(labels)
        )
    except DatasetSchemaError:
        raise
    except ValueError as exc:
        raise DatasetSchemaError(str(exc), line=line_no) from exc
