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

Frames, a dataset as columns, is the one in-memory form dataset values pass
through: load_dataset and generate_frames build one, save_dataset writes one,
and Frames.records() builds every SampleRecord. A JSON integer loads as the
float it equals; the per-line rules of _record_from_dict only name a bad line.

write_jsonl is the one JSONL writer. Its lines come from the templates beside
the schema versions, filled from column lists, each number and string as
compact, ASCII-only json.dumps writes it.

The generator draws vessel attitude and chart queries at random, projects
each query's waterline point through the pinhole camera, and anchors a
distance-scaled box at the projected point. Measurement noise perturbs the
*recorded* query/IMU values, never the label: the annotation is ground truth,
the sensors are what lie. Sample i draws from the stream of
np.random.default_rng((seed, i)), whose n states are derived in one array pass.
"""

from __future__ import annotations

import json
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from typing import Annotated, NamedTuple

import numpy as np

from .errors import (
    Bounds, Config, ConfigError, DatasetParseError, DatasetSchemaError, GenerationError,
)
from .features import (
    ANGLE_DEG, DISTANCE_M, PITCH_ROLL_DEG, ChartQuery, ImuSample, feature_matrix,
    waterline_targets, wrap_angle_deg,
)
from .geometry import CameraModel, in_frame, project
from .metrics import Detections, GtBox, inside_frame, positive_size

SCHEMA_VERSION = 1  # dataset lines
# Detector lines: a detector's per-query logit and box with their ground truth,
# read by load_predictions for `calibrate` (see load_predictions).
DETECTOR_SCHEMA = 1
# `predict` output lines: {"schema", "sample_id", "query_index", "prediction":
# {"c_x", "c_y_plus_half_h"}, "decoder_query": [4 floats], "features"?: [6 floats]}.
# No loader reads them.
PREDICT_SCHEMA = 1

# The line templates of the two writers: json.dumps(row, separators=(",", ":"))
# with %s where a string or number goes. A dataset line joins one query item
# per query and one label item per label.
_DATASET_HEAD = ('{"schema":%d,' % SCHEMA_VERSION + '"sample_id":%s,'
                 '"imu":{"pitch_deg":%s,"roll_deg":%s,"heading_deg":%s},"queries":[')
_QUERY_ITEM = '{"distance_m":%s,"bearing_deg":%s}'
_LABEL_ITEMS = ('{"visible":false}', '{"visible":true,"c_x":%s,"c_y":%s,"w":%s,"h":%s}')
_PREDICT_LINE = ('{"schema":%d,' % PREDICT_SCHEMA + '"sample_id":%s,"query_index":%d,'
                 '"prediction":{"c_x":%s,"c_y_plus_half_h":%s},"decoder_query":[%s,%s,%s,%s]')
_FEATURES_END = ',"features":[%s,%s,%s,%s,%s,%s]}\n'
_RAW_DECODE = json.JSONDecoder().raw_decode  # the decoder of json.loads
_NUMBER_TYPES = {float, int}  # of a JSON number; a JSON true or false is a bool

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


class Frames(NamedTuple):
    """A dataset as columns: n frames holding m chart queries, m_vis of them
    visible. Frame i's queries are rows offsets[i]:offsets[i + 1] of the
    query columns, in file order."""

    sample_id: np.ndarray  # (n,) object: str
    imu: np.ndarray  # (n, 3) float64: pitch, roll, heading (wrapped), degrees
    offsets: np.ndarray  # (n + 1,) int64
    distance_m: np.ndarray  # (m,) float64
    bearing_deg: np.ndarray  # (m,) float64
    visible: np.ndarray  # (m,) bool
    boxes: np.ndarray  # (m_vis, 4) float64: c_x, c_y, w, h of the visible queries, in order

    def query_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The (sample_id, query_index) of each query, as two (m,) arrays."""
        counts = np.diff(self.offsets)
        return (np.repeat(self.sample_id, counts),
                np.arange(len(self.distance_m)) - np.repeat(self.offsets[:-1], counts))

    def features(self) -> np.ndarray:
        """The (m, 6) network inputs of every query (feature_matrix)."""
        pitch, roll, heading = np.repeat(self.imu, np.diff(self.offsets), axis=0).T
        return feature_matrix(self.distance_m, self.bearing_deg, pitch, roll, heading)

    def records(self) -> list[SampleRecord]:
        """The frames as SampleRecords, the input of split and visible_examples,
        built from column lists (no per-row list): the package's one builder."""
        queries = list(map(ChartQuery, self.distance_m.tolist(), self.bearing_deg.tolist()))
        boxes = zip(*self.boxes.T.tolist())
        labels = [GtBox(True, *next(boxes)) if visible else GtBox(visible=False)
                  for visible in self.visible.tolist()]
        offsets = self.offsets.tolist()
        return [
            SampleRecord(sample_id, ImuSample(*imu), tuple(queries[start:end]),
                         tuple(labels[start:end]))
            for sample_id, imu, start, end in zip(self.sample_id.tolist(),
                                                  zip(*self.imu.T.tolist()),
                                                  offsets, offsets[1:])
        ]


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
    pitch_range_deg: Annotated[tuple[float, float], PITCH_ROLL_DEG] = (-10.0, 10.0)
    roll_range_deg: Annotated[tuple[float, float], PITCH_ROLL_DEG] = (-10.0, 10.0)
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


def default_bearing_range(camera: CameraModel) -> tuple[float, float]:
    """+/- (half the horizontal field of view + 5 deg) of slack."""
    half_fov = math.degrees(math.atan((camera.image_w / 2) / camera.focal_px))
    return (-(half_fov + 5.0), half_fov + 5.0)


def generate(camera: CameraModel, config: GenConfig) -> list[SampleRecord]:
    """generate_frames(camera, config) as SampleRecords, for the callers that
    still read records: the benchmark's serve and train set-ups and the tests."""
    return generate_frames(camera, config).records()


def generate_frames(camera: CameraModel, config: GenConfig) -> Frames:
    """Produce synthetic samples whose labels are exact pinhole projections.

    A query is visible when its waterline point projects in front of the
    camera, lands inside the frame, and the anchored box fits entirely within
    the frame. Sample i draws from the stream of
    np.random.default_rng((seed, i)), so output is deterministic and
    independent of iteration parallelism; _stream_states derives all n
    stream states in one array pass, and one reused Generator draws them.

    Each sample's loop only draws from its stream, in a fixed order: the
    attitude uniforms, the query count, each query's distance and bearing
    uniforms, label jitter, dropout uniform and measurement noise, then the
    attitude noise. One array pass over the whole dataset then projects,
    boxes and labels every query and applies the recorded noise into Frames.
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
    for rng in _streams(config.seed, config.n_samples):
        attitude = (rng.random(), rng.random(), rng.random())
        n_queries = int(rng.integers(qlo, qhi + 1))
        for _ in range(n_queries):
            query_draws.extend((  # a tuple's items are evaluated left to right
                rng.random(), rng.random(), rng.standard_normal(), rng.standard_normal(),
                rng.random(), rng.standard_normal(), rng.standard_normal(),
            ))
        sample_draws.extend((*attitude, rng.standard_normal(), rng.standard_normal(),
                             rng.standard_normal()))
        counts.append(n_queries)

    # Generator.normal(0.0, sd) is 0.0 + sd * standard_normal() in C, so the
    # same floats; a uniform's factor of 1.0 keeps it as drawn.
    s = 0.0 + np.frombuffer(sample_draws, dtype=np.float64).reshape(-1, 6) * (
        1.0, 1.0, 1.0, config.pitch_noise_deg, config.roll_noise_deg, config.heading_noise_deg)
    q = 0.0 + np.frombuffer(query_draws, dtype=np.float64).reshape(-1, 7) * (  # (0, 7) if none
        1.0, 1.0, config.label_noise_px, config.label_noise_px, 1.0, config.distance_noise_rel,
        config.bearing_noise_deg)
    pitch = _uniform(s[:, 0], *config.pitch_range_deg)
    roll = _uniform(s[:, 1], *config.roll_range_deg)
    heading = wrap_angle_deg(_uniform(s[:, 2], *config.heading_range_deg))
    d = _uniform(q[:, 0], *config.distance_range_m)
    bearing = wrap_angle_deg(_uniform(q[:, 1], *bearing_range))
    du, dv, dropout_u, d_noise, b_noise = q[:, 2:].T

    u, v = project(camera, np.repeat(pitch, counts), np.repeat(roll, counts), d, bearing)
    # A floor on d where the height clamps anyway keeps the divide finite.
    h_px = np.minimum(np.maximum(config.box_height_coeff / np.maximum(
        d, config.box_height_coeff / camera.image_h), MIN_BOX_PX), camera.image_h / 2)
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
    imu = np.column_stack((np.clip(pitch + s[:, 3], PITCH_ROLL_DEG.lo, PITCH_ROLL_DEG.hi),
                           np.clip(roll + s[:, 4], PITCH_ROLL_DEG.lo, PITCH_ROLL_DEG.hi),
                           wrap_angle_deg(heading + s[:, 5])))
    queries = np.column_stack((np.maximum(d * (1.0 + d_noise), 1e-3),
                               wrap_angle_deg(bearing + b_noise)))
    boxes = np.column_stack((c_x, c_y, w_norm, h_norm))[visible]
    sample_ids = [f"{i:06d}" for i in range(config.n_samples)]
    return _frames(sample_ids, imu, counts, queries, visible, boxes)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier (PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT, _MASK32, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**32 - 1, 2**128 - 1


def _streams(seed: int, n: int):
    """One reused Generator, set in turn to the stream of
    np.random.default_rng((seed, i)) for i < n, with no half-word buffered."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state in _stream_states(seed, n):
        rng.bit_generator.state = state
        yield rng


def _stream_states(seed: int, n: int):
    """Yield the PCG64 state of np.random.default_rng((seed, i)) for each i < n <= 2**32:
    SeedSequence's pool mixing and generate_state(4, uint64) over every i at once
    in uint32 arrays, then PCG64's seeding in Python ints. numpy's RNG policy
    (NEP 19) keeps both fixed, and tests pin the states to default_rng's."""
    seed = int(seed)  # SeedSequence's entropy (seed, i) in 32-bit words, low first
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(n, word, np.uint32) for word in words] + [np.arange(n, dtype=np.uint32)]
    entropy += [np.zeros(n, np.uint32)] * (4 - len(entropy))  # pad to the 4-word pool
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src, dst in [(src, dst) for src in range(4) for dst in range(4) if src != dst]:
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in [(word, dst) for word in entropy[4:] for dst in range(4)]:
        pool[dst] = _mix(pool[dst], hashmix(word))  # entropy past the pool
    hashmix = _hashmix(_INIT_B, _MULT_B)
    halves = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    for s_hi, s_lo, q_hi, q_lo in zip(*[(halves[k] | halves[k + 1] << 32).tolist()
                                        for k in range(0, 8, 2)]):
        # pcg64_set_seed: state 0, inc = 2 * initseq + 1, step, add initstate, step.
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _hashmix(hash_const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; its running constant is a
    Python int, so no numpy scalar overflows."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    value = x * _MIX_L - y * _MIX_R
    return value ^ value >> 16


def _uniform(u, lo: float, hi: float):
    """Generator.uniform(lo, hi)'s own formula on the doubles `u` drawn by
    Generator.random(), so the same floats bit for bit; the width is taken
    before any int is converted, as Python's arithmetic on the scalars does."""
    return float(lo) + float(hi - lo) * u


def visible_rows(records) -> np.ndarray:
    """The (m_vis, 10) floats of each visible query of records, in order: its record's
    index, distance, bearing, pitch, roll, heading, then its box c_x, c_y, w, h."""
    return np.fromiter(chain.from_iterable(
        (i, query.distance_m, query.bearing_deg,
         record.imu.pitch_deg, record.imu.roll_deg, record.imu.heading_deg,
         label.c_x, label.c_y, label.w, label.h)
        for i, record in enumerate(records)
        for query, label in zip(record.queries, record.labels)
        if label.visible
    ), np.float64).reshape(-1, 10)


def visible_examples(records) -> tuple[np.ndarray, np.ndarray]:
    """(features, waterline targets) of every visible query, from visible_rows."""
    rows = visible_rows(records)
    return feature_matrix(*rows[:, 1:6].T), waterline_targets(rows[:, 6:])


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
    return DatasetSplit(train=train, val=val)


def save_dataset(frames: Frames, path) -> None:
    """Write Frames as JSONL from its columns, one line template per visibility
    pattern; float fields keep full 64-bit precision."""
    sample_ids = map(encode_basestring_ascii, frames.sample_id.tolist())
    imu, queries, boxes = (_json_numbers(a.ravel().tolist()) for a in (
        frames.imu, np.column_stack((frames.distance_m, frames.bearing_deg)), frames.boxes))
    offsets = frames.offsets.tolist()
    box_offsets = np.concatenate(([0], np.cumsum(frames.visible) * 4))[frames.offsets].tolist()
    patterns = frames.visible.tobytes()  # one byte, 0 or 1, per query
    templates = {}
    lines = []
    for i, sample_id in enumerate(sample_ids):
        start, end = offsets[i], offsets[i + 1]
        pattern = patterns[start:end]
        template = templates.get(pattern)
        if template is None:
            template = templates[pattern] = (
                _DATASET_HEAD + ",".join([_QUERY_ITEM] * len(pattern)) + '],"labels":['
                + ",".join([_LABEL_ITEMS[visible] for visible in pattern]) + "]}\n")
        lines.append(template % (sample_id, *imu[3 * i:3 * i + 3], *queries[2 * start:2 * end],
                                 *boxes[box_offsets[i]:box_offsets[i + 1]]))
    write_jsonl(path, lines)


def predict_lines(sample_id, query_index, decoder_query, features=None):
    """The `predict` output lines of the (m,) Frames.query_keys columns, the (m, 4)
    decoder queries and, for --emit-features, the (m, 6) features. Each float is
    formatted once: prediction repeats decoder_query[2:4], and decoder_query[0:2]
    are features 0 and 2."""
    query = list(map(_json_numbers, decoder_query.T.tolist()))
    columns = [map(encode_basestring_ascii, sample_id.tolist()), query_index.tolist(),
               query[2], query[3], *query]
    if features is None:
        return map((_PREDICT_LINE + "}\n").__mod__, zip(*columns))
    rest = list(map(_json_numbers, features[:, [1, 3, 4, 5]].T.tolist()))
    return map((_PREDICT_LINE + _FEATURES_END).__mod__,
               zip(*columns, query[0], rest[0], query[1], *rest[1:]))


def _json_numbers(values: list) -> list[str]:
    """Each finite float as json writes it: float.__repr__, numpy's float64 too
    (whose repr is np.float64(...))."""
    return list(map(float.__repr__, values))


def write_jsonl(path, lines) -> None:
    """Write lines of compact JSON, each ending in a newline, one at a time:
    the one JSONL writer, as _jsonl is the one reader."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def _jsonl(path, parse, label: str) -> list:
    """parse(value) for each non-blank line of a JSONL file; the one place that
    names a bad line. A line that is not UTF-8 JSON raises DatasetParseError, and
    a ValueError from `parse` (schema or range) becomes DatasetSchemaError. A
    missing file raises FileNotFoundError naming `label`, as load_json does."""
    try:
        f = open(path, "rb")  # decoded per line, so a bad byte is reported with its line
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"{label} not found: {path}") from exc
    values = []
    with f:
        for line_no, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                # json.loads(line) is this call once it has checked for a BOM and
                # skipped outer whitespace, which the line no longer has.
                try:
                    data, end = _RAW_DECODE(line)
                except (ValueError, RecursionError):
                    end = None
                if end != len(line):  # then json.loads raises its error for the line
                    data = json.loads(line)
            # bad UTF-8, JSONDecodeError, an over-long integer, or nesting too deep to decode
            except (ValueError, RecursionError) as exc:
                raise DatasetParseError(str(exc), line=line_no) from exc
            try:
                values.append(parse(data))
            except ValueError as exc:
                raise DatasetSchemaError(str(exc), line=line_no) from exc
    return values


def load_dataset(path) -> Frames:
    """Read a dataset file as columns; _record_from_dict is the line rule."""
    return _load_columns(path, "dataset", lambda data: data, _checked_frames, _record_from_dict)


def load_predictions(path) -> Detections:
    """Read a detector file, the input of `calibrate`, as columns.

    Line schema: {"schema": 1, "sample_id": str, "query_index": int,
    "logit": number, "box": {c_x, c_y, w, h}, "gt_visible": bool,
    "gt_box": {c_x, c_y, w, h} | null}. query_index is a non-negative
    integer, and no (sample_id, query_index) pair appears twice in a file.
    _check_prediction is the line rule.
    """
    seen = set()
    return _load_columns(path, "detector file", _detector_fields, _checked_columns,
                         lambda data: _check_prediction(data, seen))


def _load_columns(path, label: str, extract, columns, line_rule):
    """`columns` of each line's `extract` value: each rule checked once per column,
    a JSON integer loaded as the float it equals. If `columns` refuses them (None),
    `line_rule` runs over each line only to name the first bad one; a refusal no
    line rule repeats is a defect here, not in the file."""
    loaded = columns(_jsonl(path, extract, label))
    if loaded is None:
        _jsonl(path, line_rule, label)
        raise AssertionError(f"{path}: the column checks refused a file that every line rule keeps")
    return loaded


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
    breaks a rule of _check_prediction."""
    if None in rows:
        return None
    cols = list(zip(*rows)) or [()] * 13  # no rows: the 13 fields, empty
    schema, sample_id, query_index, visible = cols[0], cols[1], cols[2], cols[8]
    if rows and not (_types(schema) == {int} and set(schema) == {DETECTOR_SCHEMA}
                     and _types(sample_id) == {str}
                     and _types(query_index) == {int} and min(query_index) >= 0
                     and _types(visible) == {bool}
                     and all(_types(col) <= _NUMBER_TYPES for col in cols[3:8] + cols[9:])
                     and len(set(zip(sample_id, query_index))) == len(rows)):
        return None
    try:
        numbers = np.array(cols[3:8] + cols[9:], dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    visible = np.array(visible, dtype=bool)
    sizes = np.concatenate((numbers[3:5], numbers[7:, visible]), axis=1)
    if not (np.isfinite(numbers).all() and positive_size(*sizes).all()):
        return None
    return Detections(logits=numbers[0], boxes=numbers[1:5].T, gt_visible=visible,
                      gt_boxes=numbers[5:].T)


def _types(column) -> set:
    return set(map(type, column))


_LINE_KEYS = operator.itemgetter("schema", "sample_id", "imu", "queries", "labels")
_IMU_KEYS = operator.itemgetter("pitch_deg", "roll_deg", "heading_deg")
_QUERY_KEYS = operator.itemgetter("distance_m", "bearing_deg")
_VISIBLE_KEY = operator.itemgetter("visible")


def _checked_frames(lines) -> Frames | None:
    """The Frames of decoded dataset lines, or None if a column lacks a key or
    an object or breaks a rule of _record_from_dict."""
    if not lines:
        return _frames((), (), (), (), (), ())
    try:
        schema, sample_id, imu, queries, labels = zip(*map(_LINE_KEYS, lines))
        if _types(queries + labels) != {list}:  # before a dict's keys are iterated
            return None
        imu = list(chain.from_iterable(map(_IMU_KEYS, imu)))
        counts = list(map(len, queries))
        aligned = counts == list(map(len, labels))
        query_values = list(chain.from_iterable(map(_QUERY_KEYS, chain.from_iterable(queries))))
        labels = list(chain.from_iterable(labels))
        visible = list(map(_VISIBLE_KEY, labels))
        box_values = list(chain.from_iterable(map(_BOX_KEYS, compress(labels, visible))))
    except (KeyError, TypeError):  # a missing key, or a value that is not an object
        return None
    if not (aligned and _types(schema) == {int} and set(schema) == {SCHEMA_VERSION}
            and _types(sample_id) == {str}
            and _types(imu + query_values + box_values) <= _NUMBER_TYPES
            and _types(visible) <= {bool}):
        return None
    try:
        frames = _frames(sample_id, imu, counts, query_values, visible, box_values)
    except OverflowError:  # an integer beyond the float range
        return None
    heading = frames.imu[:, 2]
    if not np.isfinite(heading).all():  # before the wrap, which would make it NaN
        return None
    heading[:] = wrap_angle_deg(heading)
    # Each range holds only for finite values (a comparison with NaN is false),
    # so it is its field's finiteness check too.
    in_range = (
        PITCH_ROLL_DEG.holds(frames.imu[:, :2]).all()
        and DISTANCE_M.holds(frames.distance_m).all()
        and ANGLE_DEG.holds(frames.bearing_deg).all()
        and positive_size(*frames.boxes[:, 2:].T).all()
        and inside_frame(*frames.boxes.T).all()
    )
    return frames if in_range else None


def _frames(sample_id, imu, counts, queries, visible, boxes) -> Frames:
    """Frames of the given values: per frame its sample_id, its (pitch, roll,
    heading) and its query count; per query its (distance, bearing) and
    visible flag; per visible query its box. Each number sequence may also be
    flat; an integer beyond the float range raises OverflowError."""
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
    return Frames(
        sample_id=np.array(sample_id, dtype=object),
        imu=np.asarray(imu, dtype=np.float64).reshape(-1, 3),
        offsets=offsets,
        distance_m=queries[:, 0],
        bearing_deg=queries[:, 1],
        visible=np.asarray(visible, dtype=bool),
        boxes=np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
    )


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
    if not positive_size(w, h):
        raise DatasetSchemaError(
            f"{key!r} must have positive width and height, got w={w!r}, h={h!r}"
        )
    return c_x, c_y, w, h


def _check_prediction(data, seen: set) -> None:
    """Raise at the first rule of a detector file that line `data` breaks,
    with its message; a (sample_id, query_index) pair already in `seen`
    breaks one. Adds the line's pair to `seen`."""
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
    _number(data, "logit")
    _box(_require(data, "box"), "box")
    gt_visible = _require(data, "gt_visible")
    if not isinstance(gt_visible, bool):
        raise DatasetSchemaError("'gt_visible' must be a boolean")
    if gt_visible:
        gt_box = data.get("gt_box")
        if not isinstance(gt_box, dict):
            raise DatasetSchemaError("visible ground truth requires a 'gt_box' object")
        _box(gt_box, "gt_box")
    key = (sample_id, query_index)
    if key in seen:
        raise DatasetSchemaError(f"duplicate sample_id and query_index {key!r}")
    seen.add(key)


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
