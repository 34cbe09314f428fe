"""Independent reference implementations used to verify the package.

Each oracle deliberately takes a different computational route than the code
it checks:

  - raytrace_pixel: inverse ray casting (bracketing root-finds of the ray,
    rotated by scipy's rotation machinery, that points at the buoy, checked by
    its water-plane intersection), instead of the forward
    point-transform-and-divide projection.
  - fd_gradients: central finite differences through the full train-mode
    forward pass, instead of analytic backprop.
  - unfolded_eval_forward: BatchNorm as a separate normalization step after
    each affine map, instead of folded into the affine maps.
  - single_pass_eval_forward: the folded eval forward over every row at once,
    instead of in blocks of network.EVAL_BLOCK_ROWS rows.
  - separate_bias_eval_forward: the folded eval forward over every row at
    once with each bias added after its product, a @ W' + b', instead of
    inside the augmented maps.
  - unfused_train_forward / unfused_backward: the train step with every
    BatchNorm stage as its own fresh array, a cached boolean ReLU mask and
    BatchNorm's backward through dxhat, instead of in-place buffers and the
    closed form.
  - adamw_reference: the AdamW update as a loop over named tensors, instead
    of one pass over the flat parameter vector.
  - exact_report / exact_sweep: detection scoring in exact rational
    arithmetic (fractions.Fraction) with plain loops.
  - scalar_detection_report / scalar_iou: detection scoring as one float
    loop over the rows with a scalar math sigmoid and a scalar IoU, instead
    of one decision vector per bias and array IoUs reused across the sweep.
  - orientation_matrix / matrix_project: the projection through the 3x3
    body-to-reference rotation and a numpy matrix-vector product, instead of
    two closed-form plane rotations.
  - scalar_project / scalar_generate: the projection and the dataset
    generator one query at a time in Python floats and the math module,
    instead of one array pass over every query.
  - per_frame_predict_rows: the `predict` rows from one eval forward per
    frame, instead of one forward over every query of the file.
  - write_json_lines / dataset_row / predict_row: each JSONL line as
    json.dumps(row, separators=(",", ":")) of a dict, instead of a line
    template filled with preformatted numbers and strings.
  - per_line_records / frames_of: a dataset file read line by line into
    records, each rule checked as the line's values are built, then put in
    columns with plain loops, instead of each rule checked once per column.
  - record_split / record_visible_examples: the train/val split over a list
    of records, by index sets, and the visible queries gathered record by
    record and query by query, instead of a frame mask and Frames columns.
  - write_repr_csv: a CSV file with each float passed through repr by hand,
    as each CSV writer did before, instead of csv's own float formatting.
  - constant_predictor_loss: the no-skill baseline for learnability checks.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import numpy as np
from scipy.spatial.transform import Rotation

from waterline.data import (
    MIN_BOX_PX, PREDICT_SCHEMA, SCHEMA_VERSION, DatasetSplit, Frames, SampleRecord, _jsonl,
    _record_from_dict, default_bearing_range,
)
from waterline.errors import ConfigError, GenerationError
from waterline.features import (
    ChartQuery, ImuSample, build_decoder_query, build_features, feature_matrix, waterline_targets,
    wrap_angle_deg,
)
from waterline.geometry import DEPTH_EPS_M
from waterline.metrics import DetectionReport, GtBox, f1_from_pr, overall_score
from waterline.network import (
    BN_EPS,
    BN_MOMENTUM,
    N_HIDDEN,
    Gradients,
    TrainWorkspace,
    _fold,
    forward,
    sigmoid,
    smooth_l1,
    smooth_l1_grad,
)
from waterline.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def raytrace_pixel(camera, imu, query, tol_scale=1e-10):
    """Pixel whose camera ray intersects the water plane at the buoy position.

    Solves the inverse problem with two bracketing bisections over ray
    angles in the camera frame, each ray rotated to the reference frame by
    scipy. First the horizontal angle theta in (-90, 90) deg: the rays
    x/z = tan(theta) span a plane, and the buoy's direction crosses it once,
    from one side to the other, as theta sweeps the field. Then, within that
    plane, the angle below the optical axis at which the ray points at the
    buoy. Returns (u, v), or None if the buoy is not in front of the camera
    or the ray's water-plane intersection misses it by more than the
    tolerance.
    """
    rot = Rotation.from_euler(
        "ZXY", [-imu.heading_deg, imu.pitch_deg, imu.roll_deg], degrees=True
    ).as_matrix()
    azimuth = math.radians(imu.heading_deg + query.bearing_deg)
    target = np.array(
        [query.distance_m * math.sin(azimuth), query.distance_m * math.cos(azimuth)]
    )
    h, f = camera.mount_height_m, camera.focal_px
    toward = np.array([*target, -h])  # from the camera to the buoy, reference frame

    def to_ref(x_cam, y_cam, z_cam):  # camera (right, down, forward) to reference
        return rot @ np.array([x_cam, z_cam, -y_cam])

    def bisect(side, lo, hi):
        """The angle in [lo, hi] where side() changes from negative to positive."""
        if not side(lo) < 0 < side(hi):
            return None
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if side(mid) < 0 else (lo, mid)
        return mid

    # The plane of theta has camera normal (-cos theta, 0, sin theta).
    theta = bisect(lambda t: toward @ to_ref(-math.cos(t), 0.0, math.sin(t)),
                   -math.pi / 2, math.pi / 2)
    if theta is None:
        return None  # the buoy is behind the camera plane
    # Within it, the ray cos(phi) a + sin(phi) b, a = (sin theta, 0, cos theta) and
    # b = (0, 1, 0) downward, has in-plane normal -sin(phi) a + cos(phi) b.
    phi = bisect(lambda p: -(toward @ to_ref(-math.sin(p) * math.sin(theta), math.cos(p),
                                             -math.sin(p) * math.cos(theta))),
                 -math.pi / 2, math.pi / 2)
    if phi is None:
        return None
    u = camera.principal_u + f * math.tan(theta)
    v = camera.principal_v + f * math.tan(phi) / math.cos(theta)

    dir_ref = to_ref((u - camera.principal_u) / f, (v - camera.principal_v) / f, 1.0)
    if dir_ref[2] >= -1e-15:
        return None  # the ray does not descend to the water plane
    miss = -h / dir_ref[2] * dir_ref[:2] - target
    if np.abs(miss).max() > tol_scale * max(1.0, query.distance_m):
        return None
    return u, v


def fd_gradients(params, x, target, step=1e-5):
    """Central finite differences of the train-mode loss w.r.t. every learnable.

    Dropout is disabled, matching backward's gradient-check contract. Works on
    a private copy so the caller's parameters (including running statistics)
    are untouched.
    """
    work = params.copy()
    workspace = TrainWorkspace(len(x))

    def loss():
        pred, _ = forward(
            work, x, training=True, dropout_p=0.0, dropout_seed=0, workspace=workspace
        )
        return smooth_l1(pred, target)

    grads = {}
    for name, arr in work.learnables().items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = loss()
            flat[i] = orig - step
            lm = loss()
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * step)
        grads[name] = g
    return grads


def math_sigmoid(z: float) -> float:
    """1 / (1 + exp(-z)) with math.exp, written as exp(z) / (1 + exp(z)) for
    z < 0 so that neither tail overflows."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def unfolded_eval_forward(params, x):
    """Eval-mode forward with BatchNorm applied as its own step after each
    affine map (running statistics), a ReLU by np.where, and a scalar sigmoid."""
    a = np.asarray(x, dtype=np.float64)
    for i in range(N_HIDDEN):
        z = a @ params.w[i]
        y = (z - params.bn_mean[i]) / np.sqrt(params.bn_var[i] + BN_EPS)
        y = y * params.bn_gain[i] + params.bn_bias[i]
        a = np.where(y > 0, y, 0.0)
    z_out = a @ params.w[-1] + params.b[-1]
    return np.vectorize(math_sigmoid)(z_out)


def single_pass_eval_forward(params, x):
    """Eval-mode forward through the augmented folded maps with (n, 129)
    activations: the folded statements run once over every row, through the
    plan's 129-column views."""
    weights, bias = (params._plan if params._plan is not None else _fold(params))[1]
    a = np.asarray(x, dtype=np.float64) @ weights[0]
    a += bias
    np.maximum(a, 0.0, out=a)
    for w in weights[1:-1]:
        a = a @ w
        np.maximum(a, 0.0, out=a)
    return sigmoid(a @ weights[-1])


def separate_bias_eval_forward(params, x):
    """Eval-mode forward through the folded maps W' = W * s and
    b' = shift - mean * s, each bias added after its product, over every row."""
    a = np.asarray(x, dtype=np.float64)
    for i in range(N_HIDDEN):
        s = params.bn_gain[i] / np.sqrt(params.bn_var[i] + BN_EPS)
        a = a @ (params.w[i] * s)
        a += params.bn_bias[i] - params.bn_mean[i] * s
        np.maximum(a, 0.0, out=a)
    return sigmoid(a @ params.w[-1] + params.b[-1])


def unfused_train_forward(params, x, dropout_p, dropout_seed):
    """Train-mode forward, one fresh array per BatchNorm stage; updates the
    running statistics in place like forward. Returns (pred, cache)."""
    rng = np.random.default_rng(dropout_seed) if dropout_p > 0 else None
    a = np.asarray(x, dtype=np.float64)
    layers = []
    for i in range(N_HIDDEN):
        z = a @ params.w[i]
        m = z.shape[0]
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (z - mu) * inv_std
        params.bn_mean[i] *= 1.0 - BN_MOMENTUM
        params.bn_mean[i] += BN_MOMENTUM * mu
        params.bn_var[i] *= 1.0 - BN_MOMENTUM
        params.bn_var[i] += BN_MOMENTUM * var * m / (m - 1)
        y = params.bn_gain[i] * xhat + params.bn_bias[i]
        relu_mask = y > 0
        a_next = y * relu_mask
        drop_mask = None
        if rng is not None and i == N_HIDDEN - 1:
            drop_mask = (rng.random(a_next.shape) >= dropout_p) / (1.0 - dropout_p)
            a_next = a_next * drop_mask
        layers.append(
            SimpleNamespace(
                x_in=a, xhat=xhat, inv_std=inv_std, relu_mask=relu_mask, drop_mask=drop_mask
            )
        )
        a = a_next
    pred = sigmoid(a @ params.w[-1] + params.b[-1])
    return pred, SimpleNamespace(layers=layers, out_in=a, pred=pred)


def unfused_backward(params, cache, target):
    """Gradients for an unfused_train_forward cache, with BatchNorm's
    backward written through dxhat = dy * gain:
    dz = inv_std / m * (m * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))."""
    grads = {}
    dpred = smooth_l1_grad(cache.pred, target)
    dz = dpred * cache.pred * (1.0 - cache.pred)
    grads["w4"] = cache.out_in.T @ dz
    grads["b4"] = dz.sum(axis=0)
    da = dz @ params.w[-1].T
    for i in reversed(range(N_HIDDEN)):
        layer = cache.layers[i]
        if layer.drop_mask is not None:
            da = da * layer.drop_mask
        dy = da * layer.relu_mask
        grads[f"bn{i + 1}_gain"] = (dy * layer.xhat).sum(axis=0)
        grads[f"bn{i + 1}_bias"] = dy.sum(axis=0)
        dxhat = dy * params.bn_gain[i]
        m = dxhat.shape[0]
        dz = (
            layer.inv_std
            / m
            * (m * dxhat - dxhat.sum(axis=0) - layer.xhat * (dxhat * layer.xhat).sum(axis=0))
        )
        grads[f"w{i + 1}"] = layer.x_in.T @ dz
        if i > 0:
            da = dz @ params.w[i].T
    return grads


def adamw_reference(tensors, grads, m, v, t, lr, weight_decay):
    """Step t (1-based) of AdamW over dicts of named tensors, in place.

    m and v hold one moment array per name. Decay is decoupled and applies
    to the weight matrices, the names starting with 'w'.
    """
    for name, theta in tensors.items():
        g = grads[name]
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = v[name] / (1.0 - ADAM_BETA2**t)
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if name.startswith("w"):
            update = update + weight_decay * theta
        theta -= lr * update


def pack_grads(grads: dict) -> Gradients:
    """Per-tensor gradients, as unfused_backward returns them or a test
    builds them, copied into the one vector that adamw_step takes."""
    packed = Gradients()
    assert grads.keys() == packed.keys()
    for name, g in grads.items():
        packed[name][...] = g
    return packed


def exact_sigmoid_above(logit: float, bias: float, threshold: float) -> bool:
    """Strict sigmoid(logit + bias) > threshold, float arithmetic."""
    return math_sigmoid(logit + bias) > threshold


def _rows(detections):
    """(logit, box, gt_visible, gt_box) of each row, as Python values."""
    return zip(*(column.tolist() for column in detections), strict=True)


def scalar_iou(a, b) -> float:
    """IoU of two center-format boxes in Python floats, one pair at a time."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    if aw <= 0 or ah <= 0 or bw <= 0 or bh <= 0:
        raise ValueError("iou requires boxes with positive width and height")
    ax1, ax2 = ax - aw / 2, ax + aw / 2
    ay1, ay2 = ay - ah / 2, ay + ah / 2
    bx1, bx2 = bx - bw / 2, bx + bw / 2
    by1, by2 = by - bh / 2, by + bh / 2
    ix = min(ax2, bx2) - max(ax1, bx1)
    iy = min(ay2, by2) - max(ay1, by1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def scalar_detection_report(detections, logit_bias=0.0, threshold=0.90):
    """detection_report as one float loop over the rows with math_sigmoid.

    math_sigmoid and the package's sigmoid can disagree by a few ulps, so a
    decision can differ from this reference only where sigmoid(logit + bias)
    lies within test_network's 1e-14 relative bound of the threshold.
    """
    tp = fp = fn = 0
    ious = []
    for logit, box, gt_visible, gt_box in _rows(detections):
        visible = math_sigmoid(logit + logit_bias) > threshold
        if visible and gt_visible:
            tp += 1
            ious.append(scalar_iou(box, gt_box))
        elif visible:
            fp += 1
        elif gt_visible:
            fn += 1
    if tp + fp == 0:
        precision = 1.0 if fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    f1 = f1_from_pr(precision, recall)
    miou = sum(ious) / len(ious) if ious else 0.0
    return DetectionReport(
        precision=precision,
        recall=recall,
        f1=f1,
        miou=miou,
        overall=overall_score(f1, miou),
        tp=tp,
        fp=fp,
        fn=fn,
    )


def orientation_matrix(imu: ImuSample) -> np.ndarray:
    """Body-to-reference rotation for the intrinsic sequence heading -> pitch -> roll.

    Columns are the body axes (starboard, forward, up) expressed in the
    reference frame. Orthonormal with determinant +1.
    """
    psi = math.radians(imu.heading_deg)
    theta = math.radians(imu.pitch_deg)
    phi = math.radians(imu.roll_deg)

    ch, sh = math.cos(psi), math.sin(psi)
    cp, sp = math.cos(theta), math.sin(theta)
    cr, sr = math.cos(phi), math.sin(phi)

    # Heading about up (z), compass sense (clockwise seen from above).
    r_head = np.array([[ch, sh, 0.0], [-sh, ch, 0.0], [0.0, 0.0, 1.0]])
    # Pitch about starboard (x), positive bow-up.
    r_pitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    # Roll about forward (y), positive starboard-down.
    r_roll = np.array([[cr, 0.0, sr], [0.0, 1.0, 0.0], [-sr, 0.0, cr]])

    return r_head @ r_pitch @ r_roll


def matrix_project(camera, imu, query):
    """project through the body-to-reference matrix at heading 0, transposed
    and applied to the buoy offset by numpy; (u, v), or None at or behind
    the image plane."""
    query.validate()
    imu.validate()
    beta = math.radians(query.bearing_deg)
    p_rel = np.array(
        [
            query.distance_m * math.sin(beta),
            query.distance_m * math.cos(beta),
            -camera.mount_height_m,
        ]
    )
    r = orientation_matrix(
        ImuSample(pitch_deg=imu.pitch_deg, roll_deg=imu.roll_deg, heading_deg=0.0)
    )
    p_body = r.T @ p_rel
    x_cam, y_cam, z_cam = p_body[0], -p_body[2], p_body[1]
    if z_cam <= DEPTH_EPS_M:
        return None
    u = camera.principal_u + camera.focal_px * x_cam / z_cam
    v = camera.principal_v + camera.focal_px * y_cam / z_cam
    return float(u), float(v)


def scalar_project(camera, imu, query):
    """The closed-form projection of one query in Python floats: (u, v), or
    None at or behind the image plane (depth <= DEPTH_EPS_M)."""
    beta = math.radians(query.bearing_deg)
    x = query.distance_m * math.sin(beta)
    y = query.distance_m * math.cos(beta)
    z = -camera.mount_height_m
    theta, phi = math.radians(imu.pitch_deg), math.radians(imu.roll_deg)
    cp, sp = math.cos(theta), math.sin(theta)
    cr, sr = math.cos(phi), math.sin(phi)
    y, z = cp * y + sp * z, cp * z - sp * y
    x, z = cr * x - sr * z, sr * x + cr * z
    if y <= DEPTH_EPS_M:
        return None
    u = camera.principal_u + camera.focal_px * x / y
    v = camera.principal_v - camera.focal_px * z / y
    return u, v


def scalar_generate(camera, config):
    """data.generate one query at a time: each query drawn, projected with
    scalar_project, boxed and labelled before the next is drawn."""

    def uniform(rng, lo, hi):  # Generator.uniform's formula on the same double
        return lo + (hi - lo) * rng.random()

    def clamp_90(angle):
        return min(max(angle, -90.0), 90.0)

    bearing_range = config.bearing_range_deg or default_bearing_range(camera)
    if not all(math.isfinite(float(hi) - float(lo))
               for lo, hi in (config.heading_range_deg, bearing_range)):
        raise ConfigError("heading and bearing ranges must have a finite width")
    records = []
    visible_total = 0
    for i in range(config.n_samples):
        rng = np.random.default_rng((config.seed, i))
        pitch = uniform(rng, *config.pitch_range_deg)
        roll = uniform(rng, *config.roll_range_deg)
        heading = uniform(rng, *config.heading_range_deg)
        true_imu = ImuSample(
            pitch_deg=pitch, roll_deg=roll, heading_deg=wrap_angle_deg(heading)
        )
        qlo, qhi = config.queries_per_sample
        n_queries = int(rng.integers(qlo, qhi + 1))

        queries = []
        labels = []
        for _ in range(n_queries):
            d = uniform(rng, *config.distance_range_m)
            bearing = uniform(rng, *bearing_range)
            true_query = ChartQuery(distance_m=d, bearing_deg=wrap_angle_deg(bearing))

            pixel = scalar_project(camera, true_imu, true_query)
            visible = (pixel is not None and 0.0 <= pixel[0] < camera.image_w
                       and 0.0 <= pixel[1] < camera.image_h)

            h_px = min(max(config.box_height_coeff / d, MIN_BOX_PX), camera.image_h / 2)
            w_px = config.box_aspect * h_px
            w_norm = w_px / camera.image_w
            h_norm = h_px / camera.image_h

            du = rng.normal(0.0, config.label_noise_px)
            dv = rng.normal(0.0, config.label_noise_px)
            drop = rng.random() < config.visibility_dropout

            if visible:
                c_x = pixel[0] / camera.image_w
                c_y = pixel[1] / camera.image_h - h_norm / 2
                fits = (
                    c_x - w_norm / 2 >= 0
                    and c_x + w_norm / 2 <= 1
                    and c_y - h_norm / 2 >= 0
                    and c_y + h_norm / 2 <= 1
                )
                visible = fits and not drop

            if visible and config.label_noise_px > 0:
                u = min(max(pixel[0] + du, w_px / 2), camera.image_w - w_px / 2)
                v = min(max(pixel[1] + dv, h_px), float(camera.image_h))
                c_x = u / camera.image_w
                c_y = v / camera.image_h - h_norm / 2

            if visible:
                labels.append(GtBox(visible=True, c_x=c_x, c_y=c_y, w=w_norm, h=h_norm))
                visible_total += 1
            else:
                labels.append(GtBox(visible=False))

            rec_d = max(d * (1.0 + rng.normal(0.0, config.distance_noise_rel)), 1e-3)
            rec_bearing = wrap_angle_deg(
                true_query.bearing_deg + rng.normal(0.0, config.bearing_noise_deg)
            )
            queries.append(ChartQuery(distance_m=rec_d, bearing_deg=rec_bearing))

        rec_imu = ImuSample(
            pitch_deg=clamp_90(pitch + rng.normal(0.0, config.pitch_noise_deg)),
            roll_deg=clamp_90(roll + rng.normal(0.0, config.roll_noise_deg)),
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


def per_frame_predict_rows(records, params):
    """(sample_id, query_index, prediction, decoder_query, features) of every
    chart query, each frame's queries through their own eval forward."""
    rows = []
    for record in records:
        if not record.queries:
            continue
        feats = np.stack([build_features(q, record.imu) for q in record.queries])
        pred, _ = forward(params, feats, training=False)
        for qi, query in enumerate(record.queries):
            point = (float(pred[qi, 0]), float(pred[qi, 1]))
            decoder_query = [float(v) for v in build_decoder_query(query, point)]
            rows.append((record.sample_id, qi, point, decoder_query,
                         [float(v) for v in feats[qi]]))
    return rows


def write_json_lines(path, rows) -> None:
    """Write each row as compact json.dumps text and a newline."""
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")


def write_repr_csv(path, header, rows) -> None:
    """Write a header and rows with csv, each float in a row written as repr(x)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def dataset_row(record) -> dict:
    """A record's dataset line as a dict."""
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
        "labels": [
            {"visible": True, "c_x": label.c_x, "c_y": label.c_y, "w": label.w, "h": label.h}
            if label.visible else {"visible": False}
            for label in record.labels
        ],
    }


def predict_row(sample_id, query_index, features, point, emit_features) -> dict:
    """A `predict` output line as a dict, its decoder query built from the
    six features and the predicted point."""
    row = {
        "schema": PREDICT_SCHEMA,
        "sample_id": sample_id,
        "query_index": query_index,
        "prediction": {"c_x": point[0], "c_y_plus_half_h": point[1]},
        "decoder_query": [features[0], features[2], point[0], point[1]],
    }
    if emit_features:
        row["features"] = list(features)
    return row


def per_line_records(path) -> list:
    """A dataset file's records, each line through the per-line rules of
    data._record_from_dict."""
    return _jsonl(path, _record_from_dict, "dataset")


def frames_of(records) -> Frames:
    """The Frames of records, one value at a time."""
    sample_id, imu, offsets, distance, bearing, visible, boxes = [], [], [0], [], [], [], []
    for record in records:
        sample_id.append(record.sample_id)
        imu.append([record.imu.pitch_deg, record.imu.roll_deg, record.imu.heading_deg])
        offsets.append(offsets[-1] + len(record.queries))
        for query, label in zip(record.queries, record.labels, strict=True):
            distance.append(query.distance_m)
            bearing.append(query.bearing_deg)
            visible.append(label.visible)
            if label.visible:
                boxes.append(list(label.box))
    return Frames(
        sample_id=np.array(sample_id, dtype=object),
        imu=np.array(imu, dtype=np.float64).reshape(-1, 3),
        offsets=np.array(offsets, dtype=np.int64),
        distance_m=np.array(distance, dtype=np.float64),
        bearing_deg=np.array(bearing, dtype=np.float64),
        visible=np.array(visible, dtype=bool),
        boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4),
    )


def record_split(records, ratio: float, seed: int) -> DatasetSplit:
    """data.split over a list of records: the same strata, largest-remainder
    quotas and default_rng((seed, j)) permutations, kept as index sets; the
    halves are tuples of records."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    records = list(records)
    n = len(records)
    if n < 2:
        raise ValueError("need at least 2 records to split")
    n_train = min(max(int(round(ratio * n)), 1), n - 1)
    strata = [
        [i for i, r in enumerate(records) if not r.queries],
        [i for i, r in enumerate(records) if r.queries],
    ]
    strata = [s for s in strata if s]
    quotas = [n_train * len(s) / n for s in strata]
    takes = [int(math.floor(q)) for q in quotas]
    remainders = sorted(range(len(strata)), key=lambda j: (-(quotas[j] - takes[j]), j))
    for j in remainders[:n_train - sum(takes)]:
        takes[j] += 1
    train_idx = set()
    for j, stratum in enumerate(strata):
        order = np.random.default_rng((seed, j)).permutation(len(stratum))
        train_idx.update(stratum[k] for k in order[: takes[j]])
    return DatasetSplit(train=tuple(records[i] for i in range(n) if i in train_idx),
                        val=tuple(records[i] for i in range(n) if i not in train_idx))


def record_visible_examples(records) -> tuple[np.ndarray, np.ndarray]:
    """(features, waterline targets) of every visible query of records, from
    the (m_vis, 10) rows of its record's index, distance, bearing, pitch,
    roll, heading and box c_x, c_y, w, h, gathered query by query."""
    rows = np.fromiter(chain.from_iterable(
        (i, query.distance_m, query.bearing_deg,
         record.imu.pitch_deg, record.imu.roll_deg, record.imu.heading_deg,
         label.c_x, label.c_y, label.w, label.h)
        for i, record in enumerate(records)
        for query, label in zip(record.queries, record.labels)
        if label.visible
    ), np.float64).reshape(-1, 10)
    return feature_matrix(*rows[:, 1:6].T), waterline_targets(rows[:, 6:])


def exact_iou(a, b) -> Fraction:
    """IoU of two center-format boxes in exact rational arithmetic."""
    ax, ay, aw, ah = (Fraction(v) for v in a)
    bx, by, bw, bh = (Fraction(v) for v in b)
    ix = min(ax + aw / 2, bx + bw / 2) - max(ax - aw / 2, bx - bw / 2)
    iy = min(ay + ah / 2, by + bh / 2) - max(ay - ah / 2, by - bh / 2)
    if ix <= 0 or iy <= 0:
        return Fraction(0)
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def exact_report(pred_visible, gt_visible, pair_ious):
    """Per-query detection scoring with plain loops and Fractions.

    pair_ious[i] is consulted only when query i is both predicted and
    actually visible. Returns a dict of Fractions plus integer counts.
    """
    tp = fp = fn = 0
    kept = []
    for i in range(len(pred_visible)):
        if pred_visible[i] and gt_visible[i]:
            tp += 1
            kept.append(Fraction(pair_ious[i]))
        elif pred_visible[i] and not gt_visible[i]:
            fp += 1
        elif not pred_visible[i] and gt_visible[i]:
            fn += 1
    if tp + fp == 0:
        precision = Fraction(1) if fn == 0 else Fraction(0)
    else:
        precision = Fraction(tp, tp + fp)
    if tp + fn == 0:
        recall = Fraction(1) if fp == 0 else Fraction(0)
    else:
        recall = Fraction(tp, tp + fn)
    if precision + recall == 0:
        f1 = Fraction(0)
    else:
        f1 = 2 * precision * recall / (precision + recall)
    miou = sum(kept, Fraction(0)) / len(kept) if kept else Fraction(0)
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "miou": miou,
        "overall": (f1 + miou) / 2,
    }


def exact_report_from_queries(detections, bias, threshold):
    """exact_report driven by raw logits/boxes, row by row from the columns."""
    pred_visible = []
    gt_visible = []
    ious = []
    for logit, box, gt, gt_box in _rows(detections):
        pv = exact_sigmoid_above(logit, bias, threshold)
        pred_visible.append(pv)
        gt_visible.append(gt)
        ious.append(exact_iou(box, gt_box) if pv and gt else Fraction(0))
    return exact_report(pred_visible, gt_visible, ious)


def exact_sweep(detections, biases, threshold):
    """Brute-force bias sweep; returns (best_bias, best_overall, curve)."""
    best_bias = None
    best_overall = Fraction(-1)
    curve = []
    for bias in biases:
        report = exact_report_from_queries(detections, bias, threshold)
        curve.append((bias, report))
        if report["overall"] > best_overall:
            best_overall = report["overall"]
            best_bias = bias
    return best_bias, best_overall, curve


def constant_predictor_loss(targets) -> float:
    """SmoothL1 loss of always predicting the target mean (the no-skill bar)."""
    targets = np.asarray(targets, dtype=np.float64)
    mean = targets.mean(axis=0)
    pred = np.broadcast_to(mean, targets.shape)
    return smooth_l1(pred, targets)
