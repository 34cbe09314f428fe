"""Independent reference implementations used to verify the package.

Each oracle deliberately takes a different computational route than the code
it checks:

  - raytrace_pixel: inverse ray casting (numeric root-find of the pixel whose
    water-plane intersection hits the buoy) with scipy's rotation machinery,
    instead of the forward point-transform-and-divide projection.
  - fd_gradients: central finite differences through the full train-mode
    forward pass, instead of analytic backprop.
  - unfolded_eval_forward: BatchNorm as a separate normalization step after
    each affine map, instead of folded into the affine maps.
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
  - constant_predictor_loss: the no-skill baseline for learnability checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.spatial.transform import Rotation

from waterline.data import MIN_BOX_PX, SampleRecord, default_bearing_range
from waterline.errors import ConfigError, GenerationError
from waterline.features import (
    ChartQuery, ImuSample, build_decoder_query, build_features, wrap_angle_deg,
)
from waterline.geometry import DEPTH_EPS_M
from waterline.metrics import DetectionReport, GtBox, f1_from_pr, overall_score
from waterline.network import (
    BN_EPS,
    BN_MOMENTUM,
    N_HIDDEN,
    Gradients,
    TrainWorkspace,
    forward,
    sigmoid,
    smooth_l1,
    smooth_l1_grad,
)
from waterline.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def raytrace_pixel(camera, imu, query, tol_scale=1e-10):
    """Pixel whose camera ray intersects the water plane at the buoy position.

    Solves the inverse problem by damped Newton iteration on the ray/plane
    intersection residual, multi-started around a coarse horizon guess.
    Returns (u, v) or None if no downward ray reaches the target.
    """
    rot = Rotation.from_euler(
        "ZXY", [-imu.heading_deg, imu.pitch_deg, imu.roll_deg], degrees=True
    ).as_matrix()
    azimuth = math.radians(imu.heading_deg + query.bearing_deg)
    target = np.array(
        [query.distance_m * math.sin(azimuth), query.distance_m * math.cos(azimuth)]
    )
    h, f = camera.mount_height_m, camera.focal_px

    def residual(uv):
        u, v = uv
        dir_cam = np.array([(u - camera.principal_u) / f, (v - camera.principal_v) / f, 1.0])
        dir_body = np.array([dir_cam[0], dir_cam[2], -dir_cam[1]])
        dir_ref = rot @ dir_body
        if dir_ref[2] >= -1e-15:
            return None  # ray does not descend to the water plane
        t = -h / dir_ref[2]
        return t * dir_ref[:2] - target

    tol = tol_scale * max(1.0, query.distance_m)
    u0 = camera.principal_u + f * math.tan(math.radians(query.bearing_deg))
    v0 = (
        camera.principal_v
        + f * math.tan(math.radians(imu.pitch_deg))
        + f * h / query.distance_m
    )
    for dv in (0.0, 10, -10, 40, -40, 120, -120, 300, -300, 700, -700, 1500):
        x = np.array([u0, v0 + dv])
        res = residual(x)
        if res is None:
            continue
        converged = False
        for _ in range(60):
            if np.abs(res).max() <= tol:
                converged = True
                break
            jac = np.empty((2, 2))
            hstep = 1e-4
            bad = False
            for j in range(2):
                xp = x.copy()
                xp[j] += hstep
                xm = x.copy()
                xm[j] -= hstep
                rp, rm = residual(xp), residual(xm)
                if rp is None or rm is None:
                    bad = True
                    break
                jac[:, j] = (rp - rm) / (2 * hstep)
            if bad:
                break
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                break
            scale = 1.0
            for _ in range(30):
                cand = x - scale * step
                rc = residual(cand)
                if rc is not None and np.abs(rc).max() < np.abs(res).max():
                    x, res = cand, rc
                    break
                scale *= 0.5
            else:
                break
        if converged:
            return float(x[0]), float(x[1])
    return None


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
