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
  - adamw_reference: the AdamW update as a loop over named tensors, instead
    of one pass over the flat parameter vector.
  - exact_report / exact_sweep: detection scoring in exact rational
    arithmetic (fractions.Fraction) with plain loops.
  - constant_predictor_loss: the no-skill baseline for learnability checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.spatial.transform import Rotation

from waterline.network import BN_EPS, N_HIDDEN, forward, smooth_l1
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

    def loss():
        pred, _ = forward(work, x, training=True, dropout_p=0.0, dropout_seed=0)
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


def exact_sigmoid_above(logit: float, bias: float, threshold: float) -> bool:
    """Strict sigmoid(logit + bias) > threshold, float arithmetic."""
    return math_sigmoid(logit + bias) > threshold


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


def exact_report_from_queries(predictions, gts, bias, threshold):
    """exact_report driven by raw logits/boxes, mirroring the public inputs."""
    pred_visible = [
        exact_sigmoid_above(p.objectness_logit, bias, threshold) for p in predictions
    ]
    gt_visible = [g.visible for g in gts]
    ious = [
        exact_iou(p.box, g.box) if pv and g.visible else Fraction(0)
        for p, g, pv in zip(predictions, gts, pred_visible)
    ]
    return exact_report(pred_visible, gt_visible, ious)


def exact_sweep(predictions, gts, biases, threshold):
    """Brute-force bias sweep; returns (best_bias, best_overall, curve)."""
    best_bias = None
    best_overall = Fraction(-1)
    curve = []
    for bias in biases:
        report = exact_report_from_queries(predictions, gts, bias, threshold)
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
