"""Output checks of the benchmark. A failed check counts its operation as failed."""

from __future__ import annotations

import math
import re

import numpy as np

# Served predictions come from 1-3 row forwards; the reference is one
# whole-set forward. Only the BLAS blocking differs, so they agree far
# inside this absolute tolerance on normalized coordinates.
PREDICTION_TOL = 1e-9

# The decoder query is [d/1000, bearing/180, c_x, c_y + h/2]; the scales are
# restated here, not imported, so that a changed constant in the package
# fails the check.
DIST_SCALE_M = 1000.0
BEARING_SCALE_DEG = 180.0


def serve_frame_ok(queries, pred, decoder_queries, reference) -> bool:
    """One served frame: every decoder query is [d/1000, bearing/180, pred] and
    the predictions match the whole-set eval-mode forward within PREDICTION_TOL."""
    n = len(queries)
    if pred is None or np.shape(pred) != (n, 2) or len(decoder_queries) != n:
        return False
    if not np.all(np.abs(pred - reference) <= PREDICTION_TOL):
        return False
    for query, row, dq in zip(queries, pred, decoder_queries):
        expected = [query.distance_m / DIST_SCALE_M, query.bearing_deg / BEARING_SCALE_DEG,
                    row[0], row[1]]
        if not np.array_equal(dq, expected):
            return False
    return True


def train_job_ok(history, max_epochs: int) -> bool:
    """A fixed-epoch training job: every loss finite, stopped by max-epochs."""
    if history.stop_reason != "max-epochs" or len(history.epochs) != max_epochs:
        return False
    return all(math.isfinite(e.train_loss) and math.isfinite(e.val_loss) for e in history.epochs)


_VERIFY_OK = re.compile(r"^verify: max \|label - projection\| = \S+ \(normalized\), OK$", re.M)


def gen_counts(stdout: str) -> int | None:
    """Chart queries `gen` reports, or None when its --verify check did not pass."""
    if not _VERIFY_OK.search(stdout):
        return None
    visible = re.search(r"^visible queries: (\d+)$", stdout, re.M)
    invisible = re.search(r"^invisible queries: (\d+)$", stdout, re.M)
    if visible is None or invisible is None:
        return None
    return int(visible.group(1)) + int(invisible.group(1))


def predict_ok(stdout: str, rows_in_file: int, n_queries: int) -> bool:
    """`predict` wrote and reported one row per chart query."""
    reported = re.search(r"^queries predicted: (\d+)$", stdout, re.M)
    return reported is not None and int(reported.group(1)) == rows_in_file == n_queries


def calibration_ok(best_bias: float, injected_shift: float, step: float) -> bool:
    """The sweep undoes the injected logit shift to within one grid step."""
    return abs(best_bias + injected_shift) <= step + 1e-12
