import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import detections, miscalibrated_instance
from oracles import exact_report_from_queries, exact_sweep, scalar_detection_report, scalar_iou
from waterline.errors import write_csv
from waterline.metrics import (
    MAX_GRID_POINTS,
    DetectionReport,
    GtBox,
    bias_grid,
    calibrate_bias,
    detection_report,
    error_stats,
    f1_from_pr,
    inside_frame,
    iou,
    overall_score,
    pixel_error,
    pixel_errors,
    positive_size,
)

VISIBLE = 30.0  # saturated logits: sigmoid ~ 1
HIDDEN = -30.0


def _row(visible, box=(0.5, 0.5, 0.2, 0.2), gt=None):
    """A detector row (logit, box, gt_box) whose decision is `visible` at
    every bias of the default grid; gt None: the buoy is not visible."""
    return (VISIBLE if visible else HIDDEN, box, gt)


class TestGtBoxValidate:
    def test_accepts_box_inside_frame(self):
        GtBox(True, 0.5, 0.5, 0.2, 0.2).validate()
        GtBox(False, math.nan).validate()  # box fields of an invisible label are unused

    @pytest.mark.parametrize("field", ["c_x", "c_y", "w", "h"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_field(self, field, value):
        box = dict(visible=True, c_x=0.5, c_y=0.5, w=0.2, h=0.2)
        box[field] = value
        with pytest.raises(ValueError, match="non-finite"):
            GtBox(**box).validate()


def test_box_rules_are_elementwise_and_false_for_nan():
    """positive_size and inside_frame on arrays equal their scalar answers,
    and a NaN field breaks both."""
    boxes = [(0.5, 0.5, 0.2, 0.2), (0.0999995, 0.5, 0.2, 0.2), (0.0999, 0.5, 0.2, 0.2),
             (0.5, 0.5, 0.0, 0.2), (0.5, 0.5, -0.1, 0.2), (math.nan, 0.5, 0.2, 0.2),
             (0.5, 0.5, 0.2, math.nan)]
    columns = np.array(boxes).T
    assert positive_size(*columns[2:]).tolist() == [positive_size(*b[2:]) for b in boxes]
    assert inside_frame(*columns).tolist() == [inside_frame(*b) for b in boxes]
    assert [positive_size(*b[2:]) and inside_frame(*b) for b in boxes] == [
        True, True, False, False, False, False, False]


class TestPixelError:
    def test_zero_at_match(self):
        assert pixel_error((0.5, 0.5), (0.5, 0.5), 960, 540) == 0.0

    def test_horizontal_offset(self):
        assert pixel_error((0.6, 0.5), (0.5, 0.5), 960, 540) == pytest.approx(96.0, rel=1e-12)

    def test_diagonal_offset(self):
        got = pixel_error((0.55, 0.55), (0.5, 0.5), 960, 540)
        assert got == pytest.approx(math.hypot(48.0, 27.0), rel=1e-12)
        assert got == pytest.approx(55.0726792520575, rel=1e-12)

    def test_whole_set_form_bit_equal_to_per_row(self, rng):
        pred = rng.uniform(0.0, 1.0, size=(500, 2))
        targets = rng.uniform(0.0, 1.0, size=(500, 2))
        targets[:5] = pred[:5]  # zero error
        got = pixel_errors(pred, targets, 960, 540)
        assert got == [pixel_error(p, t, 960, 540) for p, t in zip(pred, targets)]
        assert all(type(e) is float for e in got)


class TestErrorStats:
    def test_singleton(self):
        s = error_stats([5.0])
        assert (s.median_px, s.mean_px, s.p90_px, s.n) == (5.0, 5.0, 5.0, 1)

    def test_interpolated_median(self):
        s = error_stats([1.0, 2.0, 3.0, 4.0])
        assert s.median_px == 2.5
        assert s.mean_px == 2.5

    def test_p90_exact_index(self):
        s = error_stats([float(i) for i in range(101)])
        assert s.p90_px == 90.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            error_stats([])

    def test_median_not_above_p90(self, rng):
        for _ in range(25):
            values = rng.uniform(0, 100, size=rng.integers(1, 40))
            s = error_stats(values)
            assert s.median_px <= s.p90_px

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_permutation_invariant(self, values, seed):
        shuffled = list(values)
        np.random.default_rng(seed).shuffle(shuffled)
        assert error_stats(values) == error_stats(shuffled)


class TestIou:
    def test_identical(self):
        assert iou((0.5, 0.5, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2)) == 1.0

    def test_disjoint(self):
        assert iou((0.2, 0.2, 0.1, 0.1), (0.8, 0.8, 0.1, 0.1)) == 0.0

    def test_half_offset_is_one_third(self):
        got = iou((0.5, 0.5, 0.2, 0.2), (0.6, 0.5, 0.2, 0.2))
        assert got == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_touching_edges_is_zero(self):
        assert iou((0.3, 0.5, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2)) == 0.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            iou((0.5, 0.5, 0.0, 0.2), (0.5, 0.5, 0.2, 0.2))

    def test_arrays_bit_equal_to_scalar_pairs(self, rng):
        a = np.column_stack((rng.uniform(0.2, 0.8, (400, 2)), rng.uniform(0.05, 0.3, (400, 2))))
        b = np.column_stack((rng.uniform(0.2, 0.8, (400, 2)), rng.uniform(0.05, 0.3, (400, 2))))
        b[:3] = a[:3]  # identical
        b[3] = (a[3, 0] + a[3, 2], a[3, 1], a[3, 2], a[3, 3])  # touching edges
        got = iou(a, b)
        want = [scalar_iou(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert got.tolist() == want
        assert 0.0 in want and 1.0 in want and any(0.0 < v < 1.0 for v in want)
        assert [iou(x, y) for x, y in zip(a.tolist(), b.tolist())] == want

    def test_arrays_reject_any_degenerate_row(self):
        good = np.full((3, 4), 0.2)
        bad = good.copy()
        bad[2, 3] = 0.0
        with pytest.raises(ValueError, match="positive width and height"):
            iou(good, bad)

    def test_symmetric(self, rng):
        for _ in range(50):
            a = tuple(rng.uniform(0.2, 0.8, 2)) + tuple(rng.uniform(0.05, 0.3, 2))
            b = tuple(rng.uniform(0.2, 0.8, 2)) + tuple(rng.uniform(0.05, 0.3, 2))
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0


class TestScoreHelpers:
    def test_f1_reference_values(self):
        # leaderboard-style arithmetic reproduced to four decimals
        assert f1_from_pr(0.7970, 0.7912) == pytest.approx(0.7941, abs=5.0e-5)
        assert f1_from_pr(0.8627, 0.7761) == pytest.approx(0.8171, abs=5.0e-5)

    def test_overall_reference_values(self):
        assert overall_score(0.8055, 0.6718) == pytest.approx(0.7386, abs=5.01e-5)
        assert overall_score(0.8171, 0.6753) == pytest.approx(0.7462, abs=5.0e-5)
        assert overall_score(0.7941, 0.6445) == pytest.approx(0.7193, abs=5.0e-5)

    def test_f1_zero_when_both_zero(self):
        assert f1_from_pr(0.0, 0.0) == 0.0


class TestDetectionReport:
    def test_all_perfect(self):
        a, b = (0.4, 0.4, 0.2, 0.2), (0.7, 0.6, 0.1, 0.1)
        report = detection_report(detections([_row(True, a, a), _row(True, b, b), _row(False)]))
        assert report.precision == report.recall == report.f1 == 1.0
        assert report.miou == 1.0 and report.overall == 1.0
        assert (report.tp, report.fp, report.fn) == (2, 0, 0)

    def test_three_query_hand_instance(self):
        # 1 TP at IoU 0.5 (nested half-area box), 1 FP, 1 FN
        gt_box = (0.5, 0.5, 0.2, 0.2)
        tp_pred_box = (0.5, 0.5, 0.2, 0.1)
        report = detection_report(detections([
            _row(True, tp_pred_box, gt_box), _row(True), _row(False, gt=(0.2, 0.2, 0.1, 0.1)),
        ]))
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(0.5, rel=1e-12)
        assert report.miou == pytest.approx(0.5, rel=1e-12)
        assert report.overall == pytest.approx(0.5, rel=1e-12)

    def test_empty_denominator_conventions(self):
        # nothing predicted, nothing visible: vacuous success
        report = detection_report(detections([_row(False)]))
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.miou == 0.0 and report.overall == overall_score(report.f1, 0.0)
        # nothing predicted but a buoy was there
        report = detection_report(detections([_row(False, gt=(0.5, 0.5, 0.1, 0.1))]))
        assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0
        # prediction fired at an empty scene
        report = detection_report(detections([_row(True)]))
        assert report.precision == 0.0 and report.recall == 0.0

    def test_threshold_comparison_is_strict(self):
        # sigmoid(0) = 0.5 exactly: at threshold 0.5 the query must NOT fire
        box = (0.5, 0.5, 0.1, 0.1)
        report = detection_report(detections([(0.0, box, box)]), logit_bias=0.0, threshold=0.5)
        assert report.tp == 0 and report.fn == 1

    def test_bias_shifts_decision(self):
        logit = 1.0  # sigmoid(1) ~ 0.73 < 0.9, sigmoid(1 + 1.5) ~ 0.924 > 0.9
        box = (0.5, 0.5, 0.1, 0.1)
        rows = detections([(logit, box, box)])
        assert detection_report(rows, logit_bias=0.0).tp == 0
        assert detection_report(rows, logit_bias=1.5).tp == 1

    def test_length_mismatch(self):
        rows = detections([_row(True)])
        with pytest.raises(ValueError, match="detection columns must align"):
            detection_report(rows._replace(gt_visible=rows.gt_visible[:0]))

    def test_matches_exact_oracle_on_random_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            rows = []
            for _ in range(n):
                gt_visible = bool(rng.random() < 0.6)
                box = (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2)
                rows.append((
                    float(rng.normal(0, 4)),
                    (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.2),
                    box if gt_visible else None,
                ))
            bias = float(rng.uniform(-2, 2))
            report = detection_report(detections(rows), logit_bias=bias)
            oracle = exact_report_from_queries(detections(rows), bias, 0.90)
            assert (report.tp, report.fp, report.fn) == (
                oracle["tp"],
                oracle["fp"],
                oracle["fn"],
            )
            for key in ("precision", "recall", "f1", "miou", "overall"):
                assert abs(getattr(report, key) - float(oracle[key])) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.booleans(), st.floats(min_value=-6, max_value=6)),
            min_size=1,
            max_size=20,
        ),
        bias=st.floats(min_value=-3, max_value=3),
    )
    def test_tp_plus_fn_counts_visible_gts(self, data, bias):
        box = (0.5, 0.5, 0.1, 0.1)
        rows = detections([(logit, box, box if v else None) for v, logit in data])
        report = detection_report(rows, logit_bias=bias)
        assert report.tp + report.fn == sum(1 for v, _ in data if v)


class TestCalibrateBias:
    def test_default_grid_has_25_points(self):
        assert len(bias_grid(-3.0, 3.0, 0.25)) == 25
        assert bias_grid(-3.0, 3.0, 0.25)[0] == -3.0
        assert bias_grid(-3.0, 3.0, 0.25)[-1] == 3.0

    def test_fine_grid_has_241_points(self):
        assert len(bias_grid(-3.0, 3.0, 0.025)) == 241

    def test_no_predictions_is_an_error(self):
        with pytest.raises(ValueError, match="no predictions to calibrate on"):
            calibrate_bias(detections([]))

    def test_tie_break_prefers_zero(self):
        box = (0.5, 0.5, 0.1, 0.1)
        best, curve = calibrate_bias(detections([_row(True, box, box), _row(False)]))
        assert best == 0.0
        assert all(report.overall == 1.0 for _, report in curve)

    def test_curve_in_grid_order_and_best_beats_zero_bias(self, rng):
        best, curve = calibrate_bias(miscalibrated_instance(rng, shift=0.5))
        biases = [b for b, _ in curve]
        assert biases == bias_grid(-3.0, 3.0, 0.25)
        by_bias = dict(curve)
        assert by_bias[best].overall >= by_bias[0.0].overall

    def test_recovers_negative_bias_for_inflated_logits(self, rng):
        rows = miscalibrated_instance(rng, shift=0.5)
        best, curve = calibrate_bias(rows)
        assert best < 0.0
        # brute-force optimum on the 10x finer grid, exact arithmetic
        fine_best, fine_overall, _ = exact_sweep(rows, bias_grid(-3, 3, 0.025), 0.90)
        coarse_overall = dict(curve)[best].overall
        assert abs(best - fine_best) <= 0.25 + 1e-12
        assert float(fine_overall) - coarse_overall <= 0.25
        assert float(fine_overall) >= coarse_overall - 1e-12

    def test_every_grid_report_matches_exact_oracle(self, rng):
        rows = miscalibrated_instance(rng, shift=0.5, n=120)
        _, curve = calibrate_bias(rows)
        for bias, report in curve:
            oracle = exact_report_from_queries(rows, bias, 0.90)
            assert (report.tp, report.fp, report.fn) == (
                oracle["tp"],
                oracle["fp"],
                oracle["fn"],
            )
            assert abs(report.overall - float(oracle["overall"])) < 1e-12

    @pytest.mark.parametrize("step", [0.25, 0.01])  # 25 and 601 grid points
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_curve_bit_equal_to_scalar_reference(self, seed, step):
        rows = miscalibrated_instance(np.random.default_rng(seed), n=300)
        _, curve = calibrate_bias(rows, step=step)
        assert len(curve) == len(bias_grid(-3.0, 3.0, step))
        for bias, report in curve:
            assert report == scalar_detection_report(rows, bias, 0.90)

    def test_degenerate_box_raises_only_once_a_true_positive(self):
        box = (0.5, 0.5, 0.1, 0.1)
        flat = (0.5, 0.5, 0.1, 0.0)
        calibrate_bias(detections([_row(True, box, box), _row(False, flat, box)]))
        with pytest.raises(ValueError, match="positive width and height"):
            calibrate_bias(detections([_row(True, box, box), (0.0, flat, box)]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_monotone_positive_count(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        box = (0.5, 0.5, 0.1, 0.1)
        visible = [rng.random() < 0.5 for _ in range(n)]
        rows = detections([(float(rng.normal(0, 3)), box, box if v else None) for v in visible])
        counts = [
            detection_report(rows, logit_bias=b).tp + detection_report(rows, logit_bias=b).fp
            for b in bias_grid(-3.0, 3.0, 0.25)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize(
        "lo, hi, step",
        [(-3, 3, 4), (-3, 3, 0.1), (-3, 3, 0.25), (-3, 3, 0.7), (0, 0.7, 0.1), (0, 1, 0.3)],
    )
    def test_grid_stays_within_range(self, lo, hi, step):
        grid = bias_grid(lo, hi, step)
        assert grid[0] == lo
        assert all(lo <= b <= hi for b in grid)
        assert hi - grid[-1] < step

    def test_grid_at_size_limit(self):
        assert len(bias_grid(-3.0, 3.0, 6e-4)) == MAX_GRID_POINTS

    # just past the limit, the CLI's 1e-9 case, a quotient and a span that overflow
    @pytest.mark.parametrize(
        "lo, hi, step", [(-3, 3, 5.9e-4), (-3, 3, 1e-9), (-3, 3, 5e-324), (-1e308, 1e308, 1)]
    )
    def test_rejects_grid_over_size_limit(self, lo, hi, step):
        with pytest.raises(ValueError, match=f"more than the limit of {MAX_GRID_POINTS}"):
            bias_grid(lo, hi, step)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            bias_grid(3.0, -3.0, 0.25)
        with pytest.raises(ValueError):
            bias_grid(-3.0, 3.0, 0.0)


class TestExports:
    def test_curve_csv_round_trips(self, tmp_path, rng):
        _, curve = calibrate_bias(miscalibrated_instance(rng, shift=0.5, n=60))
        path = tmp_path / "curve.csv"
        write_csv(path, ["bias", "precision", "recall", "f1", "miou", "overall"],
                  ((bias, *dataclasses.astuple(report)[:5]) for bias, report in curve))
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["bias", "precision", "recall", "f1", "miou", "overall"]
        assert len(rows) == 1 + len(curve)
        for row, (bias, report) in zip(rows[1:], curve):
            assert float(row[0]) == bias
            assert float(row[5]) == report.overall

    def test_report_dict_keys(self):
        report = detection_report(detections([_row(False)]))
        assert set(dataclasses.asdict(report)) == {
            "precision",
            "recall",
            "f1",
            "miou",
            "overall",
            "tp",
            "fp",
            "fn",
        }
