import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterline.features import (
    FEATURE_NAMES,
    ChartQuery,
    ImuSample,
    build_decoder_query,
    build_features,
    decoder_queries,
    feature_matrix,
    waterline_target,
    waterline_targets,
    wrap_angle_deg,
)
from waterline.metrics import GtBox

LEVEL = ImuSample(0.0, 0.0, 0.0)


class TestValidOnConstruction:
    """A ChartQuery or ImuSample out of range cannot be built, so the
    functions that take one do not check it again."""

    @pytest.mark.parametrize("distance", [math.inf, math.nan, 0.0, -1.0])
    def test_chart_query_rejects_bad_distance(self, distance):
        with pytest.raises(ValueError, match="chart distance must be positive and finite"):
            ChartQuery(distance, 0.0)

    @pytest.mark.parametrize("bearing", [180.5, -181.0, math.nan, math.inf])
    def test_chart_query_rejects_bad_bearing(self, bearing):
        with pytest.raises(ValueError, match="bearing must lie in"):
            ChartQuery(10.0, bearing)

    @pytest.mark.parametrize(
        "angles,name",
        [((90.5, 0.0, 0.0), "pitch"), ((0.0, -91.0, 0.0), "roll"),
         ((0.0, 0.0, 180.5), "heading"), ((math.nan, 0.0, 0.0), "pitch")],
    )
    def test_imu_sample_rejects_out_of_range(self, angles, name):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            ImuSample(*angles)


class TestBuildFeatures:
    def test_order_and_shape(self):
        f = build_features(ChartQuery(500.0, 0.0), LEVEL)
        assert f.shape == (len(FEATURE_NAMES),)
        assert f.dtype == np.float64

    def test_full_range_distance(self):
        f = build_features(ChartQuery(1000.0, 0.0), LEVEL)
        assert f[0] == 1.0
        assert f[1] == 1.0  # 1000 / 1000

    def test_inverse_distance_clip_boundary(self):
        f = build_features(ChartQuery(100.0, 0.0), LEVEL)
        assert f[1] == 10.0

    def test_inverse_distance_clipped_from_1000(self):
        f = build_features(ChartQuery(1.0, 0.0), LEVEL)
        assert f[1] == 10.0

    def test_angle_normalizations(self):
        f = build_features(ChartQuery(500.0, 90.0), ImuSample(10.0, -5.0, 180.0))
        assert f[2] == 0.5
        assert f[3] == 1.0
        assert f[4] == -0.5
        assert f[5] == 1.0

    def test_distance_above_range_not_clamped(self):
        f = build_features(ChartQuery(2500.0, 0.0), LEVEL)
        assert f[0] == 2.5
        assert f[1] == 0.4

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            build_features(ChartQuery(0.0, 0.0), LEVEL)

    def test_rejects_out_of_range_angles(self):
        with pytest.raises(ValueError):
            build_features(ChartQuery(10.0, 200.0), LEVEL)
        with pytest.raises(ValueError):
            build_features(ChartQuery(10.0, 0.0), ImuSample(95.0, 0.0, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(d=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
    def test_inverse_distance_clamp_property(self, d):
        f = build_features(ChartQuery(d, 0.0), LEVEL)
        assert 0.0 <= f[1] <= 10.0
        if d >= 100.0:
            assert f[1] == 1000.0 / d


class TestWaterlineTarget:
    def test_bottom_center(self):
        assert waterline_target(GtBox(True, 0.5, 0.5, 0.1, 0.2)) == (0.5, 0.6)

    def test_bottom_of_frame(self):
        assert waterline_target(GtBox(True, 0.25, 0.9, 0.05, 0.2)) == (0.25, 1.0)

    def test_rejects_box_below_frame(self):
        with pytest.raises(ValueError):
            waterline_target(GtBox(True, 0.5, 0.95, 0.05, 0.2))

    def test_rejects_invisible(self):
        with pytest.raises(ValueError):
            waterline_target(GtBox(False))

    def test_tiny_overshoot_clamps_to_one(self):
        got = waterline_target(GtBox(True, 0.5, 0.9, 0.05, 0.2 + 1e-9))
        assert got[1] == 1.0


class TestBuildDecoderQuery:
    def test_concatenation(self):
        q = build_decoder_query(ChartQuery(500.0, 0.0), (0.5, 0.6))
        assert q.tolist() == [0.5, 0.0, 0.5, 0.6]

    def test_range_corners(self):
        q = build_decoder_query(ChartQuery(1000.0, -180.0), (0.0, 1.0))
        assert q.tolist() == [1.0, -1.0, 0.0, 1.0]

    def test_rejects_out_of_range_prediction(self):
        with pytest.raises(ValueError):
            build_decoder_query(ChartQuery(10.0, 0.0), (1.2, 0.5))
        with pytest.raises(ValueError):
            build_decoder_query(ChartQuery(10.0, 0.0), (0.5, -0.01))

    def test_matches_build_features_fields(self, rng):
        for _ in range(100):
            query = ChartQuery(rng.uniform(1.0, 2000.0), rng.uniform(-180.0, 180.0))
            point = (rng.uniform(0, 1), rng.uniform(0, 1))
            feats = build_features(query, LEVEL)
            dq = build_decoder_query(query, point)
            assert dq[0] == feats[0]
            assert dq[1] == feats[2]
            assert dq[2] == point[0] and dq[3] == point[1]

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.floats(min_value=1.0, max_value=5000.0),
        b=st.floats(min_value=-180.0, max_value=180.0),
        cx=st.floats(min_value=0.0, max_value=1.0),
        cy=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_no_information_loss(self, d, b, cx, cy):
        q = build_decoder_query(ChartQuery(d, b), (cx, cy))
        # every input is recoverable, so the map is injective
        assert q[0] * 1000.0 == pytest.approx(d, rel=1e-12)
        assert q[1] * 180.0 == pytest.approx(b, rel=1e-12, abs=1e-12)
        assert q[2] == cx and q[3] == cy


class TestWholeSetForms:
    """Each whole-set form gives its per-frame form's floats, row by row."""

    def test_feature_matrix_bit_equal_to_build_features(self, rng):
        m = 2000
        queries = [ChartQuery(d, b) for d, b in zip(
            np.exp(rng.uniform(np.log(1e-3), np.log(1e5), m)).tolist(),  # both sides of 100 m
            rng.uniform(-180.0, 180.0, m).tolist(),
        )]
        imus = [ImuSample(*angles) for angles in zip(
            rng.uniform(-90.0, 90.0, m).tolist(), rng.uniform(-90.0, 90.0, m).tolist(),
            rng.uniform(-180.0, 180.0, m).tolist(),
        )]
        # Where inv_dist saturates, and distances whose 1000 / d overflows.
        edges = [5e-324, 1e-300, float(np.nextafter(100.0, 0.0)), 100.0, 100.000001, 1e5]
        queries[:len(edges)] = [ChartQuery(d, 180.0) for d in edges]
        imus[0] = ImuSample(-90.0, 90.0, -180.0)
        columns = np.array([(q.distance_m, q.bearing_deg, imu.pitch_deg, imu.roll_deg,
                             imu.heading_deg) for q, imu in zip(queries, imus)])
        got = feature_matrix(*columns.T)
        want = np.stack([build_features(q, imu) for q, imu in zip(queries, imus)])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert feature_matrix(*np.zeros((5, 0))).shape == (0, 6)

    def test_waterline_targets_bit_equal_to_waterline_target(self, rng):
        boxes = np.column_stack((rng.uniform(0, 1, (500, 2)), rng.uniform(0.01, 0.2, (500, 2))))
        boxes[:, 1] = np.minimum(boxes[:, 1], 1.0 - boxes[:, 3] / 2)
        boxes[0] = (0.5, 0.9, 0.05, 0.2 + 1e-9)  # a tiny overshoot clamps to 1
        got = waterline_targets(boxes)
        want = [waterline_target(GtBox(True, *box)) for box in boxes.tolist()]
        assert [tuple(row) for row in got.tolist()] == want
        assert got[0, 1] == 1.0

    def test_waterline_targets_reject_like_waterline_target(self):
        boxes = np.array([[0.5, 0.5, 0.1, 0.2], [0.5, 0.95, 0.05, 0.2], [0.5, 0.99, 0.05, 0.2]])
        with pytest.raises(ValueError) as per_frame:
            waterline_target(GtBox(True, *boxes[1].tolist()))
        with pytest.raises(ValueError) as whole_set:
            waterline_targets(boxes)
        assert str(whole_set.value) == str(per_frame.value)

    def test_decoder_queries_bit_equal_to_build_decoder_query(self, rng):
        m = 500
        queries = [ChartQuery(d, b) for d, b in zip(
            rng.uniform(1.0, 2000.0, m).tolist(), rng.uniform(-180.0, 180.0, m).tolist())]
        points = rng.uniform(0.0, 1.0, (m, 2))
        points[0] = (0.0, 1.0)
        feats = np.stack([build_features(q, LEVEL) for q in queries])
        got = decoder_queries(feats, points)
        want = np.stack([build_decoder_query(q, tuple(p)) for q, p in zip(queries, points.tolist())])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [(1.2, 0.5), (0.5, -0.01), (math.nan, 0.5)])
    def test_decoder_queries_reject_like_build_decoder_query(self, bad):
        feats = np.stack([build_features(ChartQuery(10.0, 0.0), LEVEL)] * 3)
        points = np.array([(0.5, 0.5), bad, (2.0, 2.0)])
        with pytest.raises(ValueError) as per_frame:
            build_decoder_query(ChartQuery(10.0, 0.0), bad)
        with pytest.raises(ValueError) as whole_set:
            decoder_queries(feats, points)
        assert str(whole_set.value) == str(per_frame.value)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw,expected",
        [(270.0, -90.0), (-270.0, 90.0), (180.0, 180.0), (-180.0, -180.0), (540.0, 180.0), (0.0, 0.0)],
    )
    def test_wrap(self, raw, expected):
        assert wrap_angle_deg(raw) == expected
