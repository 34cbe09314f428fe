import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matrix_project, orientation_matrix, raytrace_pixel, scalar_project
from waterline.errors import ConfigError
from waterline.features import ChartQuery, ImuSample
from waterline.geometry import DEPTH_EPS_M, CameraModel, in_frame, project

from conftest import project_point, random_imu, random_query


class TestOrientationMatrix:
    def test_identity_at_zero(self):
        r = orientation_matrix(ImuSample(0.0, 0.0, 0.0))
        assert np.array_equal(r, np.eye(3))

    def test_heading_half_turn(self):
        r = orientation_matrix(ImuSample(0.0, 0.0, 180.0))
        expected = np.diag([-1.0, -1.0, 1.0])
        assert np.allclose(r, expected, atol=1e-12)

    def test_heading_rotates_forward_axis_toward_east(self):
        # compass sense: heading 90 deg points the bow east (+x)
        r = orientation_matrix(ImuSample(0.0, 0.0, 90.0))
        forward_in_ref = r @ np.array([0.0, 1.0, 0.0])
        assert np.allclose(forward_in_ref, [1.0, 0.0, 0.0], atol=1e-12)

    def test_positive_pitch_lifts_bow(self):
        r = orientation_matrix(ImuSample(10.0, 0.0, 0.0))
        forward_in_ref = r @ np.array([0.0, 1.0, 0.0])
        assert forward_in_ref[2] > 0

    def test_positive_roll_dips_starboard(self):
        r = orientation_matrix(ImuSample(0.0, 10.0, 0.0))
        starboard_in_ref = r @ np.array([1.0, 0.0, 0.0])
        assert starboard_in_ref[2] < 0

    @settings(max_examples=100, deadline=None)
    @given(
        pitch=st.floats(-90, 90),
        roll=st.floats(-90, 90),
        heading=st.floats(-180, 180),
    )
    def test_orthonormal_with_unit_determinant(self, pitch, roll, heading):
        r = orientation_matrix(ImuSample(pitch, roll, heading))
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range_pitch(self):
        with pytest.raises(ValueError):
            orientation_matrix(ImuSample(91.0, 0.0, 0.0))


class TestProject:
    def test_on_axis_hits_principal_column_exactly(self, camera):
        for heading in (0.0, 37.5, -120.0, 180.0):
            for d in (10.0, 100.0, 5000.0):
                u, _ = project_point(camera, ImuSample(0.0, 0.0, heading), ChartQuery(d, 0.0))
                assert u == camera.principal_u

    def test_horizon_limit_at_zero_pitch(self, camera):
        _, v = project_point(camera, ImuSample(0.0, 0.0, 0.0), ChartQuery(1e9, 0.0))
        assert v > camera.principal_v
        assert v - camera.principal_v < 1e-5

    def test_depth_monotone_in_distance(self, camera):
        imu = ImuSample(0.0, 0.0, 0.0)
        distances = np.geomspace(5.0, 5000.0, 40)
        vs = [project_point(camera, imu, ChartQuery(d, 0.0))[1] for d in distances]
        assert all(v > camera.principal_v for v in vs)
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_roll_antisymmetry(self, camera):
        for roll in (3.0, 7.5, 15.0):
            plus = project_point(camera, ImuSample(0.0, roll, 0.0), ChartQuery(800.0, 0.0))
            minus = project_point(camera, ImuSample(0.0, -roll, 0.0), ChartQuery(800.0, 0.0))
            assert plus[0] - camera.principal_u == pytest.approx(
                camera.principal_u - minus[0], abs=1e-9
            )
            assert plus[1] == pytest.approx(minus[1], abs=1e-9)

    def test_behind_camera_returns_none(self, camera):
        assert project_point(camera, ImuSample(0.0, 0.0, 0.0), ChartQuery(100.0, 180.0)) is None
        assert project_point(camera, ImuSample(0.0, 0.0, 45.0), ChartQuery(50.0, -170.0)) is None

    def test_heading_does_not_move_the_pixel(self, camera):
        base = project_point(camera, ImuSample(2.0, -3.0, 0.0), ChartQuery(200.0, 12.0))
        for heading in (-180.0, -35.0, 90.0, 179.0):
            p = project_point(camera, ImuSample(2.0, -3.0, heading), ChartQuery(200.0, 12.0))
            assert p == base

    def test_frozen_raytrace_example(self, camera):
        # independent inverse ray-trace values for focal 600, principal
        # (480, 270), height 3 m, d = 100 m, bearing 10 deg, zero attitude
        u, v = project_point(camera, ImuSample(0.0, 0.0, 0.0), ChartQuery(100.0, 10.0))
        assert u == pytest.approx(585.796188425079, rel=1e-9)
        assert v == pytest.approx(288.2776790139434, rel=1e-9)
        uv = raytrace_pixel(camera, ImuSample(0.0, 0.0, 0.0), ChartQuery(100.0, 10.0))
        assert u == pytest.approx(uv[0], rel=1e-9)
        assert v == pytest.approx(uv[1], rel=1e-9)

    def test_raytrace_agreement_1000_random_configs(self):
        checked = wide = 0
        for i in range(1000):
            rng = np.random.default_rng(7000 + i)
            cam = CameraModel(
                focal_px=rng.uniform(300, 1200),
                principal_u=rng.uniform(400, 560),
                principal_v=rng.uniform(200, 340),
                image_w=960,
                image_h=540,
                mount_height_m=rng.uniform(1.0, 10.0),
            )
            imu = random_imu(rng)
            query = random_query(rng, max_bearing=180.0)
            p = project_point(cam, imu, query)
            if p is None:  # behind the camera
                continue
            uv = raytrace_pixel(cam, imu, query)
            assert uv is not None, f"oracle failed on config {i}"
            scale = max(1.0, abs(uv[0]), abs(uv[1]))
            assert abs(p[0] - uv[0]) / scale < 1e-9
            assert abs(p[1] - uv[1]) / scale < 1e-9
            checked += 1
            wide += abs(query.bearing_deg) > 80.0
        assert checked > 450 and wide > 20

    def test_matches_matrix_route(self, camera):
        rng = np.random.default_rng(314)
        n = 20_000
        pitch = np.concatenate([[-90.0, 90.0, 0.0, -90.0], rng.uniform(-90.0, 90.0, n)])
        roll = np.concatenate([[-90.0, 90.0, -90.0, 0.0], rng.uniform(-90.0, 90.0, n)])
        heading = rng.uniform(-180.0, 180.0, n + 4)
        distance = np.exp(rng.uniform(0.0, math.log(5000.0), n + 4))  # 1 to 5000 m
        bearing = rng.uniform(-180.0, 180.0, n + 4)
        projected = 0
        for p, r, h, d, b in zip(pitch, roll, heading, distance, bearing):
            imu = ImuSample(float(p), float(r), float(h))
            query = ChartQuery(float(d), float(b))
            got, want = project_point(camera, imu, query), matrix_project(camera, imu, query)
            assert (got is None) == (want is None), (imu, query)
            if got is None:
                continue
            scale = 1e-12 * max(1.0, abs(want[0]), abs(want[1]))
            assert abs(got[0] - want[0]) <= scale and abs(got[1] - want[1]) <= scale, (imu, query)
            projected += 1
        assert 0.2 * n < projected < 0.8 * n


class TestArrayProject:
    """project over whole arrays in one call, against the one-query routes."""

    @staticmethod
    def _inputs(rng, n, pitch_roll, max_bearing):
        imus = [random_imu(rng, pitch_roll) for _ in range(n)]
        queries = [random_query(rng, max_bearing) for _ in range(n)]
        # At zero attitude and bearing 0 the depth is the distance itself: one
        # query exactly at DEPTH_EPS_M (behind the image plane) and one just past it.
        imus += [ImuSample(0.0, 0.0, 0.0)] * 2
        queries += [ChartQuery(DEPTH_EPS_M, 0.0), ChartQuery(math.nextafter(DEPTH_EPS_M, 1.0), 0.0)]
        return imus, queries

    @staticmethod
    def _project(camera, imus, queries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return project(
                camera,
                np.array([imu.pitch_deg for imu in imus]),
                np.array([imu.roll_deg for imu in imus]),
                np.array([q.distance_m for q in queries]),
                np.array([q.bearing_deg for q in queries]),
            )

    def test_matches_matrix_route_and_nan_where_scalar_gave_none(self, camera):
        imus, queries = self._inputs(np.random.default_rng(2718), 5000, 90.0, 180.0)
        u, v = self._project(camera, imus, queries)
        assert u.shape == v.shape == (len(queries),)
        for k, (imu, query) in enumerate(zip(imus, queries)):
            old, want = scalar_project(camera, imu, query), matrix_project(camera, imu, query)
            assert math.isnan(u[k]) == math.isnan(v[k]) == (old is None) == (want is None)
            if old is None:
                continue
            scale = 1e-9 * max(1.0, abs(want[0]), abs(want[1]))
            assert abs(u[k] - want[0]) <= scale and abs(v[k] - want[1]) <= scale
        assert math.isnan(u[-2]) and not math.isnan(u[-1])
        assert 1000 < np.isnan(u).sum() < 4000

    def test_matches_raytrace(self, camera):
        imus, queries = self._inputs(np.random.default_rng(1618), 300, 10.0, 180.0)
        imus, queries = imus[:-2], queries[:-2]  # the raytrace tolerance scales with distance
        u, v = self._project(camera, imus, queries)
        checked = 0
        for k, (imu, query) in enumerate(zip(imus, queries)):
            if math.isnan(u[k]):
                continue
            uv = raytrace_pixel(camera, imu, query)
            assert uv is not None, k
            scale = max(1.0, abs(uv[0]), abs(uv[1]))
            assert abs(u[k] - uv[0]) / scale < 1e-9 and abs(v[k] - uv[1]) / scale < 1e-9
            checked += 1
        assert checked > 100


class TestInFrame:
    def test_center(self, camera):
        assert in_frame(camera, 480.0, 270.0)

    def test_negative_u(self, camera):
        assert not in_frame(camera, -1.0, 270.0)

    def test_far_corner_convention(self, camera):
        assert in_frame(camera, 959.99, 539.99)
        assert not in_frame(camera, 960.0, 270.0)
        assert not in_frame(camera, 480.0, 540.0)

    def test_origin_is_inside(self, camera):
        assert in_frame(camera, 0.0, 0.0)


    def test_arrays_and_nan(self, camera):
        u = np.array([480.0, np.nan, -1.0, 959.99, 480.0])
        v = np.array([270.0, 270.0, 270.0, 539.99, np.nan])
        assert in_frame(camera, u, v).tolist() == [True, False, False, True, False]


class TestCameraModel:
    def test_json_round_trip(self, camera, tmp_path):
        path = tmp_path / "camera.json"
        camera.save(path)
        loaded = CameraModel.load(path)
        assert loaded == camera
        data = json.loads(path.read_text())
        assert set(data) == {
            "focal_px",
            "principal_u",
            "principal_v",
            "image_w",
            "image_h",
            "mount_height_m",
        }

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            CameraModel(-1.0, 480, 270, 960, 540, 3.0)
        with pytest.raises(ConfigError):
            CameraModel(600.0, 2000.0, 270, 960, 540, 3.0)
        with pytest.raises(ConfigError):
            CameraModel(600.0, 480, 270, 960, 540, 0.0)

    def test_load_rejects_missing_key(self, camera, tmp_path):
        path = tmp_path / "camera.json"
        data = dataclasses.asdict(camera)
        del data["focal_px"]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="focal_px"):
            CameraModel.load(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "camera.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            CameraModel.load(path)


class TestProjectionGeometryConsistency:
    def test_bearing_moves_pixel_rightward(self, camera):
        imu = ImuSample(0.0, 0.0, 0.0)
        left = project_point(camera, imu, ChartQuery(200.0, -10.0))
        right = project_point(camera, imu, ChartQuery(200.0, 10.0))
        assert left[0] < camera.principal_u < right[0]

    def test_pitch_up_moves_water_down_in_image(self, camera):
        level = project_point(camera, ImuSample(0.0, 0.0, 0.0), ChartQuery(300.0, 0.0))
        bow_up = project_point(camera, ImuSample(8.0, 0.0, 0.0), ChartQuery(300.0, 0.0))
        assert bow_up[1] > level[1]
