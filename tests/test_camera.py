"""Projection, distortion, homography and calibration tests."""

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    BehindCameraError,
    CalibrationError,
    CameraIntrinsics,
    DegenerateGeometryError,
    DistortionInversionError,
    RigidTransform,
    calibrate,
    distort_normalized,
    distort_point,
    estimate_homography,
    estimate_planar_extrinsics,
    project,
    undistort_frame,
    undistort_point,
)
from swaykin import _bands
from swaykin.pose import motion_matrix
from swaykin.synth import render_frame
from swaykin.features import detect_refined
from swaykin.pose import KinematicParams
from swaykin.target import GeometricTargetModel


def _board_xy(rows, cols, pitch):
    ys, xs = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return np.column_stack([xs.ravel() * pitch, ys.ravel() * pitch]).astype(float)


def _rotation(rx, ry, rz):
    return motion_matrix(KinematicParams(rz, ry, rx, 0.0, 0.0, 0.0))[:3, :3]


# ---------------------------------------------------------------------------
# project


def test_project_identity_pose_center_point():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512)
    uv = project(intr, RigidTransform.identity(), np.array([0.0, 0.0, 1000.0]))
    npt.assert_allclose(uv, [640.0, 512.0], atol=1e-12)


def test_project_offset_point():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512)
    uv = project(intr, RigidTransform.identity(), np.array([100.0, 0.0, 1000.0]))
    npt.assert_allclose(uv, [740.0, 512.0], atol=1e-12)


def test_project_with_skew():
    intr = CameraIntrinsics(fx=1000, fy=900, x0=640, y0=512, skew=2.0)
    uv = project(intr, RigidTransform.identity(), np.array([100.0, 50.0, 1000.0]))
    # u = fx*x/z + s*y/z + x0, v = fy*y/z + y0
    npt.assert_allclose(uv, [640 + 100 + 2 * 0.05, 512 + 45], atol=1e-12)


def test_project_point_behind_camera_raises():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512)
    with pytest.raises(BehindCameraError):
        project(intr, RigidTransform.identity(), np.array([0.0, 0.0, -1000.0]))


def test_project_zero_depth_raises():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512)
    pts = np.array([[0.0, 0.0, 1000.0], [10.0, 10.0, 0.0]])
    with pytest.raises(BehindCameraError, match="1"):
        project(intr, RigidTransform.identity(), pts)


def test_project_roundtrip_through_known_depth():
    # invert the projection with the true depth and recover the world point
    rng = np.random.default_rng(7)
    intr = CameraIntrinsics(fx=1400, fy=1350, x0=620, y0=500, skew=0.3)
    for _ in range(50):
        R = _rotation(*rng.uniform(-0.5, 0.5, 3))
        t = np.array([rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(600, 1500)])
        pose = RigidTransform(R, t)
        pts = rng.uniform(-80, 80, (12, 3))
        uv = project(intr, pose, pts)
        pc = pose.apply(pts)
        xn = np.linalg.solve(intr.K, np.column_stack([uv, np.ones(len(uv))]).T).T
        rec_cam = xn * pc[:, 2:3]
        rec = (rec_cam - t) @ R
        npt.assert_allclose(rec, pts, atol=1e-9)


# ---------------------------------------------------------------------------
# distortion


def test_distort_normalized_zero_coefficients_identity():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512)
    pts = np.random.default_rng(1).uniform(-0.5, 0.5, (20, 2))
    npt.assert_array_equal(distort_normalized(intr, pts), pts)


def test_distort_normalized_origin_fixed():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512, k1=0.3, k2=-0.1)
    npt.assert_allclose(distort_normalized(intr, np.zeros(2)), np.zeros(2), atol=1e-15)


def test_distort_normalized_known_value():
    # r2 = 0.25, factor = 1 + 0.1 * 0.25
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512, k1=0.1)
    out = distort_normalized(intr, np.array([0.5, 0.0]))
    npt.assert_allclose(out, [0.5125, 0.0], atol=1e-15)


def test_undistort_point_identity_without_distortion():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512)
    pts = np.random.default_rng(2).uniform(0, 1200, (30, 2))
    npt.assert_allclose(undistort_point(intr, pts), pts, atol=1e-12)


def test_undistort_point_principal_point_fixed():
    for k1, k2 in [(0.1, 0.0), (-0.2, 0.05), (0.0, 0.3)]:
        intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512, k1=k1, k2=k2)
        npt.assert_allclose(undistort_point(intr, np.array([640.0, 512.0])), [640.0, 512.0], atol=1e-12)


def test_undistort_distort_roundtrip_grid():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512, k1=0.05)
    us, vs = np.meshgrid(np.linspace(40, 1240, 10), np.linspace(40, 980, 10))
    grid = np.column_stack([us.ravel(), vs.ravel()])
    back = undistort_point(intr, distort_point(intr, grid))
    assert np.max(np.abs(back - grid)) < 1e-6


def test_undistort_and_distort_point_take_no_points():
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512, k1=0.05)
    for f in (undistort_point, distort_point):
        assert f(intr, np.empty((0, 2))).shape == (0, 2)


def test_distortion_is_radially_symmetric():
    # distortion commutes with rotation about the distortion center
    intr = CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512, k1=0.08, k2=-0.03)
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.uniform(-0.6, 0.6, 2)
        a = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        lhs = distort_normalized(intr, rot @ p)
        rhs = rot @ distort_normalized(intr, p)
        npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_undistort_diverges_for_extreme_distortion():
    intr = CameraIntrinsics(fx=100, fy=100, x0=0, y0=0, k1=-1.0)
    with pytest.raises(DistortionInversionError):
        undistort_point(intr, np.array([300.0, 0.0]))


# ---------------------------------------------------------------------------
# undistort_frame


def test_undistort_frame_no_distortion_is_identity():
    img = np.random.default_rng(4).uniform(0, 1, (48, 64))
    intr = CameraIntrinsics(fx=500, fy=500, x0=32, y0=24)
    npt.assert_array_equal(undistort_frame(intr, img), img)


def test_undistort_frame_constant_interior():
    img = np.full((64, 64), 0.37)
    intr = CameraIntrinsics(fx=200, fy=200, x0=32, y0=32, k1=0.1)
    out = undistort_frame(intr, img)
    npt.assert_allclose(out[8:-8, 8:-8], 0.37, atol=1e-9)


WINDOW_INTR = CameraIntrinsics(fx=60, fy=60, x0=30, y0=22, k1=0.3, k2=0.05)


@pytest.mark.parametrize("intr", [WINDOW_INTR, CameraIntrinsics(fx=60, fy=60, x0=30, y0=22)])
def test_undistort_frame_window_equals_full_frame_slice(intr):
    img = np.random.default_rng(5).uniform(0, 1, (48, 64))
    full = undistort_frame(intr, img)
    # Interior, whole image, and windows on each border and corner.
    for u0, v0, u1, v1 in [(5, 7, 40, 30), (0, 0, 64, 48), (50, 0, 64, 11), (0, 30, 9, 48), (0, 10, 64, 20), (63, 47, 64, 48)]:
        npt.assert_array_equal(undistort_frame(intr, img, (u0, v0, u1, v1)), full[v0:v1, u0:u1])


@pytest.mark.parametrize("intr", [WINDOW_INTR, CameraIntrinsics(fx=60, fy=60, x0=30, y0=22)])
def test_undistort_frame_of_uint8_equals_that_of_its_floats(intr):
    img = np.random.default_rng(9).integers(0, 256, (48, 64)).astype(np.uint8)
    ref = np.divide(img, 255.0)
    # The whole frame, an interior window and one touching the border.
    for window in [None, (5, 7, 40, 30), (50, 0, 64, 11)]:
        out = undistort_frame(intr, img, window)
        assert out.dtype == np.float64
        npt.assert_array_equal(out, undistort_frame(intr, ref, window))


@pytest.mark.parametrize(
    "window",
    [(10, 10, 10, 20), (10, 20, 30, 20), (30, 10, 20, 20), (-1, 0, 10, 10), (0, -1, 10, 10), (0, 0, 65, 48), (0, 0, 64, 49), (70, 50, 80, 60)],
)
def test_undistort_frame_rejects_empty_or_outside_window(window):
    img = np.zeros((48, 64))
    with pytest.raises(ValueError, match="window"):
        undistort_frame(WINDOW_INTR, img, window)


def test_undistort_frame_straightens_rendered_grid():
    """Corners of a distorted render line up with the pinhole projection after resampling."""
    intr = CameraIntrinsics(fx=800, fy=800, x0=200, y0=200, k1=0.8)
    pts = _board_xy(4, 4, 20.0)
    model = GeometricTargetModel("grid16", np.column_stack([pts, np.zeros(16)]))
    theta = KinematicParams(0.0, 0.0, 0.0, -30.0, -30.0, 300.0)
    img = render_frame(theta, model, intrinsics=intr, image_size=(400, 400))
    out = undistort_frame(intr, img)

    pose = RigidTransform.identity()
    world = model.points + np.array([-30.0, -30.0, 300.0])
    ideal = project(intr, pose, world)  # no distortion: pure pinhole
    found = detect_refined(out)
    assert len(found) >= 16
    det = np.array([f.position for f in found])
    for p in ideal:
        err = np.min(np.linalg.norm(det - p, axis=1))
        assert err < 0.1, f"corner off by {err:.3f} px after undistortion"


def test_banded_undistort_frame_equals_one_remap():
    """The frame, remapped band by band, equals one bilinear remap at
    distort_point of the whole pixel grid; so does a window more than a band
    tall, whose rows cross the frame's band edges."""
    from scipy import ndimage

    intr = CameraIntrinsics(fx=620, fy=600, x0=47, y0=290, skew=3.0, k1=-0.25, k2=0.08)
    img = np.random.default_rng(6).uniform(0, 1, (600, 90))
    h, w = img.shape
    assert h > 2 * _bands._BAND_ROWS
    vv, uu = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    src = distort_point(intr, np.stack([uu.ravel(), vv.ravel()], axis=-1))
    coords = np.stack([src[:, 1].reshape(uu.shape), src[:, 0].reshape(uu.shape)])
    ref = ndimage.map_coordinates(img, coords, order=1, mode="constant", cval=0.0)
    npt.assert_array_equal(undistort_frame(intr, img), ref)
    npt.assert_array_equal(undistort_frame(intr, img, (7, 150, 61, 560)), ref[150:560, 7:61])


def test_undistort_frame_samples_the_last_row_and_column_exactly():
    """A distortion too small to move a pixel samples the image at its own
    pixels, the last row and column included, and gives it back bit for bit,
    as scipy.ndimage.map_coordinates does."""
    intr = CameraIntrinsics(fx=512, fy=512, x0=40, y0=30, k1=1e-30)
    img = np.random.default_rng(8).uniform(0, 1, (300, 70))
    npt.assert_array_equal(undistort_frame(intr, img), img)
    npt.assert_array_equal(undistort_frame(intr, img, (3, 200, 70, 300)), img[200:, 3:])


# ---------------------------------------------------------------------------
# homography


def test_homography_identity():
    pts = np.array([[0.0, 0.0], [80.0, 0.0], [0.0, 60.0], [80.0, 60.0], [40.0, 30.0]])
    H = estimate_homography(pts, pts)
    npt.assert_allclose(H, np.eye(3), atol=1e-9)


def _apply_h(H, pts):
    ph = np.column_stack([pts, np.ones(len(pts))]) @ H.T
    return ph[:, :2] / ph[:, 2:3]


def test_homography_recovers_random_map():
    rng = np.random.default_rng(5)
    H_true = np.array([[1.2, 0.1, 30.0], [-0.05, 0.95, -20.0], [1e-4, -2e-4, 1.0]])
    pts = rng.uniform(0, 100, (10, 2))
    H = estimate_homography(pts, _apply_h(H_true, pts))
    npt.assert_allclose(H / H[2, 2], H_true, rtol=1e-7, atol=1e-7)


def test_homography_composition():
    rng = np.random.default_rng(6)
    H1 = np.array([[1.1, 0.05, 12.0], [0.02, 0.9, -7.0], [2e-4, 1e-4, 1.0]])
    H2 = np.array([[0.95, -0.08, -15.0], [0.06, 1.05, 22.0], [-1e-4, 3e-4, 1.0]])
    pts = rng.uniform(0, 100, (12, 2))
    mid = _apply_h(H1, pts)
    end = _apply_h(H2, mid)
    H = estimate_homography(pts, end)
    H12 = H2 @ H1
    npt.assert_allclose(H / H[2, 2], H12 / H12[2, 2], rtol=1e-8, atol=1e-8)


def test_homography_collinear_points_degenerate():
    world = np.column_stack([np.linspace(0, 100, 6), np.linspace(0, 50, 6)])
    with pytest.raises(DegenerateGeometryError):
        estimate_homography(world, world * 1.5)


def test_homography_too_few_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        estimate_homography(pts, pts)


# ---------------------------------------------------------------------------
# planar extrinsics


def test_planar_extrinsics_frontal():
    intr = CameraIntrinsics(fx=1200, fy=1200, x0=640, y0=480)
    board = _board_xy(4, 5, 25.0)
    pose_true = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1000.0]))
    uv = project(intr, pose_true, np.column_stack([board, np.zeros(len(board))]))
    est = estimate_planar_extrinsics(intr, board, uv)
    npt.assert_allclose(est.rotation, np.eye(3), atol=1e-8)
    npt.assert_allclose(est.translation, [0.0, 0.0, 1000.0], atol=1e-6)


def test_planar_extrinsics_rotated_board():
    intr = CameraIntrinsics(fx=1200, fy=1200, x0=640, y0=480)
    board = _board_xy(4, 5, 25.0)
    R = _rotation(0.0, np.deg2rad(30.0), 0.0)
    pose_true = RigidTransform(R, np.array([-40.0, -30.0, 1000.0]))
    uv = project(intr, pose_true, np.column_stack([board, np.zeros(len(board))]))
    est = estimate_planar_extrinsics(intr, board, uv)
    npt.assert_allclose(est.rotation, R, atol=1e-6)
    npt.assert_allclose(est.translation, pose_true.translation, atol=1e-4)


def test_planar_extrinsics_rotation_orthonormal():
    rng = np.random.default_rng(8)
    intr = CameraIntrinsics(fx=1000, fy=1050, x0=600, y0=500)
    board = _board_xy(4, 4, 30.0)
    for _ in range(20):
        R = _rotation(*rng.uniform(-0.45, 0.45, 3))
        t = np.array([rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(500, 1400)])
        uv = project(intr, RigidTransform(R, t), np.column_stack([board, np.zeros(len(board))]))
        est = estimate_planar_extrinsics(intr, board, uv)
        npt.assert_allclose(est.rotation.T @ est.rotation, np.eye(3), atol=1e-9)


# ---------------------------------------------------------------------------
# calibrate


def _calibration_views(intr, board, poses, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    b3 = np.column_stack([board, np.zeros(len(board))])
    views = []
    for pose in poses:
        uv = project(intr, pose, b3, apply_distortion=True)
        views.append(uv + rng.normal(0.0, noise, uv.shape))
    return views


CAL_POSES = [
    RigidTransform(_rotation(0.35, 0.2, 0.1), np.array([-80.0, -50.0, 520.0])),
    RigidTransform(_rotation(-0.3, 0.25, -0.15), np.array([-60.0, -70.0, 600.0])),
    RigidTransform(_rotation(0.2, -0.3, 0.2), np.array([-90.0, -40.0, 560.0])),
    RigidTransform(_rotation(-0.15, -0.2, -0.25), np.array([-50.0, -60.0, 640.0])),
    RigidTransform(_rotation(0.4, 0.1, 0.3), np.array([-70.0, -55.0, 580.0])),
]


def test_calibrate_noiseless_recovers_model():
    true = CameraIntrinsics(fx=1200, fy=1180, x0=640, y0=360, k1=-0.05, k2=0.01)
    board = _board_xy(5, 8, 25.0)
    views = _calibration_views(true, board, CAL_POSES)
    result = calibrate(views, board)
    got = result.intrinsics
    assert abs(got.fx - true.fx) / true.fx < 1e-3
    assert abs(got.fy - true.fy) / true.fy < 1e-3
    assert abs(got.x0 - true.x0) / true.x0 < 1e-3
    assert abs(got.y0 - true.y0) / true.y0 < 1e-3
    assert abs(got.k1 - true.k1) < 1e-3
    assert abs(got.k2 - true.k2) < 1e-3


def test_calibrate_consistency_noiseless():
    # reprojecting the inputs through the recovered model leaves almost nothing
    true = CameraIntrinsics(fx=1000, fy=1000, x0=512, y0=384, k1=0.02)
    board = _board_xy(5, 8, 25.0)
    views = _calibration_views(true, board, CAL_POSES)
    result = calibrate(views, board)
    b3 = np.column_stack([board, np.zeros(len(board))])
    sq = 0.0
    n = 0
    for pose, uv in zip(result.extrinsics, views):
        rep = project(result.intrinsics, pose, b3, apply_distortion=True)
        sq += np.sum((rep - uv) ** 2)
        n += len(uv)
    assert np.sqrt(sq / n) <= 1e-6
    assert result.rms_px <= 1e-6


def test_calibrate_noisy_rms_budget():
    true = CameraIntrinsics(fx=1200, fy=1180, x0=640, y0=360, k1=-0.05, k2=0.01)
    board = _board_xy(5, 8, 25.0)
    views = _calibration_views(true, board, CAL_POSES, noise=0.1, seed=11)
    result = calibrate(views, board)
    assert result.rms_px <= 0.2


def test_calibrate_too_few_views():
    true = CameraIntrinsics(fx=1200, fy=1180, x0=640, y0=360)
    board = _board_xy(4, 5, 25.0)
    views = _calibration_views(true, board, CAL_POSES[:2])
    with pytest.raises(CalibrationError):
        calibrate(views, board)


def test_calibrate_identical_views_ill_conditioned():
    true = CameraIntrinsics(fx=1200, fy=1180, x0=640, y0=360)
    board = _board_xy(4, 5, 25.0)
    one = _calibration_views(true, board, CAL_POSES[:1])[0]
    with pytest.raises(CalibrationError):
        calibrate([one, one.copy(), one.copy()], board)


# ---------------------------------------------------------------------------
# RigidTransform plumbing


def test_rigid_transform_rejects_non_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        RigidTransform(refl, np.zeros(3))


def test_rigid_transform_inverse():
    rng = np.random.default_rng(9)
    R = _rotation(0.3, -0.2, 0.5)
    t = np.array([10.0, -5.0, 800.0])
    pose = RigidTransform(R, t)
    pts = rng.uniform(-100, 100, (10, 3))
    npt.assert_allclose(pose.inverse().apply(pose.apply(pts)), pts, atol=1e-10)
    npt.assert_allclose(pose.matrix @ pose.inverse().matrix, np.eye(4), atol=1e-12)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-10, fy=1000, x0=0, y0=0)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=np.nan, fy=1000, x0=0, y0=0)
