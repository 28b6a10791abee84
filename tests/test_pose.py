"""Six-parameter pose model and iterative fit tests."""

import functools
import importlib.machinery
import logging
import re
import sys

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    BehindCameraError,
    CameraIntrinsics,
    FeatureColumns,
    FeatureObservation,
    GeometricTargetModel,
    GimbalLockError,
    InsufficientCorrespondenceError,
    KinematicParams,
    NoiseSpec,
    PoseTrack,
    RigidTransform,
    SwayProfile,
    TrackingError,
    default_target,
    euler_from_rotation,
    fit_pose,
    generate_trajectory,
    initialize_first_frame,
    motion_matrix,
    project,
    render_observations,
    track_sequence,
    validate_asymmetry,
)
from swaykin.camera import MIN_DEPTH_MM
from swaykin.pose import GIMBAL_MARGIN, _jacobian_from, _linearize, _project, _stack_observations

INTR = CameraIntrinsics(fx=4000, fy=4000, x0=1024, y0=1024)
MODEL = default_target("lumbar")
HOME = KinematicParams(0.0, 0.0, 0.0, 0.0, 0.0, 1000.0)
# The residual mask of a frame that observes every feature of MODEL.
ALL = np.ones(2 * MODEL.n_features, dtype=bool)


def _theta_array(theta):
    return np.array([theta.theta1, theta.theta2, theta.theta3, theta.theta4, theta.theta5, theta.theta6])


def _exact_obs(theta, model=MODEL, intr=INTR):
    uv = project(intr, _pose_of(theta), model.points)
    return [FeatureObservation(position=p, score=1.0, model_index=i) for i, p in enumerate(uv)]


def _pose_of(theta):
    M = motion_matrix(theta)
    return RigidTransform(M[:3, :3], M[:3, 3])


# ---------------------------------------------------------------------------
# motion model


def test_motion_matrix_at_rest():
    npt.assert_array_equal(motion_matrix(KinematicParams(0, 0, 0, 0, 0, 0)), np.eye(4))


def test_motion_matrix_pitch_entry():
    # rotation block row 3, column 1 carries -sin(pitch)
    th = 0.3
    M = motion_matrix(KinematicParams(0.0, th, 0.0, 0.0, 0.0, 0.0))
    npt.assert_allclose(M[2, 0], -np.sin(th), atol=1e-15)


def test_motion_matrix_rotation_is_special_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = KinematicParams(*rng.uniform(-1.2, 1.2, 3), *rng.uniform(-100, 100, 3))
        R = motion_matrix(theta)[:3, :3]
        npt.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        npt.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_motion_matrix_translation_column():
    M = motion_matrix(KinematicParams(0.2, -0.1, 0.3, 4.0, -5.0, 6.0))
    npt.assert_array_equal(M[:3, 3], [4.0, -5.0, 6.0])
    npt.assert_array_equal(M[3], [0, 0, 0, 1])


def test_kinematic_params_rejects_gimbal_pitch():
    with pytest.raises(ValueError):
        KinematicParams(0.0, np.pi / 2, 0.0, 0.0, 0.0, 1000.0)


def test_euler_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(100):
        t1, t3 = rng.uniform(-np.pi + 0.01, np.pi - 0.01, 2)
        t2 = rng.uniform(-(np.pi / 2 - 0.1), np.pi / 2 - 0.1)
        R = motion_matrix(KinematicParams(t1, t2, t3, 0, 0, 0))[:3, :3]
        r1, r2, r3 = euler_from_rotation(R)
        npt.assert_allclose([r1, r2, r3], [t1, t2, t3], atol=1e-12)


def test_euler_gimbal_detection():
    # pitch of exactly +pi/2: R[2][0] hits -1
    R = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(GimbalLockError):
        euler_from_rotation(R)


# ---------------------------------------------------------------------------
# residuals


def test_residuals_zero_at_truth():
    theta = KinematicParams(0.05, -0.03, 0.02, 3.0, -2.0, 1000.0)
    uv = project(INTR, _pose_of(theta), MODEL.points)
    r, refused, _ = _project(_theta_array(theta), MODEL.points, uv, ALL, INTR)
    assert r.shape == (30,) and not refused
    npt.assert_allclose(r, 0.0, atol=1e-9)


def test_residuals_uniform_pixel_offset():
    uv = project(INTR, _pose_of(HOME), MODEL.points) + [1.0, 0.0]
    r = _project(_theta_array(HOME), MODEL.points, uv, ALL, INTR)[0]
    npt.assert_allclose(r[0::2], -1.0, atol=1e-12)  # predicted minus observed
    npt.assert_allclose(r[1::2], 0.0, atol=1e-12)


def test_residuals_match_direct_recompute():
    rng = np.random.default_rng(21)
    for _ in range(20):
        theta = KinematicParams(*rng.uniform(-0.3, 0.3, 3), *rng.uniform(-20, 20, 2), 1000.0)
        jitter = rng.normal(0, 1.0, (MODEL.n_features, 2))
        uv = project(INTR, _pose_of(theta), MODEL.points) + jitter
        r = _project(_theta_array(theta), MODEL.points, uv, ALL, INTR)[0]
        npt.assert_allclose(r, -jitter.ravel(), atol=1e-9)


def test_residuals_behind_camera():
    uv = project(INTR, _pose_of(HOME), MODEL.points)
    _, refused, _ = _project(np.array([0.0, 0.0, 0.0, 0.0, 0.0, -500.0]), MODEL.points, uv, ALL, INTR)
    assert refused


def _finite_difference_jacobian(th, pts, uv, mask, intr, h=1e-7):
    """Central differences of :func:`_project`'s residuals at one pose."""
    J = np.empty((len(mask), 6))
    for k in range(6):
        d = np.zeros(6)
        d[k] = h
        J[:, k] = (_project(th + d, pts, uv, mask, intr)[0] - _project(th - d, pts, uv, mask, intr)[0]) / (2 * h)
    return J


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(22)
    theta = KinematicParams(0.1, -0.05, 0.08, 5.0, -3.0, 1000.0)
    uv = project(INTR, _pose_of(theta), MODEL.points)
    th = _theta_array(theta) + rng.normal(0, 0.01, 6)
    r, _, state = _project(th, MODEL.points, uv, ALL, INTR)
    J = _jacobian_from(th, state, ALL, INTR)
    J_ref = _finite_difference_jacobian(th, MODEL.points, uv, ALL, INTR)
    scale = np.maximum(np.abs(J_ref), 1.0)
    assert np.max(np.abs(J - J_ref) / scale) < 1e-5
    # _linearize is the same projection and Jacobian.
    r_lin, J_lin = _linearize(th, (MODEL.points, uv, ALL), INTR)
    assert np.array_equal(r_lin, r) and np.array_equal(J_lin, J)


def test_stacked_jacobian_matches_per_frame_calls():
    # The smoother linearizes all frames at once through the batched shape,
    # and a masked entry of the stack is zero in both r and J.
    rng = np.random.default_rng(29)
    th = _theta_array(HOME) + rng.normal(0, [0.1, 0.1, 0.1, 20.0, 20.0, 50.0], (5, 6))
    pts = MODEL.points[rng.permuted(np.tile(np.arange(MODEL.n_features), (5, 1)), axis=1)]
    uv = rng.uniform(900.0, 1150.0, pts.shape[:-1] + (2,))
    mask = np.repeat(np.arange(MODEL.n_features) < [[15], [12], [15], [4], [9]], 2, axis=1)
    r, J = _linearize(th, (pts, uv, mask), INTR)
    assert J.shape == (5, 2 * MODEL.n_features, 6)
    for f in range(5):
        r_f, J_f = _linearize(th[f], (pts[f], uv[f], mask[f]), INTR)
        npt.assert_allclose(r[f], r_f, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(J[f], J_f, rtol=1e-12, atol=1e-12)
        assert not np.any(r[f, ~mask[f]]) and not np.any(J[f, ~mask[f]])


def test_residuals_and_jacobian_under_general_camera():
    # fx != fy and a skew term exercise every entry of d(uv)/d(pc).
    intr = CameraIntrinsics(fx=4000, fy=3990, x0=1010, y0=1030, skew=1.5)
    rng = np.random.default_rng(31)
    th = _theta_array(HOME) + rng.normal(0, [0.1, 0.1, 0.1, 20.0, 20.0, 50.0], (4, 6))
    pts = np.broadcast_to(MODEL.points, (4,) + MODEL.points.shape)
    mask = np.broadcast_to(ALL, (4, len(ALL)))
    uv = np.stack([project(intr, _pose_of(KinematicParams(*row)), MODEL.points) for row in th])
    npt.assert_allclose(_project(th, pts, uv, mask, intr)[0], 0.0, atol=1e-9)
    uv = uv + rng.normal(0, 0.5, uv.shape)
    r, J = _linearize(th, (pts, uv, mask), intr)
    for f in range(4):
        npt.assert_allclose(r[f], _project(th[f], pts[f], uv[f], ALL, intr)[0], rtol=1e-12, atol=1e-9)
        npt.assert_allclose(J[f], _linearize(th[f], (pts[f], uv[f], ALL), intr)[1], rtol=1e-12, atol=1e-12)
        J_ref = _finite_difference_jacobian(th[f], pts[f], uv[f], ALL, intr)
        assert np.max(np.abs(J[f] - J_ref) / np.maximum(np.abs(J_ref), 1.0)) < 1e-5


def test_stack_scatters_each_frame_into_its_padded_row():
    # Frames of every kind, against a frame-by-frame reference.
    rng = np.random.default_rng(34)
    obs = _exact_obs(HOME)
    frames = [[], [obs[k] for k in rng.permutation(15)[:5]], obs[:3], [], list(reversed(obs))]
    points, uv, mask = _stack_observations(MODEL, frames)
    assert points.shape == (5, 15, 3) and uv.shape == (5, 15, 2) and mask.shape == (5, 30)
    for f, frame in enumerate(frames):
        n = len(frame)
        npt.assert_array_equal(points[f, :n], MODEL.points[[o.model_index for o in frame]].reshape(-1, 3))
        npt.assert_array_equal(uv[f, :n], np.array([o.position for o in frame]).reshape(-1, 2))
        npt.assert_array_equal(points[f, n:], np.broadcast_to(MODEL.points[0], (15 - n, 3)))
        npt.assert_array_equal(uv[f, n:], 0.0)
        npt.assert_array_equal(mask[f], np.arange(30) < 2 * n)


def test_project_refuses_only_observed_features_behind_the_camera():
    # Frame 2's feature 5 is behind the camera, and frame 1 is past the
    # gimbal guard. Masked, as padding is, feature 5 refuses nothing.
    th = np.tile(_theta_array(HOME), (4, 1))
    th[1, 1] = np.pi / 2 - GIMBAL_MARGIN
    pts = np.broadcast_to(MODEL.points, (4,) + MODEL.points.shape).copy()
    pts[2, 5, 2] = -2000.0
    uv = np.zeros(pts.shape[:-1] + (2,))
    mask = np.ones((4, 2 * MODEL.n_features), dtype=bool)
    assert _project(th, pts, uv, mask, INTR)[1].tolist() == [False, True, True, False]
    mask[2, 10:] = False
    r, refused, _ = _project(th, pts, uv, mask, INTR)
    assert refused.tolist() == [False, True, False, False]
    assert np.all(np.isfinite(r[2])) and not np.any(r[2, 10:])


# ---------------------------------------------------------------------------
# fit_pose


def test_fit_recovers_noiseless_pose():
    rng = np.random.default_rng(23)
    for _ in range(10):
        theta = KinematicParams(*rng.uniform(-0.3, 0.3, 3), *rng.uniform(-30, 30, 2), rng.uniform(800, 1200))
        obs = _exact_obs(theta)
        init = KinematicParams(
            theta.theta1 + 0.05, theta.theta2 - 0.05, theta.theta3 + 0.05,
            theta.theta4 + 5.0, theta.theta5 - 5.0, theta.theta6 + 5.0,
        )
        report = fit_pose(init, MODEL, obs, INTR)
        assert report.converged
        got = _theta_array(report.theta)
        want = _theta_array(theta)
        npt.assert_allclose(got[:3], want[:3], atol=1e-6)
        npt.assert_allclose(got[3:], want[3:], atol=1e-4)


def test_fit_already_converged_at_optimum():
    theta = KinematicParams(0.1, 0.05, -0.02, 2.0, 1.0, 1000.0)
    report = fit_pose(theta, MODEL, _exact_obs(theta), INTR)
    assert report.converged
    assert report.iterations <= 2
    assert report.rms_residual_px < 1e-9


def test_fit_held_by_gimbal_guard_is_not_converged():
    # The optimum lies just past the gimbal guard, so the guard refuses every
    # step towards it until the damped step is negligible: a constraint, not
    # a minimum, holds the fit.
    edge = np.pi / 2 - GIMBAL_MARGIN
    truth = np.array([0.1, edge + 5e-7, 0.2, 10.0, -5.0, 1000.0])
    # The residuals against observations at pixel 0 are the projection,
    # which _project returns although it refuses the pose.
    uv, refused, _ = _project(truth, MODEL.points, np.zeros((len(MODEL.points), 2)), ALL, INTR)
    assert refused
    obs = [
        FeatureObservation(position=p, score=1.0, model_index=i)
        for i, p in enumerate(uv.reshape(-1, 2))
    ]
    report = fit_pose(KinematicParams(0.1, edge - 1e-8, 0.2, 10.0, -5.0, 1000.0), MODEL, obs, INTR)
    assert report.theta.theta2 < edge
    assert not report.converged


def test_fit_refuses_a_start_behind_the_camera():
    obs = _exact_obs(HOME)
    with pytest.raises(BehindCameraError):
        fit_pose(KinematicParams(0.0, 0.0, 0.0, 0.0, 0.0, -500.0), MODEL, obs, INTR)


def test_fit_refuses_a_start_with_one_observed_feature_behind_the_camera():
    # A start tilted so that feature 14, alone, is behind the camera: the
    # fit refuses it while that feature is observed, and starts without it.
    tilted = np.array([0.0, 0.3, -0.3, 0.0, 0.0, 0.0])
    z = (MODEL.points @ motion_matrix(KinematicParams(*tilted))[:3, :3].T)[:, 2]
    order = np.argsort(z)
    assert order[0] == 14
    tilted[5] = -(z[order[0]] + z[order[1]]) / 2
    assert np.sum(z + tilted[5] <= MIN_DEPTH_MM) == 1
    obs = _exact_obs(HOME)
    with pytest.raises(BehindCameraError):
        fit_pose(KinematicParams(*tilted), MODEL, obs, INTR)
    fit_pose(KinematicParams(*tilted), MODEL, obs[:14], INTR, max_iterations=1)


def test_fit_rejects_too_few_observations():
    theta = KinematicParams(0, 0, 0, 0, 0, 1000.0)
    obs = _exact_obs(theta)[:3]
    with pytest.raises(InsufficientCorrespondenceError):
        fit_pose(theta, MODEL, obs, INTR)


def test_fit_cost_descends_with_iteration_budget():
    rng = np.random.default_rng(24)
    theta = KinematicParams(0.15, -0.1, 0.12, 10.0, -8.0, 1050.0)
    obs = _exact_obs(theta)
    noisy = [
        FeatureObservation(position=o.position + rng.normal(0, 0.3, 2), score=1.0, model_index=o.model_index)
        for o in obs
    ]
    init = KinematicParams(0.0, 0.0, 0.0, 0.0, 0.0, 1000.0)
    last = np.inf
    for budget in range(1, 8):
        report = fit_pose(init, MODEL, noisy, INTR, max_iterations=budget)
        assert report.rms_residual_px <= last + 1e-12
        last = report.rms_residual_px


def test_fit_covariance_depth_dominates():
    # depth is the least-constrained translation axis for a frontal planar target
    theta = KinematicParams(0.02, 0.01, 0.0, 0.0, 0.0, 1000.0)
    report = fit_pose(theta, MODEL, _exact_obs(theta), INTR)
    cov = report.covariance_diag
    assert cov.shape == (6,)
    assert cov[5] > cov[3] and cov[5] > cov[4]


def test_fit_gauge_shift_under_uniform_offset():
    rng = np.random.default_rng(25)
    theta = KinematicParams(0.05, -0.02, 0.03, 4.0, -6.0, 1000.0)
    base_obs = _exact_obs(theta)
    noise = rng.normal(0, 0.2, (len(base_obs), 2))
    noisy = [
        FeatureObservation(position=o.position + n, score=1.0, model_index=o.model_index)
        for o, n in zip(base_obs, noise)
    ]
    ref = fit_pose(theta, MODEL, noisy, INTR)
    shifts = []
    for du in (1.0, 2.0, 3.0):
        moved = [
            FeatureObservation(position=o.position + [du, 0.0], score=1.0, model_index=o.model_index)
            for o in noisy
        ]
        rep = fit_pose(ref.theta, MODEL, moved, INTR)
        # a rigid image-space offset is absorbed by the pose, not the residual
        assert rep.rms_residual_px <= ref.rms_residual_px * 1.1 + 1e-9
        shifts.append(rep.theta.theta4 - ref.theta.theta4)
    assert shifts[0] > 0.1  # 1 px at fx=4000, z=1000 is ~0.25 mm
    # response stays close to linear in the offset
    npt.assert_allclose(np.diff(shifts), shifts[0], rtol=0.2)


# ---------------------------------------------------------------------------
# initialization


def test_initialize_frontal_target():
    theta = KinematicParams(0.0, 0.0, 0.0, 0.0, 0.0, 1000.0)
    got = initialize_first_frame(MODEL, _exact_obs(theta), INTR)
    npt.assert_allclose(_theta_array(got)[:3], 0.0, atol=1e-6)
    npt.assert_allclose(_theta_array(got)[3:], [0.0, 0.0, 1000.0], atol=1e-3)


def test_initialize_tilted_target():
    theta = KinematicParams(0.2, -0.15, 0.1, 12.0, -9.0, 950.0)
    got = initialize_first_frame(MODEL, _exact_obs(theta), INTR)
    npt.assert_allclose(_theta_array(got), _theta_array(theta), atol=1e-4)


@pytest.mark.parametrize(
    "theta",
    [
        KinematicParams(0.05, -0.04, 0.03, 10.0, -5.0, 1000.0),
        KinematicParams(0.3, 0.2, -0.2, 80.0, 60.0, 1400.0),
    ],
)
def test_initialize_non_planar_target(theta):
    # Every third feature raised 8 mm off the board: initialization fits
    # from the frontal prior at the nominal depth, not from a homography.
    points = MODEL.points.copy()
    points[::3, 2] += 8.0
    model = GeometricTargetModel("raised", points)
    validate_asymmetry(model)
    got = initialize_first_frame(model, _exact_obs(theta, model), INTR)
    npt.assert_allclose(_theta_array(got), _theta_array(theta), atol=1e-6)


def test_initialize_needs_four_points():
    theta = KinematicParams(0, 0, 0, 0, 0, 1000.0)
    with pytest.raises(InsufficientCorrespondenceError):
        initialize_first_frame(MODEL, _exact_obs(theta)[:3], INTR)


# ---------------------------------------------------------------------------
# track_sequence


def test_track_constant_pose():
    theta = KinematicParams(0.05, 0.02, -0.04, 3.0, -2.0, 1000.0)
    frames = [_exact_obs(theta) for _ in range(20)]
    track = track_sequence(frames, MODEL, INTR)
    assert track.statuses == ["fitted"] * 20
    for report in track.reports:
        npt.assert_allclose(_theta_array(report.theta), _theta_array(theta), atol=1e-6)


def test_track_smooth_sway_noiseless():
    profile_t = np.arange(120) / 30.0
    frames = []
    truth = []
    for t in profile_t:
        theta = KinematicParams(
            0.01 * np.sin(2 * np.pi * 0.2 * t),
            0.008 * np.sin(2 * np.pi * 0.3 * t + 1.0),
            0.012 * np.sin(2 * np.pi * 0.25 * t + 2.0),
            6.0 * np.sin(2 * np.pi * 0.37 * t),
            3.0 * np.sin(2 * np.pi * 0.43 * t + 0.5),
            1000.0 + 10.0 * np.sin(2 * np.pi * 0.21 * t + 1.5),
        )
        truth.append(_theta_array(theta))
        frames.append(_exact_obs(theta))
    track = track_sequence(frames, MODEL, INTR)
    assert all(s == "fitted" for s in track.statuses)
    for report, want in zip(track.reports, truth):
        got = _theta_array(report.theta)
        assert np.max(np.abs(got[3:] - want[3:])) < 1e-3
        assert np.max(np.abs(got[:3] - want[:3])) < 1e-5


def test_track_gap_and_recovery():
    theta = KinematicParams(0.02, 0.01, 0.0, 1.0, -1.0, 1000.0)
    frames = [_exact_obs(theta) for _ in range(15)]
    frames[10] = frames[10][:2]  # starved frame
    track = track_sequence(frames, MODEL, INTR)
    assert track.statuses[10] == "gap"
    assert track.reports[10] is None
    assert track.statuses[9] == track.statuses[11] == "fitted"
    npt.assert_allclose(
        _theta_array(track.reports[11].theta), _theta_array(theta), atol=1e-6
    )


def test_track_all_gaps_raises():
    with pytest.raises(TrackingError):
        track_sequence([[], [], []], MODEL, INTR)


def test_track_noisy_sequence_warm_start_stays_locked():
    rng = np.random.default_rng(26)
    profile = np.arange(60) / 30.0
    frames = []
    for t in profile:
        theta = KinematicParams(0.0, 0.0, 0.0, 5.0 * np.sin(2 * np.pi * 0.4 * t), 0.0, 1000.0)
        obs = _exact_obs(theta)
        frames.append(
            [
                FeatureObservation(
                    position=o.position + rng.normal(0, 0.2, 2), score=1.0, model_index=o.model_index
                )
                for o in obs
            ]
        )
    track = track_sequence(frames, MODEL, INTR)
    assert all(s == "fitted" for s in track.statuses)
    # translation errors stay within a few noise standard deviations
    errs = [abs(r.theta.theta4 - 5.0 * np.sin(2 * np.pi * 0.4 * t)) for r, t in zip(track.reports, profile)]
    assert np.median(errs) < 0.2


def test_track_times_property():
    theta = KinematicParams(0, 0, 0, 0, 0, 1000.0)
    track = track_sequence([_exact_obs(theta)] * 5, MODEL, INTR, rate_hz=25.0)
    npt.assert_allclose(track.times, np.arange(5) / 25.0, atol=1e-12)


@pytest.mark.parametrize("rate", [0.0, -25.0, float("nan")])
def test_pose_track_rejects_a_rate_that_is_not_positive(rate):
    with pytest.raises(ValueError, match="rate_hz"):
        PoseTrack(rate_hz=rate, reports=[])


def test_track_with_rendered_observations():
    from swaykin import SwayProfile, generate_trajectory

    profile = SwayProfile(duration_sec=2.0, rate_hz=30.0, seed=5)
    theta = generate_trajectory(profile)
    frames = render_observations(theta, MODEL, INTR, NoiseSpec())
    track = track_sequence(frames, MODEL, INTR)
    assert all(s == "fitted" for s in track.statuses)
    for rep, row in zip(track.reports, theta):
        npt.assert_allclose(_theta_array(rep.theta), row, atol=1e-3)


# ---------------------------------------------------------------------------
# sequence smoother


def test_banded_smoother_matches_rts_recursion():
    # The information-form solve must give the Rauch-Tung-Striebel smoothed
    # mean of the white-jerk model.
    from scipy.linalg import solveh_banded

    from swaykin.pose import _JERK_F, _JERK_Q, _jerk_banded, _jerk_matrices

    rng = np.random.default_rng(27)
    T, density = 40, 0.05
    t = np.array([i for i in range(T) if i not in (7, 8, 20)])  # with gaps
    var = rng.uniform(0.5, 2.0, len(t))
    y = np.sin(0.2 * t) * 5.0 + rng.normal(0.0, np.sqrt(var))

    P0 = np.diag([100.0, 10.0, 1.0])  # the same proper initial prior for both
    ab = _jerk_banded(T, *_jerk_matrices(np.array([1.0 / density])))
    ab[0, :3] += 1.0 / np.diag(P0)
    ab[0, 3 * t] += 1.0 / var
    rhs = np.zeros((T, 3))
    rhs[t, 0] = y / var
    banded = solveh_banded(ab, rhs.ravel(), lower=True).reshape(T, 3)

    F, Q, H = _JERK_F, density * _JERK_Q, np.array([1.0, 0.0, 0.0])
    x, P = np.zeros(3), P0
    xf, Pf, xp, Pp = [], [], [], []
    meas = dict(zip(t.tolist(), zip(y, var)))
    for k in range(T):
        if k > 0:
            x, P = F @ x, F @ P @ F.T + Q
        xp.append(x)
        Pp.append(P)
        if k in meas:
            yk, rk = meas[k]
            gain = P @ H / (H @ P @ H + rk)
            x = x + gain * (yk - H @ x)
            P = P - np.outer(gain, H @ P)
        xf.append(x)
        Pf.append(P)
    xs = [xf[-1]]
    for k in range(T - 2, -1, -1):
        C = Pf[k] @ F.T @ np.linalg.inv(Pp[k + 1])
        xs.insert(0, xf[k] + C @ (xs[0] - xp[k + 1]))
    npt.assert_allclose(banded, np.array(xs), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize(
    "T, gaps, amplitude, omega", [(16, (5, 11), 3.0, 0.4), (9, (), 20.0, 0.5)], ids=["gappy", "short"]
)
def test_jerk_density_likelihood_matches_dense_computation(T, gaps, amplitude, omega):
    # Each density's negative log-likelihood against the dense normal
    # equations: the misfit at their solution plus slogdet. Below about 1e-4
    # the dense system is itself too ill-conditioned to compare, but the
    # chosen density must be the dense one. On the short run the shortcut
    # y^T R^-1 y - |L^-1 b|^2 picks the grid's smallest density instead.
    from swaykin.pose import _JERK_DENSITIES, _JERK_F, _JERK_Q, _jerk_nll

    rng = np.random.default_rng(41)
    t = np.array([i for i in range(T) if i not in gaps])
    var = rng.uniform(0.5, 2.0, len(t))
    y = amplitude * np.sin(omega * t) + rng.normal(0.0, np.sqrt(var))
    D = np.zeros((3 * (T - 1), 3 * T))  # jerk increments z[k+1] - F z[k]
    for k in range(T - 1):
        D[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = -_JERK_F
        D[3 * k : 3 * k + 3, 3 * k + 3 : 3 * k + 6] = np.eye(3)
    prior = D.T @ np.kron(np.eye(T - 1), np.linalg.inv(_JERK_Q)) @ D
    H = np.zeros((len(t), 3 * T))
    H[np.arange(len(t)), 3 * t] = 1.0
    dense = []
    for density in _JERK_DENSITIES:
        A = prior / density + H.T @ (H / var[:, None])
        z = np.linalg.solve(A, H.T @ (y / var))
        misfit = np.sum((y - H @ z) ** 2 / var) + z @ prior @ z / density
        dense.append(misfit + np.linalg.slogdet(A)[1] + 3 * (T - 1) * np.log(density))
    nll = _jerk_nll(t, y, var, T)
    conditioned = _JERK_DENSITIES >= 1e-4
    npt.assert_allclose(nll[conditioned], np.array(dense)[conditioned], rtol=1e-8)
    assert np.argmin(nll) == np.argmin(dense) > 0


def _noisy_frames(n, seed, sigma=0.2):
    rng = np.random.default_rng(seed)
    frames, truth = [], []
    for t in np.arange(n) / 30.0:
        theta = KinematicParams(
            0.01 * np.sin(2 * np.pi * 0.3 * t), 0.0, 0.0,
            5.0 * np.sin(2 * np.pi * 0.4 * t), 0.0, 1000.0 + 4.0 * np.sin(2 * np.pi * 0.2 * t),
        )
        truth.append(_theta_array(theta))
        frames.append(
            [
                FeatureObservation(
                    position=o.position + rng.normal(0, sigma, 2), score=1.0, model_index=o.model_index
                )
                for o in _exact_obs(theta)
            ]
        )
    return frames, np.array(truth)


def _per_frame_fits(frames):
    """Per-frame fits, each warm-started from the previous one. On dense
    frames each reaches the minimum of track_sequence's two passes."""
    prev, fits = initialize_first_frame(MODEL, frames[0], INTR), []
    for obs in frames:
        fits.append(fit_pose(prev, MODEL, obs, INTR))
        prev = fits[-1].theta
    return fits


def test_track_reports_describe_smoothed_pose():
    frames, _ = _noisy_frames(90, seed=28)
    track = track_sequence(frames, MODEL, INTR)
    assert all(rep.converged for rep in track.reports)
    for obs, rep, own in zip(frames, track.reports, _per_frame_fits(frames)):
        # The smoothed pose is not the frame's own optimum ...
        assert rep.rms_residual_px > own.rms_residual_px
        # ... and every field of the report is evaluated there.
        here = fit_pose(rep.theta, MODEL, obs, INTR, max_iterations=0)
        assert here.iterations == 0
        assert rep.rms_residual_px == pytest.approx(here.rms_residual_px, rel=1e-9)
        npt.assert_allclose(rep.covariance_diag, here.covariance_diag, rtol=1e-6)
        assert rep.degenerate == here.degenerate
        assert (rep.iterations, rep.converged) == (own.iterations, own.converged)


def test_track_smoother_projects_once_per_trial(monkeypatch, caplog):
    from swaykin import pose

    calls = {"_project": 0, "_gauss_newton_step": 0}

    def counted(name):
        fn = getattr(pose, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pose, name, counted(name))
    smooth, at_start = pose._smooth_poses, []

    def smooth_counted(*args, **kwargs):
        at_start.append(calls["_project"])
        return smooth(*args, **kwargs)

    monkeypatch.setattr(pose, "_smooth_poses", smooth_counted)
    caplog.set_level(logging.DEBUG, logger="swaykin.pose")
    frames, _ = _noisy_frames(90, seed=34)
    track_sequence(frames, MODEL, INTR)
    assert "keeping the per-frame fits" not in caplog.text
    trials = calls["_gauss_newton_step"]
    passes = int(re.search(r"settled after (\d+) passes", caplog.text).group(1))
    assert trials >= passes > 1
    # From the smoother's start to the reports: the starting cost's
    # projection, one per trial, one per pass, which linearizes at the poses
    # that the pass starts from, and one at the settled poses for the reports.
    assert calls["_project"] - at_start[0] == trials + passes + 2


def test_track_reports_on_long_sparse_run_match_fresh_evaluation(caplog):
    # Over 256 fitted frames with differing feature counts: the whole run is
    # linearized at once, in a padded stack.
    model = default_target("shoulder")
    truth = generate_trajectory(SwayProfile(duration_sec=10, seed=5))
    frames = render_observations(truth, model, INTR, NoiseSpec(0.3, 0.5, 5))
    track = track_sequence(frames, model, INTR)
    assert "keeping the per-frame fits" not in caplog.text
    fitted = [(obs, rep) for obs, rep in zip(frames, track.reports) if rep is not None]
    assert len(fitted) > 256
    assert len({len(obs) for obs, _ in fitted}) > 1
    for obs, rep in fitted:
        here = fit_pose(rep.theta, model, obs, INTR, max_iterations=0)
        assert rep.rms_residual_px == pytest.approx(here.rms_residual_px, rel=1e-6)
        npt.assert_allclose(rep.covariance_diag, here.covariance_diag, rtol=1e-6)
        assert rep.degenerate == here.degenerate


def test_track_smoother_damps_a_singular_system(monkeypatch, caplog):
    from swaykin import pose

    step, calls = pose._gauss_newton_step, []

    def singular_once(*args):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Matrix is singular")
        return step(*args)

    monkeypatch.setattr(pose, "_gauss_newton_step", singular_once)
    caplog.set_level(logging.DEBUG, logger="swaykin.pose")
    frames, _ = _noisy_frames(60, seed=30)
    track = track_sequence(frames, MODEL, INTR)
    assert "keeping the per-frame fits" not in caplog.text
    assert "pose smoother settled" in caplog.text
    assert len(calls) > 2
    own = _per_frame_fits(frames)
    assert any(rep.theta != fit.theta for rep, fit in zip(track.reports, own))


@pytest.mark.parametrize("deficient", [False, True])
def test_evaluate_covariance_is_the_pinv_of_the_normal_matrix(deficient):
    from swaykin import pose

    frames, truth = _noisy_frames(30, seed=31)
    stack = pose._stack_observations(MODEL, frames)
    r, J = pose._linearize(truth, stack, INTR)
    if deficient:
        J[::2, :, 5] = J[::2, :, 4]
        J[1::4, :, 2] = 0.0
    _, cov, degenerate = pose._evaluate(r, J, stack[2])
    ref = np.diagonal(np.linalg.pinv(np.swapaxes(J, 1, 2) @ J), axis1=1, axis2=2)
    npt.assert_allclose(cov, ref, rtol=1e-9, atol=1e-20)
    sv = np.linalg.svd(J, compute_uv=False)
    assert np.array_equal(degenerate, sv[:, -1] < 1e-10 * sv[:, 0])
    assert degenerate.sum() == (23 if deficient else 0)


def test_track_smoother_falls_back_to_scipy_linalg_lapack(monkeypatch, caplog):
    # Where scipy's LAPACK extension is not found by its file, the smoother
    # takes the same routines from scipy.linalg.lapack, bit for bit. Each
    # side gets its own cache of the loader, and the extension is taken out
    # of sys.modules, so that the first side loads it from its file.
    from scipy.linalg import lapack

    from swaykin import pose

    frames, _ = _noisy_frames(60, seed=30)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    tracks = []
    for suffixes in (importlib.machinery.EXTENSION_SUFFIXES, []):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", suffixes)
        monkeypatch.setattr(pose, "_lapack", functools.cache(pose._lapack.__wrapped__))
        assert (pose._lapack() is lapack) == (not suffixes)
        tracks.append(track_sequence(frames, MODEL, INTR))
    assert "keeping the per-frame fits" not in caplog.text
    direct, fallback = tracks
    assert direct.statuses == fallback.statuses
    for a, b in zip(direct.reports, fallback.reports):
        assert (a.theta, a.rms_residual_px, a.iterations, a.converged, a.degenerate) == (
            b.theta, b.rms_residual_px, b.iterations, b.converged, b.degenerate
        )
        assert np.array_equal(a.covariance_diag, b.covariance_diag)


def _assert_chain_fit(rep, own, depth_mm=0.01):
    """A kept per-frame fit within the solver's stopping precision of
    ``own``, a fit of that frame from the same start: one minimum, whose cost
    the two meet to 1e-4 (the cost-decrease rule stops at 1e-6 per step),
    and, far inside the noise, the same depth."""
    assert rep.rms_residual_px**2 == pytest.approx(own.rms_residual_px**2, rel=1e-4)
    assert abs(rep.theta.theta6 - own.theta.theta6) < depth_mm
    assert rep.converged == own.converged


@pytest.mark.parametrize("failure", ["unsettled", "singular"])
def test_track_keeps_per_frame_fits_when_smoother_fails(monkeypatch, caplog, failure):
    from swaykin import pose

    if failure == "unsettled":
        monkeypatch.setattr(pose, "_SMOOTHER_MAX_PASSES", 1)
    else:

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("3th leading minor not positive definite")

        monkeypatch.setattr(pose, "_smooth_poses", singular)
    frames, _ = _noisy_frames(60, seed=30)
    track = track_sequence(frames, MODEL, INTR)
    assert "keeping the per-frame fits" in caplog.text
    for rep, own in zip(track.reports, _per_frame_fits(frames)):
        _assert_chain_fit(rep, own)


def test_track_fit_failures_warn_once(monkeypatch, caplog):
    # Frames 3, 7, 11 and 15 refuse every fit, in both passes: each becomes
    # a gap, named in one warning, and its successor is fitted from the last
    # fitted frame's pose.
    from swaykin import pose

    frames, _ = _noisy_frames(30, seed=32)
    failing, fit = {3, 7, 11, 15}, pose._fit
    keys = {tuple(frames[i][0].position) for i in failing}

    def fail_on_some(th, points, uv, mask, *args):
        poses, iterations, converged, ok = fit(th, points, uv, mask, *args)
        refused = np.array([tuple(row[0]) in keys for row in uv])
        poses[refused], ok[refused] = th[refused], False
        return poses, iterations, converged, ok

    monkeypatch.setattr(pose, "_fit", fail_on_some)
    track = track_sequence(frames, MODEL, INTR)
    assert {i for i, s in enumerate(track.statuses) if s == "gap"} == failing
    lines = [r.getMessage() for r in caplog.records if "could not be fitted" in r.getMessage()]
    assert lines == ["4 of 30 frames could not be fitted and are gaps: 3, 7, 11, 15"]
    monkeypatch.setattr(pose, "_SMOOTHER_MAX_PASSES", 1)
    track = track_sequence(frames, MODEL, INTR)
    kept = [i for i in range(30) if i not in failing]
    chain = _per_frame_fits([frames[i] for i in kept])
    for i, own in zip(kept, chain):
        _assert_chain_fit(track.reports[i], own)


def test_track_sparse_fits_agree_with_refits_from_their_predecessors(monkeypatch):
    # Shoulder at 0.5 px and 70 % dropout. Fitted from the first frame's
    # pose, many frames land on the other branch of the planar pose
    # ambiguity, mm away in depth; every kept fit is the one that a fit from
    # its predecessor's fit from the first frame's pose reaches.
    from swaykin import pose

    monkeypatch.setattr(pose, "_SMOOTHER_MAX_PASSES", 0)  # reports keep the per-frame fits
    model = default_target("shoulder")
    truth = generate_trajectory(SwayProfile(duration_sec=10, seed=2))
    frames = render_observations(truth, model, INTR, NoiseSpec(0.5, 0.7, 2))
    track = track_sequence(frames, model, INTR)
    fitted = [i for i, rep in enumerate(track.reports) if rep is not None]
    assert fitted == [i for i, obs in enumerate(frames) if len(obs) >= 4]
    start = initialize_first_frame(model, frames[fitted[0]], INTR)
    shared = [fit_pose(start, model, frames[i], INTR) for i in fitted]
    assert sum(abs(f.theta.theta6 - track.reports[i].theta.theta6) > 1.0 for f, i in zip(shared, fitted)) > 10
    for k, i in enumerate(fitted[1:]):
        _assert_chain_fit(track.reports[i], fit_pose(shared[k].theta, model, frames[i], INTR), depth_mm=0.1)


def _depths(track):
    """The reported depth (theta6, mm) of each frame; NaN at a gap."""
    return np.array([np.nan if rep is None else rep.theta.theta6 for rep in track.reports])


def test_track_sparse_depth_error_sd():
    # Shoulder at 0.3 px and 50 % dropout, 20 s runs: the SD of the depth
    # error over the fitted frames, in the median over six seeds (0.357 mm
    # measured; 0.398 mm when every frame was refitted until it matched a
    # sequential warm-started chain).
    model = default_target("shoulder")
    sds = []
    for s in range(1, 7):
        truth = generate_trajectory(SwayProfile(duration_sec=20, seed=s))
        frames = render_observations(truth, model, INTR, NoiseSpec(0.3, 0.5, s))
        err = _depths(track_sequence(frames, model, INTR)) - truth[:, 5]
        sds.append(np.std(err[np.isfinite(err)]))
    assert np.median(sds) <= 0.38


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_track_reversed_run_gives_the_same_depths(seed):
    # Lumbar at 0.2 px and 1 % dropout, 20 s: nothing in a sway estimate has
    # a direction in time, so the run tracked backwards and flipped back
    # gives the same depths, to the smoother's stopping precision (at most
    # 1e-4 mm measured).
    truth = generate_trajectory(SwayProfile(duration_sec=20, seed=seed))
    frames = render_observations(truth, MODEL, INTR, NoiseSpec(0.2, 0.01, seed))
    forward = _depths(track_sequence(frames, MODEL, INTR))
    backward = _depths(track_sequence(frames[::-1], MODEL, INTR))[::-1]
    assert np.array_equal(np.isnan(forward), np.isnan(backward))
    assert np.nanmax(np.abs(forward - backward)) < 1e-3


@pytest.mark.parametrize("target, sigma_px, dropout", [("lumbar", 0.2, 0.01), ("shoulder", 0.3, 0.5)])
def test_track_ignores_the_order_of_observations_within_a_frame(target, sigma_px, dropout):
    # The observations of each frame shuffled: only rounding moves, far
    # below the noise (at most 2e-7 mm measured).
    model = default_target(target)
    truth = generate_trajectory(SwayProfile(duration_sec=20, seed=5))
    frames = render_observations(truth, model, INTR, NoiseSpec(sigma_px, dropout, 5))
    rng = np.random.default_rng(5)
    shuffled = [[obs[k] for k in rng.permutation(len(obs))] for obs in frames]
    ordered, mixed = _depths(track_sequence(frames, model, INTR)), _depths(track_sequence(shuffled, model, INTR))
    assert np.array_equal(np.isnan(ordered), np.isnan(mixed))
    assert np.nanmax(np.abs(ordered - mixed)) <= 1e-6


def test_track_rank_deficient_frames_warn_once(caplog):
    # Frames 10-14 see only one row of the grid: four collinear points, which
    # leave the rotation about that row unobserved.
    frames, _ = _noisy_frames(30, seed=33)
    row = {3, 4, 5, 6}
    for k in range(10, 15):
        frames[k] = [o for o in frames[k] if o.model_index in row]
    track = track_sequence(frames, MODEL, INTR)
    assert [i for i, rep in enumerate(track.reports) if rep.degenerate] == list(range(10, 15))
    lines = [r.getMessage() for r in caplog.records if "rank deficient" in r.getMessage()]
    assert len(lines) == 1
    assert "5 of 30 frames: 10, 11, 12, 13, 14" in lines[0]


def test_track_smoothing_beats_per_frame_fits_and_keeps_gaps():
    frames, truth = _noisy_frames(150, seed=29)
    frames[40] = frames[40][:3]
    frames[41] = []
    track = track_sequence(frames, MODEL, INTR)
    assert track.statuses[40] == track.statuses[41] == "gap"
    assert track.reports[40] is None and track.reports[41] is None
    smoothed, single = [], []
    for i, rep in enumerate(track.reports):
        if rep is None:
            continue
        smoothed.append(rep.theta.theta6 - truth[i, 5])
        single.append(fit_pose(rep.theta, MODEL, frames[i], INTR).theta.theta6 - truth[i, 5])
    assert np.std(smoothed) < 0.5 * np.std(single)


def test_track_smoother_settles_where_undamped_passes_do_not(caplog):
    # Sparse noisy frames: undamped Gauss-Newton passes never settle on this
    # run, and its per-frame fits have a depth error SD near 2.7 mm.
    model = default_target("shoulder")
    truth = generate_trajectory(SwayProfile(duration_sec=20, seed=11))
    frames = render_observations(truth, model, INTR, NoiseSpec(0.3, 0.5, 11))
    track = track_sequence(frames, model, INTR)
    assert "keeping the per-frame fits" not in caplog.text
    err = [rep.theta.theta6 - truth[i, 5] for i, rep in enumerate(track.reports) if rep is not None]
    assert np.std(err) < 0.6


def test_track_smoother_settles_on_very_sparse_frames(caplog):
    # 0.5 px noise and 70 % dropout: the smoother's steps shrink only
    # linearly, and the per-frame fits have a depth error SD near 5 mm.
    model = default_target("shoulder")
    truth = generate_trajectory(SwayProfile(duration_sec=20, seed=7))
    frames = render_observations(truth, model, INTR, NoiseSpec(0.5, 0.7, 7))
    track = track_sequence(frames, model, INTR)
    assert "keeping the per-frame fits" not in caplog.text
    err = [rep.theta.theta6 - truth[i, 5] for i, rep in enumerate(track.reports) if rep is not None]
    assert np.std(err) < 1.0


def test_track_noiseless_keeps_per_frame_fits():
    frames = [
        _exact_obs(KinematicParams(0.01 * k / 30, 0.0, 0.0, 0.1 * k, 0.0, 1000.0)) for k in range(30)
    ]
    track = track_sequence(frames, MODEL, INTR)
    for obs, rep in zip(frames, track.reports):
        fit = fit_pose(rep.theta, MODEL, obs, INTR)
        npt.assert_allclose(_theta_array(rep.theta), _theta_array(fit.theta), atol=1e-7)
        assert rep.converged


@pytest.mark.parametrize("index", [99, -1])
def test_track_refuses_model_index_outside_target_on_short_frame(index):
    # A frame too short to fit is still checked, as a long frame is.
    theta = KinematicParams(0.02, 0.01, 0.0, 1.0, -1.0, 1000.0)
    frames = [_exact_obs(theta) for _ in range(6)]
    o = frames[3][0]
    frames[3] = [FeatureObservation(o.position, o.score, model_index=index), *frames[3][1:3]]
    with pytest.raises(ValueError, match=f"model_index {index} is outside \\[0, 15\\)"):
        track_sequence(frames, MODEL, INTR)


def _unindexed(obs, k=0):
    """``obs`` with observation ``k`` stripped of its model_index."""
    o = obs[k]
    return [*obs[:k], FeatureObservation(o.position, o.score), *obs[k + 1:]]


@pytest.mark.parametrize("frame, size", [(3, 3), (3, 15), (0, 15)], ids=["short", "fittable", "first"])
def test_track_refuses_an_observation_without_model_index(frame, size):
    theta = KinematicParams(0.02, 0.01, 0.0, 1.0, -1.0, 1000.0)
    frames = [_exact_obs(theta) for _ in range(6)]
    frames[frame] = _unindexed(frames[frame][:size], k=1)
    with pytest.raises(ValueError, match="all observations must carry a model_index"):
        track_sequence(frames, MODEL, INTR)


def test_single_frame_solvers_refuse_an_observation_without_model_index():
    obs = _unindexed(_exact_obs(HOME), k=4)
    message = "all observations must carry a model_index"
    with pytest.raises(ValueError, match=message):
        fit_pose(HOME, MODEL, obs, INTR)
    with pytest.raises(ValueError, match=message):
        initialize_first_frame(MODEL, obs, INTR)


def test_track_reports_the_first_bad_model_index_in_frame_order():
    # Fittable frame 1 comes before short frame 3, so its index is the one named.
    theta = KinematicParams(0.02, 0.01, 0.0, 1.0, -1.0, 1000.0)
    frames = [_exact_obs(theta) for _ in range(6)]
    o = frames[1][2]
    frames[1][2] = FeatureObservation(o.position, o.score, model_index=99)
    o = frames[3][0]
    frames[3] = [FeatureObservation(o.position, o.score, model_index=42), *frames[3][1:3]]
    with pytest.raises(ValueError, match="model_index 99 is outside \\[0, 15\\)"):
        track_sequence(frames, MODEL, INTR)


@pytest.mark.parametrize("as_columns", [False, True], ids=["lists", "columns"])
def test_track_refuses_a_frame_that_lists_a_model_index_twice(as_columns):
    # A second observation of feature 2, 40 px off, would otherwise be fitted
    # with the first and enter the pooled noise; frame 4 is named, not 6.
    frames, _ = _noisy_frames(8, seed=3)
    for k in (6, 4):
        o = frames[k][2]
        frames[k].append(FeatureObservation(o.position + [40.0, 0.0], o.score, model_index=2))
    with pytest.raises(ValueError, match="^frame 4 lists model_index 2 twice$"):
        track_sequence(FeatureColumns.from_frames(frames) if as_columns else frames, MODEL, INTR)

