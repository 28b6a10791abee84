"""Synthetic trajectory, observation and frame-render tests."""

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    CameraIntrinsics,
    GeometricTargetModel,
    KinematicParams,
    NoiseSpec,
    RigidTransform,
    SwayProfile,
    default_target,
    detect_refined,
    generate_trajectory,
    motion_matrix,
    project,
    render_frame,
    render_observations,
)
from swaykin.synth import DEFAULT_INTRINSICS


def _grid16_model():
    ys, xs = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    pts = np.column_stack([xs.ravel() * 20.0, ys.ravel() * 20.0, np.zeros(16)])
    return GeometricTargetModel("grid16", pts)


# ---------------------------------------------------------------------------
# generate_trajectory


def test_zero_amplitude_trajectory_constant():
    profile = SwayProfile(
        duration_sec=5.0,
        rate_hz=30.0,
        translation_amplitude_mm=(0, 0, 0),
        rotation_amplitude_rad=(0, 0, 0),
    )
    theta = generate_trajectory(profile)
    assert theta.shape == (150, 6)
    npt.assert_array_equal(theta, np.tile([0, 0, 0, 0, 0, 1000.0], (150, 1)))


def test_trajectory_amplitude_envelope():
    profile = SwayProfile(
        duration_sec=60.0,
        rate_hz=30.0,
        translation_amplitude_mm=(0.0, 0.0, 10.0),
        translation_freq_hz=(0.3, 0.3, 0.3),
        rotation_amplitude_rad=(0, 0, 0),
        seed=3,
    )
    theta = generate_trajectory(profile)
    dz = theta[:, 5] - 1000.0
    # the sampled maximum sits just inside the continuous +-10 envelope
    assert np.max(np.abs(dz)) <= 10.0 + 1e-12
    assert 10.0 - np.max(dz) <= 0.05
    assert 10.0 + np.min(dz) <= 0.05


def test_trajectory_seed_reproducible():
    p1 = SwayProfile(duration_sec=3.0, seed=9)
    p2 = SwayProfile(duration_sec=3.0, seed=9)
    npt.assert_array_equal(generate_trajectory(p1), generate_trajectory(p2))
    p3 = SwayProfile(duration_sec=3.0, seed=10)
    assert not np.array_equal(generate_trajectory(p1), generate_trajectory(p3))


def test_trajectory_base_pose_offsets():
    base = KinematicParams(0.02, -0.01, 0.03, 5.0, -4.0, 900.0)
    profile = SwayProfile(
        duration_sec=2.0,
        translation_amplitude_mm=(0, 0, 0),
        rotation_amplitude_rad=(0, 0, 0),
    )
    theta = generate_trajectory(profile, base_pose=base)
    npt.assert_allclose(theta[0], [0.02, -0.01, 0.03, 5.0, -4.0, 900.0], atol=1e-15)


def test_profile_validation():
    with pytest.raises(ValueError):
        SwayProfile(duration_sec=-1.0)
    with pytest.raises(ValueError):
        SwayProfile(rate_hz=0.0)
    with pytest.raises(ValueError):
        SwayProfile(translation_amplitude_mm=(-1.0, 0, 0))
    with pytest.raises(ValueError):
        # rotation amplitude would sweep through the gimbal guard
        SwayProfile(rotation_amplitude_rad=(0.0, 1.6, 0.0))


# ---------------------------------------------------------------------------
# render_observations


def test_observations_noiseless_match_projection():
    model = default_target("lumbar")
    profile = SwayProfile(duration_sec=1.0, rate_hz=10.0, seed=2)
    theta = generate_trajectory(profile)
    frames = render_observations(theta, model, DEFAULT_INTRINSICS, NoiseSpec())
    assert len(frames) == 10
    for row, obs in zip(theta, frames):
        assert [o.model_index for o in obs] == list(range(len(model.points)))
        from swaykin import motion_matrix

        M = motion_matrix(KinematicParams(*row))
        uv = project(DEFAULT_INTRINSICS, RigidTransform(M[:3, :3], M[:3, 3]), model.points)
        got = np.array([o.position for o in obs])
        npt.assert_allclose(got, uv, atol=1e-12)


def test_observations_noise_magnitude():
    model = default_target("lumbar")
    theta = np.tile([0, 0, 0, 0, 0, 1000.0], (700, 1))
    clean = render_observations(theta, model, DEFAULT_INTRINSICS, NoiseSpec())
    noisy = render_observations(theta, model, DEFAULT_INTRINSICS, NoiseSpec(sigma_px=0.5, seed=8))
    deltas = []
    for c_frame, n_frame in zip(clean, noisy):
        for c, n in zip(c_frame, n_frame):
            deltas.append(n.position - c.position)
    deltas = np.array(deltas).ravel()
    assert len(deltas) >= 2 * 10000
    assert abs(np.std(deltas) - 0.5) < 0.025  # within 5%


def test_observations_dropout_rate():
    model = default_target("lumbar")
    theta = np.tile([0, 0, 0, 0, 0, 1000.0], (200, 1))
    frames = render_observations(theta, model, DEFAULT_INTRINSICS, NoiseSpec(dropout=0.9, seed=4))
    kept = sum(len(f) for f in frames)
    # Binomial(3000, 0.1): mean 300, sd ~16.4
    assert abs(kept - 300) < 5 * 16.5


def test_observations_dropout_preserves_indices():
    model = default_target("lumbar")
    theta = np.tile([0, 0, 0, 0, 0, 1000.0], (50, 1))
    frames = render_observations(theta, model, DEFAULT_INTRINSICS, NoiseSpec(dropout=0.5, seed=5))
    for obs in frames:
        idx = [o.model_index for o in obs]
        assert idx == sorted(idx)
        assert all(0 <= i < 15 for i in idx)


def test_observations_seeded_reproducible():
    model = default_target("lumbar")
    theta = np.tile([0, 0, 0, 0, 0, 1000.0], (20, 1))
    spec = NoiseSpec(sigma_px=0.3, dropout=0.1, seed=77)
    f1 = render_observations(theta, model, DEFAULT_INTRINSICS, spec)
    f2 = render_observations(theta, model, DEFAULT_INTRINSICS, spec)
    for a_frame, b_frame in zip(f1, f2):
        assert len(a_frame) == len(b_frame)
        for a, b in zip(a_frame, b_frame):
            npt.assert_array_equal(a.position, b.position)
            assert a.model_index == b.model_index


def test_observations_match_per_frame_reference():
    # The reference projects and corrupts one frame at a time, drawing the
    # dropout and then the noise of each frame from one stream.
    model = default_target("lumbar")
    intr = CameraIntrinsics(fx=4000, fy=4000, x0=1024, y0=1024, k1=-0.08)
    theta = generate_trajectory(SwayProfile(duration_sec=2.0, seed=4))
    noise = NoiseSpec(sigma_px=0.3, dropout=0.2, seed=9)
    rng = np.random.default_rng(noise.seed)
    want = []
    for row in theta:
        M = motion_matrix(KinematicParams.from_array(row))
        uv = project(intr, RigidTransform.identity(), model.points @ M[:3, :3].T + M[:3, 3], apply_distortion=True)
        keep = rng.random(len(uv)) >= noise.dropout
        uv = uv + rng.normal(0.0, noise.sigma_px, uv.shape)
        want.append([(i, uv[i]) for i in range(len(uv)) if keep[i]])
    got = render_observations(theta, model, intr, noise)
    assert [[o.model_index for o in f] for f in got] == [[i for i, _ in f] for f in want]
    for frame, ref in zip(got, want):
        npt.assert_array_equal([o.position for o in frame], [p for _, p in ref])


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma_px=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(dropout=1.0)


# ---------------------------------------------------------------------------
# render_frame


def test_render_frame_detects_all_junctions():
    model = _grid16_model()
    intr = CameraIntrinsics(fx=2000, fy=2000, x0=140, y0=140)
    theta = KinematicParams(0.0, 0.0, 0.0, -30.0 + 0.123, -30.0 - 0.241, 1000.0)
    img = render_frame(theta, model, intrinsics=intr, image_size=(280, 280))
    assert img.shape == (280, 280)
    assert img.min() >= 0.0 and img.max() <= 1.0

    from swaykin import motion_matrix

    M = motion_matrix(theta)
    truth = project(intr, RigidTransform.identity(), model.points @ M[:3, :3].T + M[:3, 3])
    dets = detect_refined(img)
    pos = np.array([d.position for d in dets])
    hits = 0
    for t in truth:
        if np.min(np.linalg.norm(pos - t, axis=1)) < 0.5:
            hits += 1
    assert hits >= 0.95 * len(truth)


def test_render_frame_offscreen_target_uniform(caplog):
    model = _grid16_model()
    intr = CameraIntrinsics(fx=2000, fy=2000, x0=140, y0=140)
    theta = KinematicParams(0.0, 0.0, 0.0, 500.0, 500.0, 1000.0)  # far outside the frame
    with caplog.at_level("WARNING"):
        img = render_frame(theta, model, intrinsics=intr, image_size=(280, 280))
    npt.assert_array_equal(img, np.full((280, 280), 0.5))
    assert [r.getMessage() for r in caplog.records] == ["16 of 16 features outside the image; skipped"]


def test_render_frame_patch_size_does_not_move_centers():
    model = _grid16_model()
    intr = CameraIntrinsics(fx=2000, fy=2000, x0=140, y0=140)
    theta = KinematicParams(0.01, -0.02, 0.015, -30.3, -29.6, 1000.0)
    img_a = render_frame(theta, model, intrinsics=intr, image_size=(280, 280), patch_half_px=8.0)
    img_b = render_frame(theta, model, intrinsics=intr, image_size=(280, 280), patch_half_px=16.0)
    det_a = np.array(sorted(tuple(d.position) for d in detect_refined(img_a)))
    det_b = np.array(sorted(tuple(d.position) for d in detect_refined(img_b)))
    assert len(det_a) == len(det_b) == 16
    npt.assert_allclose(det_a, det_b, atol=0.1)


def test_render_frame_matches_projector():
    # rendered-then-refined centers agree with the analytic projection
    model = _grid16_model()
    intr = CameraIntrinsics(fx=2000, fy=2000, x0=140, y0=140)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10):
        du, dv = rng.uniform(-0.5, 0.5, 2)
        theta = KinematicParams(0.0, 0.0, 0.0, -30.0 + du / 2.0, -30.0 + dv / 2.0, 1000.0)
        img = render_frame(theta, model, intrinsics=intr, image_size=(280, 280))
        from swaykin import motion_matrix

        M = motion_matrix(theta)
        truth = project(intr, RigidTransform.identity(), model.points @ M[:3, :3].T + M[:3, 3])
        pos = np.array([d.position for d in detect_refined(img)])
        for t in truth:
            worst = max(worst, float(np.min(np.linalg.norm(pos - t, axis=1))))
    assert worst < 0.05


def test_render_frame_deterministic():
    model = _grid16_model()
    intr = CameraIntrinsics(fx=2000, fy=2000, x0=140, y0=140)
    theta = KinematicParams(0.0, 0.0, 0.0, -30.0, -30.0, 1000.0)
    img1 = render_frame(theta, model, intrinsics=intr, image_size=(280, 280))
    img2 = render_frame(theta, model, intrinsics=intr, image_size=(280, 280))
    npt.assert_array_equal(img1, img2)
