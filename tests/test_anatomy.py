"""Anatomical mapping, smoothing, resampling and gap handling tests."""

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    AnatomicalFrame,
    KinematicParams,
    RigidTransform,
    SwayTrajectory,
    anatomical_from_board,
    interpolate_gaps,
    motion_matrix,
    resample_linear,
    savitzky_golay,
    sway_from_poses,
    to_anatomical,
    virtual_point,
)


def _traj(samples, rate=30.0, valid=None, label="seg", t0=0.0):
    s = np.asarray(samples, dtype=float)
    if s.ndim == 1:
        s = np.column_stack([s, np.zeros_like(s), np.zeros_like(s)])
    if valid is None:
        valid = np.ones(len(s), dtype=bool)
    return SwayTrajectory(sample_rate_hz=rate, label=label, samples=s, valid=np.asarray(valid, bool), t0=t0)


def _frame_from(theta):
    M = motion_matrix(theta)
    return AnatomicalFrame.from_transform(RigidTransform(M[:3, :3], M[:3, 3]))


# ---------------------------------------------------------------------------
# coordinate mapping


def test_to_anatomical_identity_frame():
    frame = AnatomicalFrame(np.eye(4))
    pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 9.0]])
    npt.assert_allclose(to_anatomical(frame, pts), pts, atol=1e-15)


def test_to_anatomical_pure_translation():
    frame = _frame_from(KinematicParams(0, 0, 0, 10.0, -5.0, 1000.0))
    p = to_anatomical(frame, np.array([10.0, -5.0, 1020.0]))
    npt.assert_allclose(p, [0.0, 0.0, 20.0], atol=1e-12)


def test_to_anatomical_roundtrip():
    rng = np.random.default_rng(41)
    for _ in range(25):
        theta = KinematicParams(*rng.uniform(-0.8, 0.8, 3), *rng.uniform(-100, 100, 3))
        frame = _frame_from(theta)
        pts = rng.uniform(-200, 200, (12, 3))
        board = to_anatomical(frame, pts)
        back = board @ frame.matrix[:3, :3].T + frame.matrix[:3, 3]
        npt.assert_allclose(back, pts, atol=1e-12)


def test_to_anatomical_invariant_under_shared_rigid_motion():
    # moving both camera and scene by the same rigid transform changes nothing
    rng = np.random.default_rng(42)
    theta = KinematicParams(0.1, -0.2, 0.15, 20.0, -30.0, 900.0)
    frame = _frame_from(theta)
    pts = rng.uniform(-100, 100, (20, 3))
    board = to_anatomical(frame, pts)

    G = motion_matrix(KinematicParams(0.4, 0.2, -0.3, 50.0, -20.0, 10.0))
    M2 = G @ frame.matrix
    frame2 = AnatomicalFrame(M2)
    pts2 = pts @ G[:3, :3].T + G[:3, 3]
    board2 = to_anatomical(frame2, pts2)
    npt.assert_allclose(board2, board, atol=1e-9)


def test_anatomical_axis_ordering():
    # board (x, y, z) carries (ML, SI, AP); output order is (AP, ML, SI)
    out = anatomical_from_board(np.array([1.0, 2.0, 3.0]))
    npt.assert_array_equal(out, [3.0, 1.0, 2.0])


def test_sway_from_poses_matches_per_pose_reference():
    rng = np.random.default_rng(31)
    frame = _frame_from(KinematicParams(0.3, -0.2, 0.1, 40.0, -25.0, 1200.0))
    theta = np.column_stack(
        [rng.uniform(-0.4, 0.4, (20, 3)), rng.uniform(-60.0, 60.0, (20, 2)), rng.uniform(800.0, 1400.0, 20)]
    )
    for offset in (np.array([12.0, -7.0, 100.0]), None):
        delta = np.zeros(3) if offset is None else offset
        ref = np.stack(
            [
                anatomical_from_board(to_anatomical(frame, virtual_point(KinematicParams.from_array(row), delta)))
                for row in theta
            ]
        )
        npt.assert_allclose(sway_from_poses(theta, offset, frame), ref, rtol=0, atol=1e-9)


def test_frame_rejects_non_rigid_matrix():
    M = np.eye(4)
    M[0, 0] = 2.0
    with pytest.raises(ValueError):
        AnatomicalFrame(M)


def test_frame_rejects_reflection():
    with pytest.raises(ValueError, match="proper"):
        AnatomicalFrame(np.diag([1.0, 1.0, -1.0, 1.0]))


# ---------------------------------------------------------------------------
# Savitzky-Golay smoothing


def test_sg_constant_series_unchanged():
    traj = _traj(np.full(100, 3.7))
    out = savitzky_golay(traj, window_sec=0.5, order=2)
    npt.assert_allclose(out.samples[:, 0], 3.7, atol=1e-12)


def test_sg_reproduces_quadratic():
    t = np.arange(200) / 30.0
    y = 2.0 - 0.8 * t + 0.3 * t * t
    out = savitzky_golay(_traj(y), window_sec=0.5, order=2)
    # exact on the polynomial everywhere, including the truncated edges
    npt.assert_allclose(out.samples[:, 0], y, atol=1e-9)


def test_sg_matches_sliding_polyfit():
    rng = np.random.default_rng(43)
    t = np.arange(240) / 30.0
    y = np.sin(2 * np.pi * 0.4 * t) + rng.normal(0, 0.1, t.size)
    out = savitzky_golay(_traj(y), window_sec=0.5, order=2)

    n_win = 15  # ceil(0.5 * 30) = 15, already odd
    half = n_win // 2
    for i in range(len(y)):
        lo = max(0, i - half)
        hi = min(len(y), i + half + 1)
        coef = np.polynomial.polynomial.polyfit(np.arange(lo, hi, dtype=float), y[lo:hi], 2)
        expect = np.polynomial.polynomial.polyval(float(i), coef)
        assert abs(out.samples[i, 0] - expect) < 1e-9, f"sample {i}"


def test_sg_linearity():
    rng = np.random.default_rng(44)
    a = rng.normal(0, 1, 90)
    b = rng.normal(0, 1, 90)
    fa = savitzky_golay(_traj(a)).samples[:, 0]
    fb = savitzky_golay(_traj(b)).samples[:, 0]
    fab = savitzky_golay(_traj(2.0 * a + 0.5 * b)).samples[:, 0]
    npt.assert_allclose(fab, 2.0 * fa + 0.5 * fb, atol=1e-12)


def test_sg_short_runs_pass_through():
    y = np.arange(60, dtype=float)
    valid = np.ones(60, bool)
    valid[10:58] = False  # leaves a 2-sample tail run
    out = savitzky_golay(_traj(y, valid=valid), window_sec=0.5, order=2)
    npt.assert_array_equal(out.samples[58:, 0], y[58:])
    npt.assert_array_equal(out.valid, valid)


def test_sg_rejects_bad_window():
    traj = _traj(np.zeros(10))
    with pytest.raises(ValueError):
        savitzky_golay(traj, window_sec=0.5, order=2)  # series shorter than window
    with pytest.raises(ValueError):
        savitzky_golay(_traj(np.zeros(100)), window_sec=0.1, order=5)  # order >= window


# ---------------------------------------------------------------------------
# resampling


def test_resample_same_rate_identity():
    rng = np.random.default_rng(45)
    traj = _traj(rng.normal(0, 1, 50))
    out = resample_linear(traj, 30.0)
    npt.assert_allclose(out.samples, traj.samples, atol=1e-12)
    assert out.sample_rate_hz == 30.0


def test_resample_linear_ramp_exact():
    t = np.arange(121) / 120.0
    traj = _traj(3.0 * t - 1.0, rate=120.0)
    out = resample_linear(traj, 30.0)
    expect = 3.0 * out.times - 1.0
    npt.assert_allclose(out.samples[:, 0], expect, atol=1e-12)


def test_resample_sine_error_bound():
    f = 0.7
    t = np.arange(0, 1201) / 120.0
    y = np.sin(2 * np.pi * f * t)
    out = resample_linear(_traj(y, rate=120.0), 30.0)
    direct = np.sin(2 * np.pi * f * out.times)
    # linear interpolation error bound: h^2 max|f''| / 8 on the source grid
    bound = (1 / 120.0) ** 2 * (2 * np.pi * f) ** 2 / 8.0
    assert np.max(np.abs(out.samples[:, 0] - direct)) <= bound * 1.0001


def test_resample_marks_gap_region_invalid():
    y = np.arange(40, dtype=float)
    valid = np.ones(40, bool)
    valid[12:20] = False
    out = resample_linear(_traj(y, rate=20.0, valid=valid), 40.0)
    tt = out.times
    gap_lo, gap_hi = 11 / 20.0, 20 / 20.0  # last valid knot before, first after
    inside = (tt > gap_lo + 1e-9) & (tt < gap_hi - 1e-9)
    assert not np.any(out.valid[inside])
    before = tt < gap_lo - 1e-9
    assert np.all(out.valid[before])


def test_resample_needs_two_valid_samples():
    traj = _traj(np.zeros(5), valid=[True, False, False, False, False])
    with pytest.raises(ValueError):
        resample_linear(traj, 60.0)


# ---------------------------------------------------------------------------
# gap interpolation


def test_interpolate_no_gaps_unchanged():
    rng = np.random.default_rng(46)
    traj = _traj(rng.normal(0, 1, 30))
    out = interpolate_gaps(traj, max_gap_sec=0.2)
    npt.assert_array_equal(out.samples, traj.samples)
    assert np.all(out.valid)


def test_interpolate_single_sample_gap():
    y = np.array([1.0, np.nan, 3.0, 4.0, 5.0])
    valid = np.array([True, False, True, True, True])
    out = interpolate_gaps(_traj(y, valid=valid), max_gap_sec=0.2)
    assert out.valid[1]
    npt.assert_allclose(out.samples[1, 0], 2.0, atol=1e-12)


def test_interpolate_leaves_long_gaps(caplog):
    y = np.arange(40, dtype=float)
    valid = np.ones(40, bool)
    valid[10:25] = False  # half a second at 30 Hz
    with caplog.at_level("WARNING"):
        out = interpolate_gaps(_traj(y, valid=valid), max_gap_sec=0.2)
    assert not np.any(out.valid[10:25])
    assert any("gap" in r.message for r in caplog.records)


def test_interpolate_warns_on_leading_gap(caplog):
    y = np.arange(20, dtype=float)
    valid = np.ones(20, bool)
    valid[:3] = False
    with caplog.at_level("WARNING"):
        out = interpolate_gaps(_traj(y, valid=valid), max_gap_sec=0.5)
    assert not np.any(out.valid[:3])  # nothing to anchor the left side
    assert len(caplog.records) >= 1


@pytest.mark.parametrize("rate", [0.0, -30.0, float("nan")])
def test_trajectory_rejects_a_rate_that_is_not_positive(rate):
    with pytest.raises(ValueError, match="sample_rate_hz"):
        _traj(np.zeros(10), rate=rate)


def test_trajectory_axis_accessor():
    s = np.arange(30, dtype=float).reshape(10, 3)
    traj = SwayTrajectory(sample_rate_hz=30.0, label="x", samples=s, valid=np.ones(10, bool))
    npt.assert_array_equal(traj.axis("AP"), s[:, 0])
    npt.assert_array_equal(traj.axis("ML"), s[:, 1])
    npt.assert_array_equal(traj.axis("SI"), s[:, 2])
    with pytest.raises(KeyError):
        traj.axis("XX")
