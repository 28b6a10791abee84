"""Corner detection, sub-pixel refinement and matching tests."""

import logging

import numpy as np
import numpy.testing as npt
import pytest
from scipy import ndimage, optimize

from swaykin import (
    CameraIntrinsics,
    FeatureObservation,
    GeometricTargetModel,
    InsufficientCorrespondenceError,
    KinematicParams,
    NoGradientError,
    bootstrap_correspondence,
    camera,
    corner_likelihood,
    default_target,
    detect_features,
    detect_refined,
    detect_sequence,
    match_features,
    project,
    refine_subpixel,
    render_frame,
)
from swaykin import RigidTransform
from swaykin.features import SOBEL_X, SOBEL_Y, _quadrant_kernels


def draw_saddle(shape, center, angle=0.0, half=10.0, contrast=0.4, aa=1.0):
    """Single checker junction on mid-gray, same profile as the synthetic renderer."""
    h, w = shape
    img = np.full((h, w), 0.5)
    e1 = np.array([np.cos(angle), np.sin(angle)])
    e2 = np.array([-np.sin(angle), np.cos(angle)])
    vv, uu = np.mgrid[0:h, 0:w].astype(float)
    ru, rv = uu - center[0], vv - center[1]
    d1 = e1[0] * rv - e1[1] * ru
    d2 = e2[0] * rv - e2[1] * ru
    h1 = np.clip(d1 / aa, -1.0, 1.0)
    h2 = np.clip(d2 / aa, -1.0, 1.0)
    h1 = 0.5 * h1 * (3.0 - h1 * h1)
    h2 = 0.5 * h2 * (3.0 - h2 * h2)
    inside = (np.abs(ru) <= half) & (np.abs(rv) <= half)
    img[inside] = 0.5 + contrast * (h1 * h2)[inside]
    return img


def _grid16_frame(offset_uv=(0.0, 0.0)):
    """Render a full 4x4 junction grid and return (image, true pixel centers)."""
    ys, xs = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    pts = np.column_stack([xs.ravel() * 20.0, ys.ravel() * 20.0, np.zeros(16)])
    model = GeometricTargetModel("grid16", pts)
    intr = CameraIntrinsics(fx=2000, fy=2000, x0=140, y0=140)
    dx = offset_uv[0] * 1000.0 / 2000.0  # px -> mm at z=1000
    dy = offset_uv[1] * 1000.0 / 2000.0
    theta = KinematicParams(0.0, 0.0, 0.0, -30.0 + dx, -30.0 + dy, 1000.0)
    img = render_frame(theta, model, intrinsics=intr, image_size=(280, 280))
    world = pts + np.array([-30.0 + dx, -30.0 + dy, 1000.0])
    truth = project(intr, RigidTransform.identity(), world)
    return img, truth


# ---------------------------------------------------------------------------
# corner_likelihood


def test_likelihood_constant_image_is_zero():
    npt.assert_array_equal(corner_likelihood(np.full((64, 64), 0.5)), 0.0)


def test_likelihood_peaks_at_saddle_center():
    img = draw_saddle((100, 100), (50.0, 50.0))
    like = corner_likelihood(img)
    v, u = np.unravel_index(np.argmax(like), like.shape)
    assert (u, v) == (50, 50)


def test_likelihood_rotated_saddle_still_peaks():
    img = draw_saddle((100, 100), (50.0, 50.0), angle=np.deg2rad(45.0))
    like = corner_likelihood(img)
    v, u = np.unravel_index(np.argmax(like), like.shape)
    assert (u, v) == (50, 50)


def test_likelihood_equals_eight_response_reference():
    """All eight quadrant correlations held at once, composed per orientation."""
    img = np.random.default_rng(11).uniform(0.0, 1.0, (90, 120))
    resp = [ndimage.correlate(img, k, mode="nearest") for k in _quadrant_kernels()]
    ref = np.zeros_like(img)
    for fa, fb, fc, fd in (resp[:4], resp[4:]):
        mu = 0.25 * (fa + fb + fc + fd)
        lo_ab = np.minimum(fa, fb)
        lo_cd = np.minimum(fc, fd)
        s_pos = np.minimum(lo_ab - mu, mu - lo_cd)
        s_neg = np.minimum(mu - lo_ab, lo_cd - mu)
        ref = np.maximum(ref, np.maximum(s_pos, s_neg))
    ref = np.maximum(ref, 0.0)
    ref[:5, :] = ref[-5:, :] = ref[:, :5] = ref[:, -5:] = 0.0
    npt.assert_array_equal(corner_likelihood(img), ref)


def test_likelihood_white_noise_rarely_fires():
    rng = np.random.default_rng(42)
    img = rng.uniform(0.0, 1.0, (200, 200))
    like = corner_likelihood(img)
    thr = np.quantile(like, 0.999)
    dets = detect_features(like, float(thr), nms_radius=2)
    assert len(dets) < 0.001 * img.size


# ---------------------------------------------------------------------------
# detect_features


def test_detect_empty_map():
    assert detect_features(np.zeros((50, 50)), threshold=0.5, nms_radius=3) == []


def test_detect_nms_keeps_stronger_of_close_pair():
    m = np.zeros((40, 40))
    m[20, 20] = 1.0
    m[20, 23] = 0.8
    dets = detect_features(m, threshold=0.1, nms_radius=5)
    assert len(dets) == 1
    npt.assert_array_equal(dets[0].position, [20.0, 20.0])
    assert dets[0].score == 1.0


def test_detect_separated_pair_both_survive():
    m = np.zeros((40, 40))
    m[20, 10] = 1.0
    m[20, 30] = 0.8
    dets = detect_features(m, threshold=0.1, nms_radius=5)
    assert len(dets) == 2
    assert dets[0].score >= dets[1].score  # descending


def test_detect_rendered_grid_finds_all_sixteen():
    img, truth = _grid16_frame(offset_uv=(0.3, -0.2))
    like = corner_likelihood(img)
    dets = detect_features(like, threshold=0.5 * float(like.max()), nms_radius=8)
    assert len(dets) == 16
    pos = np.array([d.position for d in dets])
    for t in truth:
        cheb = np.min(np.max(np.abs(pos - t), axis=1))
        assert cheb <= 0.5 + 1e-9, f"coarse peak {cheb:.3f} px from center"


def test_detect_invariant_to_integer_shift():
    img = draw_saddle((128, 128), (60.0, 56.0))
    like = corner_likelihood(img)
    base = detect_features(like, threshold=0.5 * float(like.max()), nms_radius=8)
    shifted = np.roll(np.roll(img, 7, axis=0), -4, axis=1)
    like2 = corner_likelihood(shifted)
    moved = detect_features(like2, threshold=0.5 * float(like2.max()), nms_radius=8)
    assert len(base) == len(moved) == 1
    npt.assert_array_equal(moved[0].position - base[0].position, [-4.0, 7.0])


def test_detect_nms_soundness_random_maps():
    rng = np.random.default_rng(123)
    for _ in range(25):
        m = rng.uniform(0.0, 1.0, (32, 32)) ** 4
        radius = int(rng.integers(1, 6))
        thr = float(np.quantile(m, 0.9))
        dets = detect_features(m, thr, radius)
        pos = np.array([d.position for d in dets]).reshape(-1, 2)
        for i in range(len(pos)):
            assert m[int(pos[i][1]), int(pos[i][0])] > thr
            for j in range(i + 1, len(pos)):
                assert np.max(np.abs(pos[i] - pos[j])) > radius


# ---------------------------------------------------------------------------
# refine_subpixel


def test_refine_fractional_saddle():
    img = draw_saddle((200, 200), (100.25, 50.75))
    p = refine_subpixel(img, np.array([100.0, 51.0]))
    assert np.linalg.norm(p - [100.25, 50.75]) < 0.05


def test_refine_integer_saddle_stays_put():
    img = draw_saddle((200, 200), (100.0, 50.0))
    p = refine_subpixel(img, np.array([100.0, 50.0]))
    assert np.linalg.norm(p - [100.0, 50.0]) < 0.01


def test_refine_constant_patch_raises():
    with pytest.raises(NoGradientError):
        refine_subpixel(np.full((50, 50), 0.5), np.array([25.0, 25.0]))


def test_refine_near_border_raises():
    img = draw_saddle((50, 50), (4.0, 25.0))
    with pytest.raises(ValueError):
        refine_subpixel(img, np.array([4.0, 25.0]))


def test_refine_invariant_to_affine_intensity():
    img = draw_saddle((200, 200), (80.4, 120.7), angle=0.3)
    p1 = refine_subpixel(img, np.array([80.0, 121.0]))
    p2 = refine_subpixel(0.5 * img + 0.25, np.array([80.0, 121.0]))
    npt.assert_allclose(p1, p2, atol=1e-6)


def _orthogonality_objective(img, coarse, p, r=5):
    # Same windowed gradients the refiner uses.
    cu, cv = int(round(coarse[0])), int(round(coarse[1]))
    patch = img[cv - r - 1 : cv + r + 2, cu - r - 1 : cu + r + 2]
    gx = ndimage.correlate(patch, SOBEL_X, mode="nearest")[1:-1, 1:-1]
    gy = ndimage.correlate(patch, SOBEL_Y, mode="nearest")[1:-1, 1:-1]
    vv, uu = np.mgrid[cv - r : cv + r + 1, cu - r : cu + r + 1].astype(float)
    return np.sum((gx * (uu - p[0]) + gy * (vv - p[1])) ** 2)


def test_refine_returns_objective_minimizer():
    rng = np.random.default_rng(77)
    for _ in range(20):
        center = np.array([60.0, 60.0]) + rng.uniform(-0.5, 0.5, 2)
        img = draw_saddle((120, 120), center, angle=rng.uniform(0, np.pi / 2))
        coarse = np.round(center)
        p = refine_subpixel(img, coarse)
        f0 = _orthogonality_objective(img, coarse, p)
        for du, dv in [(0.1, 0), (-0.1, 0), (0, 0.1), (0, -0.1), (0.1, 0.1), (-0.1, -0.1)]:
            assert f0 <= _orthogonality_objective(img, coarse, p + [du, dv]) + 1e-12


def test_detect_refined_grid_accuracy():
    img, truth = _grid16_frame(offset_uv=(0.17, 0.41))
    dets = detect_refined(img)
    assert len(dets) == 16
    pos = np.array([d.position for d in dets])
    for t in truth:
        assert np.min(np.linalg.norm(pos - t, axis=1)) < 0.05


# ---------------------------------------------------------------------------
# match_features


def _obs(points):
    return [FeatureObservation(position=p, score=1.0) for p in np.asarray(points, float)]


def test_match_exact_positions_identity():
    pred = np.array([[10.0, 10.0], [50.0, 12.0], [30.0, 44.0], [70.0, 68.0]])
    out = match_features(_obs(pred), pred, gate=3.0)
    assert [o.model_index for o in out] == [0, 1, 2, 3]
    for o, p in zip(out, pred):
        npt.assert_array_equal(o.position, p)


def test_match_outside_gate_dropped():
    pred = np.array([[10.0, 10.0], [50.0, 12.0], [30.0, 44.0], [70.0, 68.0], [90.0, 20.0]])
    det = pred.copy()
    det[4] += [6.0, 0.0]  # 2x the gate
    out = match_features(_obs(det), pred, gate=3.0)
    assert len(out) == 4
    assert sorted(o.model_index for o in out) == [0, 1, 2, 3]


def test_match_below_minimum_raises():
    pred = np.array([[10.0, 10.0], [50.0, 12.0], [30.0, 44.0], [70.0, 68.0]])
    det = pred.copy()
    det[2:] += 100.0
    with pytest.raises(InsufficientCorrespondenceError):
        match_features(_obs(det), pred, gate=3.0)


def test_match_jittered_grid_agrees_with_optimal_assignment():
    rng = np.random.default_rng(202)
    ys, xs = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    pred = np.column_stack([xs.ravel() * 30.0 + 50, ys.ravel() * 30.0 + 50]).astype(float)
    for _ in range(20):
        det = pred + rng.normal(0.0, 0.3, pred.shape)
        perm = rng.permutation(16)
        out = match_features(_obs(det[perm]), pred, gate=3.0)
        assert len(out) == 16
        # globally optimal assignment for reference
        cost = np.linalg.norm(det[perm][:, None, :] - pred[None, :, :], axis=2)
        _, cols = optimize.linear_sum_assignment(cost)
        got = {tuple(o.position): o.model_index for o in out}
        for i, j in enumerate(cols):
            assert got[tuple(det[perm][i])] == j


def test_match_output_sorted_by_model_index():
    rng = np.random.default_rng(7)
    pred = rng.uniform(20, 200, (8, 2))
    det = pred + rng.normal(0, 0.2, pred.shape)
    out = match_features(_obs(det[::-1]), pred, gate=3.0)
    idx = [o.model_index for o in out]
    assert idx == sorted(idx)


# ---------------------------------------------------------------------------
# detect_sequence

SEQ_INTR = CameraIntrinsics(fx=2000, fy=2000, x0=160, y0=160, k1=-8.0, k2=10.0)
SEQ_MODEL = default_target("lumbar")


def _seq_frame(du_mm, dv_mm, seed):
    """The lumbar target about the image center, moved (du, dv) mm, distorted, with sensor noise."""
    theta = KinematicParams(0.01, -0.02, 0.015, -30.0 + du_mm, -30.0 + dv_mm, 1000.0)
    img = render_frame(theta, SEQ_MODEL, intrinsics=SEQ_INTR, image_size=(320, 320))
    return img + np.random.default_rng(seed).normal(0.0, 0.02, img.shape)


def _full_frame_reference(img):
    return bootstrap_correspondence(detect_refined(camera.undistort_frame(SEQ_INTR, img)), SEQ_MODEL.points)


def _windows_used(monkeypatch):
    """Record the window of every undistort_frame call made by detect_sequence."""
    calls = []
    original = camera.undistort_frame

    def spy(intrinsics, image, window=None):
        calls.append(window)
        return original(intrinsics, image, window)

    monkeypatch.setattr(camera, "undistort_frame", spy)
    return calls


def _assert_same_detections(got, ref):
    assert [o.model_index for o in got] == [o.model_index for o in ref]
    npt.assert_allclose([o.position for o in got], [o.position for o in ref], rtol=0, atol=1e-9)


def test_sequence_window_matches_full_frame_detection(monkeypatch):
    # Steps of 7 mm (14 px) on one axis, just inside the 16 px match gate, then small ones.
    motion = [(0, 0), (7, 0), (7, -7), (0, -7), (-7, -7), (-7, 0), (0, 0), (1.5, -1.0), (2.5, 0.5)]
    imgs = [_seq_frame(du, dv, seed=k) for k, (du, dv) in enumerate(motion)]
    windows = _windows_used(monkeypatch)
    out = detect_sequence(((f"f{k}", img) for k, img in enumerate(imgs)), SEQ_MODEL.points, SEQ_INTR)
    assert len(out) == len(imgs)
    # Acquired on the whole frame, then every frame stays in its window.
    assert windows[0] is None and len(windows) == len(imgs)
    for w in windows[1:]:
        assert w is not None and (w[2] - w[0]) * (w[3] - w[1]) < 0.5 * 320 * 320
    for got, img in zip(out, imgs):
        _assert_same_detections(got, _full_frame_reference(img))


def test_sequence_blank_frame_is_gap_then_reacquired(monkeypatch, caplog):
    imgs = [_seq_frame(0.0, 0.0, 1), _seq_frame(1.0, 1.0, 2), np.full((320, 320), 0.5), _seq_frame(2.0, 0.5, 3)]
    windows = _windows_used(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="swaykin.features"):
        out = detect_sequence(((f"f{k}", img) for k, img in enumerate(imgs)), SEQ_MODEL.points, SEQ_INTR)
    assert out[2] == []
    # The blank frame leaves no window for the next, which is found on the whole frame.
    assert [w is None for w in windows] == [True, False, False, True, True]
    _assert_same_detections(out[3], _full_frame_reference(imgs[3]))
    assert [r.getMessage() for r in caplog.records] == [
        "1 of 4 frames have no usable correspondence and are gaps: f2"
    ]


# 50 px leaves the window; 20 px stays inside it but exceeds the 16 px match gate.
@pytest.mark.parametrize("jump_mm", [25.0, 10.0])
def test_sequence_target_beyond_window_recovered_by_full_frame(monkeypatch, jump_mm):
    imgs = [_seq_frame(0.0, 0.0, 4), _seq_frame(jump_mm, 0.0, 5)]
    windows = _windows_used(monkeypatch)
    out = detect_sequence(((f"f{k}", img) for k, img in enumerate(imgs)), SEQ_MODEL.points, SEQ_INTR)
    assert windows[0] is None and windows[1] is not None and windows[2] is None
    assert len(out[1]) == len(SEQ_MODEL.points)
    _assert_same_detections(out[1], _full_frame_reference(imgs[1]))


def test_sequence_gap_warning_is_aggregated(caplog):
    blank = np.full((40, 40), 0.5)
    with caplog.at_level(logging.WARNING, logger="swaykin.features"):
        out = detect_sequence(((f"f{k}", blank) for k in range(7)), SEQ_MODEL.points, SEQ_INTR)
    assert out == [[]] * 7
    assert [r.getMessage() for r in caplog.records] == [
        "7 of 7 frames have no usable correspondence and are gaps: f0, f1, f2, f3, f4, ..."
    ]
