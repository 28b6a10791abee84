"""Corner detection, sub-pixel refinement and matching tests."""

import logging
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

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
    LatticeMatchError,
    bootstrap_correspondence,
    camera,
    corner_likelihood,
    default_target,
    detect_features,
    detect_refined,
    detect_sequence,
    match_features,
    motion_matrix,
    order_checkerboard_corners,
    project,
    refine_subpixel,
    render_frame,
)
from swaykin import RigidTransform, _bands
from swaykin.features import (
    KERNEL_RADIUS,
    REFINE_RADIUS,
    SOBEL_X,
    SOBEL_Y,
    _axis_means,
    _cone_means,
    _quadrant_kernels,
)
from swaykin.synth import DEFAULT_INTRINSICS


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_observation_rejects_non_finite_position(bad, axis):
    position = [10.0, 20.0]
    position[axis] = bad
    with pytest.raises(ValueError, match="feature position must be finite"):
        FeatureObservation(position=position, score=1.0)


def test_observation_rejects_three_coordinates():
    with pytest.raises(ValueError):
        FeatureObservation(position=[1.0, 2.0, 3.0], score=1.0)


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


# The map lies in [0, 1]. Computed from the kernels' 1-D factors, its sums
# run in another order than the eight 2-D correlations, so it may differ
# from them in the last bits.
LIKELIHOOD_ATOL = 1e-15


def _same_peaks(like, ref):
    """Detections on ``like`` at the positions of those on ``ref``."""
    threshold = 0.5 * ref.max()
    npt.assert_array_equal(
        [d.position for d in detect_features(like, threshold, nms_radius=8)],
        [d.position for d in detect_features(ref, threshold, nms_radius=8)],
    )


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
    e = max(KERNEL_RADIUS, REFINE_RADIUS + 1)  # as far as refinement reaches
    ref[:e, :] = ref[-e:, :] = ref[:, :e] = ref[:, -e:] = 0.0
    like = corner_likelihood(img)
    npt.assert_allclose(like, ref, rtol=0, atol=LIKELIHOOD_ATOL)
    _same_peaks(like, ref)


def test_banded_likelihood_and_peaks_equal_one_band(monkeypatch):
    """A map several bands tall equals the eight-response reference and, bit
    for bit, the map computed as one band; its peaks equal those found with
    the whole map as one band, bit for bit."""
    img = np.random.default_rng(12).uniform(0.0, 1.0, (700, 130))
    assert len(img) > 2 * _bands._BAND_ROWS  # band edges lie inside the image
    resp = [ndimage.correlate(img, k, mode="nearest") for k in _quadrant_kernels()]
    ref = np.zeros_like(img)
    for fa, fb, fc, fd in (resp[:4], resp[4:]):
        mu = 0.25 * (fa + fb + fc + fd)
        lo_ab = np.minimum(fa, fb)
        lo_cd = np.minimum(fc, fd)
        ref = np.maximum(ref, np.maximum(np.minimum(lo_ab - mu, mu - lo_cd), np.minimum(mu - lo_ab, lo_cd - mu)))
    ref = np.maximum(ref, 0.0)
    e = max(KERNEL_RADIUS, REFINE_RADIUS + 1)  # as far as refinement reaches
    ref[:e, :] = ref[-e:, :] = ref[:, :e] = ref[:, -e:] = 0.0
    like = corner_likelihood(img)
    npt.assert_allclose(like, ref, rtol=0, atol=LIKELIHOOD_ATOL)
    _same_peaks(like, ref)
    with monkeypatch.context() as one_band:
        one_band.setattr(_bands, "_BAND_ROWS", len(img))
        npt.assert_array_equal(corner_likelihood(img), like)

    # Rounded, so equal scores form plateaus that cross band edges too.
    like = np.round(like, 2)
    banded = detect_features(like, 0.01, nms_radius=8)
    monkeypatch.setattr(_bands, "_BAND_ROWS", len(like))
    whole = detect_features(like, 0.01, nms_radius=8)
    assert len(banded) > 50
    npt.assert_array_equal([d.position for d in banded], [d.position for d in whole])
    npt.assert_array_equal([d.score for d in banded], [d.score for d in whole])


def test_factored_means_respond_to_an_impulse_with_the_quadrant_kernels():
    """Each 1-D factorization, applied to an impulse, gives its quadrant
    kernel mirrored, as a correlation does. exp(a + b) and exp(a)·exp(b)
    differ by up to 2 ulps, 5.6e-17 at the kernels' largest entry (0.196),
    so the kernels are met to 1e-16."""
    r = KERNEL_RADIUS
    n = 4 * r + 1
    impulse = np.zeros((n, n))
    impulse[2 * r, 2 * r] = 1.0
    pad = np.pad(impulse, r)
    got = _axis_means(pad, n, n) + _cone_means(pad, n, n)
    for response, kernel in zip(got, _quadrant_kernels(), strict=True):
        want = np.zeros((n, n))
        want[r : 3 * r + 1, r : 3 * r + 1] = kernel[::-1, ::-1]
        npt.assert_allclose(response, want, rtol=0, atol=1e-16)


def test_banded_likelihood_from_many_threads_at_once():
    """Callers in more threads than cores each start their own band threads,
    and each gets its own image's map."""
    rng = np.random.default_rng(13)
    imgs = [rng.uniform(0.0, 1.0, (300, 90)) for _ in range(6)]
    want = [corner_likelihood(im) for im in imgs]
    got = [None] * len(imgs)

    def run(i):
        got[i] = corner_likelihood(imgs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(imgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        npt.assert_array_equal(g, w)


# Computes a map, forks, and computes it again in the child.
_FORK_PROBE = """
import multiprocessing, sys
import numpy as np
from swaykin import corner_likelihood
img = np.random.default_rng(0).uniform(0.0, 1.0, (300, 90))
want = corner_likelihood(img)
def child():
    sys.exit(0 if np.array_equal(corner_likelihood(img), want) else 3)
if __name__ == "__main__":
    p = multiprocessing.get_context("fork").Process(target=child)
    p.start()
    p.join(timeout=60)
    if p.is_alive():
        p.kill()
        sys.exit("the forked child did not finish")
    sys.exit(p.exitcode)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_banded_likelihood_in_a_forked_child():
    """A child forked after an image call has run makes its own band threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE], env={**os.environ, "PYTHONPATH": src},
        timeout=120, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


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


def _greedy_nms(likelihood, threshold, nms_radius):
    """Reference: every peak of the maximum filter, strongest first, kept
    unless a kept one lies within nms_radius."""
    peak = likelihood >= ndimage.maximum_filter(likelihood, size=2 * nms_radius + 1, mode="nearest")
    vs, us = np.nonzero(peak & (likelihood > threshold))
    scores = likelihood[vs, us]
    kept = []
    for i in np.lexsort((us, vs, -scores)):
        u, v = int(us[i]), int(vs[i])
        if all(max(abs(u - ku), abs(v - kv)) > nms_radius for ku, kv, _ in kept):
            kept.append((u, v, float(scores[i])))
    return kept


def test_detect_nms_matches_greedy_reference_on_plateau_maps():
    rng = np.random.default_rng(7)
    for k in range(60):
        shape = tuple(rng.integers(12, 48, 2))
        # Few levels and blocky maps give plateaus and ties between nearby peaks.
        levels = int(rng.integers(2, 6))
        m = rng.integers(0, levels, shape).astype(float) / levels
        if k % 2:
            m = np.kron(m, np.ones((2, 3)))
        radius = int(rng.integers(1, 6))
        dets = detect_features(m, 0.5 / levels, radius)
        got = [(int(d.position[0]), int(d.position[1]), d.score) for d in dets]
        assert got == _greedy_nms(m, 0.5 / levels, radius)


@pytest.mark.parametrize("kind", ["random", "rounded", "band_edges"])
def test_detect_peaks_equal_the_ndimage_maximum_filter(kind):
    """The peaks, positions and scores, equal those of
    scipy.ndimage.maximum_filter bit for bit, also on plateaus that cross
    the edges of the row bands."""
    rng = np.random.default_rng(41)
    for _ in range(6):
        shape = (3 * _bands._BAND_ROWS + 17, 61) if kind == "band_edges" else tuple(rng.integers(20, 120, 2))
        m = rng.uniform(0.0, 1.0, shape) ** 3
        if kind != "random":
            m = np.round(m, 1)
        radius = int(rng.integers(1, 9))
        dets = detect_features(m, 0.05, radius)
        assert dets
        got = [(int(d.position[0]), int(d.position[1]), d.score) for d in dets]
        assert got == _greedy_nms(m, 0.05, radius)


# ---------------------------------------------------------------------------
# refine_subpixel


def test_refine_fractional_saddle():
    img = draw_saddle((200, 200), (100.25, 50.75))
    p = refine_subpixel(img, [[100.0, 51.0]])
    assert np.linalg.norm(p - [100.25, 50.75]) < 0.05


def test_refine_integer_saddle_stays_put():
    img = draw_saddle((200, 200), (100.0, 50.0))
    p = refine_subpixel(img, [[100.0, 50.0]])
    assert np.linalg.norm(p - [100.0, 50.0]) < 0.01


def test_refine_no_corners():
    assert refine_subpixel(np.full((50, 50), 0.5), np.empty((0, 2))).shape == (0, 2)


def test_refine_constant_patch_keeps_coarse():
    npt.assert_array_equal(refine_subpixel(np.full((50, 50), 0.5), [[25.3, 24.8]]), [[25.3, 24.8]])


def test_refine_near_border_keeps_coarse():
    img = draw_saddle((50, 50), (4.3, 25.0))
    npt.assert_array_equal(refine_subpixel(img, [[4.0, 25.0], [25.0, 44.0]]), [[4.0, 25.0], [25.0, 44.0]])


def test_refine_invariant_to_affine_intensity():
    img = draw_saddle((200, 200), (80.4, 120.7), angle=0.3)
    p1 = refine_subpixel(img, [[80.0, 121.0]])
    p2 = refine_subpixel(0.5 * img + 0.25, [[80.0, 121.0]])
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
        (p,) = refine_subpixel(img, [coarse])
        f0 = _orthogonality_objective(img, coarse, p)
        for du, dv in [(0.1, 0), (-0.1, 0), (0, 0.1), (0, -0.1), (0.1, 0.1), (-0.1, -0.1)]:
            assert f0 <= _orthogonality_objective(img, coarse, p + [du, dv]) + 1e-12


def _ndimage_system(img, coarse, r=5):
    """The refiner's 2x2 system from scipy.ndimage's Sobel gradients."""
    cu, cv = int(round(coarse[0])), int(round(coarse[1]))
    patch = img[cv - r - 1 : cv + r + 2, cu - r - 1 : cu + r + 2]
    gx = ndimage.correlate(patch, SOBEL_X, mode="nearest")[1:-1, 1:-1]
    gy = ndimage.correlate(patch, SOBEL_Y, mode="nearest")[1:-1, 1:-1]
    vv, uu = np.mgrid[cv - r : cv + r + 1, cu - r : cu + r + 1].astype(float)
    gxx, gxy, gyy = gx * gx, gx * gy, gy * gy
    A = np.array([[gxx.sum(), gxy.sum()], [gxy.sum(), gyy.sum()]])
    return A, np.array([(gxx * uu + gxy * vv).sum(), (gxy * uu + gyy * vv).sum()])


def _ndimage_refinement(img, coarse, r=5):
    """The refiner's closed-form solve from scipy.ndimage's Sobel gradients."""
    return np.linalg.solve(*_ndimage_system(img, coarse, r))


def test_refine_equals_the_ndimage_gradients_solve():
    rng = np.random.default_rng(77)
    for _ in range(20):
        center = np.array([60.0, 60.0]) + rng.uniform(-0.5, 0.5, 2)
        img = draw_saddle((120, 120), center, angle=rng.uniform(0, np.pi / 2))
        coarse = np.round(center)
        npt.assert_array_equal(refine_subpixel(img, [coarse]), [_ndimage_refinement(img, coarse)])


def _one_at_a_time(img, coarse, r=5):
    """Each corner refined alone with the ndimage system's solve, and why
    each kept corner was kept: "outside" the image, "degenerate" or "diverged"."""
    h, w = img.shape
    out, kept = [], []
    for c in coarse:
        cu, cv = np.rint(c).astype(int)
        p, why = c, "outside"
        if r + 1 <= cu < w - r - 1 and r + 1 <= cv < h - r - 1:
            A, b = _ndimage_system(img, c, r)
            sv = np.linalg.svd(A, compute_uv=False)
            why = "degenerate"
            if sv[1] > 0 and sv[0] / sv[1] < 1e8:
                why = "diverged"
                q = np.linalg.solve(A, b)
                if np.linalg.norm(q - c) <= r:
                    p, why = q, None
        out.append(p)
        if why:
            kept.append(why)
    return np.array(out), kept


def test_refine_batch_equals_its_rows_refined_one_at_a_time():
    """About 2,500 corners, over two block boundaries, on saddles, noise, a
    flat field and straight edges, some near and past the image border."""
    rng = np.random.default_rng(30)
    img = draw_saddle((240, 320), (60.3, 60.6), angle=0.4, half=40.0)
    img[:, 160:] = rng.uniform(0.0, 1.0, (240, 160))
    img[120:, :80] = 0.5
    img[120:, 80:160] = 0.2 + 0.6 * (np.arange(80) >= 40)
    coarse = np.column_stack([rng.uniform(-4.0, 324.0, 2500), rng.uniform(-4.0, 244.0, 2500)])
    coarse[::2] = np.round(coarse[::2])
    want, kept = _one_at_a_time(img, coarse)
    npt.assert_array_equal(refine_subpixel(img, coarse), want)
    assert min(kept.count(k) for k in ("outside", "degenerate", "diverged")) > 50
    assert len(kept) < 1500  # and most are refined


def test_detect_refined_refines_a_junction_near_the_border():
    """A junction 5.3 px from the edge, within the kernel's reach but not
    the refinement's, is found one pixel in and refined."""
    (det,) = detect_refined(draw_saddle((80, 80), (5.3, 40.0)))
    assert np.linalg.norm(det.position - [5.3, 40.0]) < 0.05


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
# bootstrap_correspondence and order_checkerboard_corners


def _grid_xyz(rows, cols, skip=()):
    """A rows x cols grid at 20 mm pitch, row-major, without the (row, col) cells in ``skip``."""
    return np.array([(20.0 * j, 20.0 * i, 0.0) for i in range(rows) for j in range(cols) if (i, j) not in skip])


def _view(points, theta, intr=DEFAULT_INTRINSICS, sigma=0.0, seed=0):
    """Pixel positions of ``points`` seen from pose ``theta``, and the same as shuffled detections."""
    M = motion_matrix(KinematicParams(*theta))
    uv = project(intr, RigidTransform(M[:3, :3], M[:3, 3]), points)
    rng = np.random.default_rng(seed)
    uv = uv + rng.normal(0.0, sigma, uv.shape)
    return uv, [FeatureObservation(uv[i], 1.0) for i in rng.permutation(len(uv))]


def _assert_labels(out, uv):
    assert [o.model_index for o in out] == list(range(len(uv)))
    npt.assert_array_equal([o.position for o in out], uv)


@pytest.mark.parametrize("name", ["lumbar", "shoulder"])
def test_bootstrap_labels_every_in_plane_angle(name):
    # Frontal views, 5 degrees apart, without noise.
    model = default_target(name)
    for deg in range(0, 360, 5):
        uv, dets = _view(model.points, (np.deg2rad(deg), 0.0, 0.0, -30.0, -30.0, 1000.0), seed=deg)
        _assert_labels(bootstrap_correspondence(dets, model.points), uv)


@pytest.mark.parametrize("seed", range(4))
def test_bootstrap_labels_an_oblique_view(seed):
    # About 1 rad of tilt about x at 300 mm, which foreshortens one grid axis to about half the other.
    model = default_target("lumbar")
    intr = CameraIntrinsics(fx=1500, fy=1500, x0=1024, y0=1024)
    theta = (0.4 + seed, 0.3, 1.0, -30.0, -30.0, 300.0)
    uv, dets = _view(model.points, theta, intr, sigma=0.2, seed=seed)
    _assert_labels(bootstrap_correspondence(dets, model.points), uv)


def test_bootstrap_refuses_a_full_rectangular_board():
    board = _grid_xyz(4, 5)
    _, dets = _view(board, (0.3, 0.1, 0.1, -40.0, -30.0, 1000.0))
    with pytest.raises(LatticeMatchError, match="ambiguous"):
        bootstrap_correspondence(dets, board)


def test_bootstrap_refuses_a_model_with_an_empty_grid_corner():
    model = _grid_xyz(4, 4, skip=[(3, 0)])
    _, dets = _view(model, (0.3, 0.0, 0.0, -30.0, -30.0, 1000.0))
    with pytest.raises(LatticeMatchError, match="feature at each corner"):
        bootstrap_correspondence(dets, model)
    # A frames track is refused before its first frame, rather than left all gaps.
    with pytest.raises(LatticeMatchError, match="feature at each corner"):
        detect_sequence(iter(()), model, SEQ_INTR)


def test_grid_search_needs_four_outline_points():
    # A triangle's corners and its centroid: only three lie on the outline.
    pts = np.array([[0.0, 0.0], [90.0, 0.0], [0.0, 90.0], [30.0, 30.0]])
    with pytest.raises(LatticeMatchError, match="outline"):
        bootstrap_correspondence([FeatureObservation(p, 1.0) for p in pts], _grid_xyz(2, 2))
    with pytest.raises(LatticeMatchError, match="outline"):
        order_checkerboard_corners(pts, 2, 2)


@pytest.mark.parametrize("deg", [0.0, 90.0, 180.0])
def test_order_checkerboard_corners_returns_a_rotation_of_the_board(deg):
    rows, cols = 4, 5
    uv, dets = _view(_grid_xyz(rows, cols), (np.deg2rad(deg) + 0.1, 0.2, -0.1, -40.0, -30.0, 1000.0), sigma=0.1)
    got = order_checkerboard_corners(np.stack([d.position for d in dets]), rows, cols)
    # A rectangular board maps onto itself only under the half turn, which reverses row-major order.
    assert np.array_equal(got, uv) or np.array_equal(got, uv[::-1])


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
    # Acquired by the coarse pass in a window, then every frame stays in its window.
    assert len(windows) == len(imgs)
    for w in windows:
        assert w is not None and (w[2] - w[0]) * (w[3] - w[1]) < 0.5 * 320 * 320
    for got, img in zip(out, imgs):
        _assert_same_detections(got, _full_frame_reference(img))


# A flat frame has no detections; sensor noise alone has peaks near the last junctions.
@pytest.mark.parametrize("blank_sigma", [0.0, 0.02])
def test_sequence_blank_frame_is_gap_then_reacquired(monkeypatch, caplog, blank_sigma):
    blank = 0.5 + np.random.default_rng(9).normal(0.0, blank_sigma, (320, 320))
    imgs = [_seq_frame(0.0, 0.0, 1), _seq_frame(1.0, 1.0, 2), blank, _seq_frame(2.0, 0.5, 3)]
    windows = _windows_used(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="swaykin.features"):
        out = detect_sequence(((f"f{k}", img) for k, img in enumerate(imgs)), SEQ_MODEL.points, SEQ_INTR)
    assert out[2] == []
    # The blank frame fails its window, the coarse pass and the raw frame;
    # the next frame is acquired again, in a window. No frame is undistorted whole.
    assert windows and None not in windows
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
    # The second frame's window fails; the coarse pass places a third window.
    assert len(windows) == 3 and all(w is not None for w in windows)
    assert len(out[1]) == len(SEQ_MODEL.points)
    _assert_same_detections(out[1], _full_frame_reference(imgs[1]))


def test_sequence_clean_frames_never_undistort_the_whole_frame(monkeypatch):
    theta = [KinematicParams(0.01, -0.02, 0.015, -30.0 + 2 * k, -30.0 - k, 1000.0) for k in range(4)]
    imgs = [render_frame(t, SEQ_MODEL, intrinsics=SEQ_INTR, image_size=(320, 320)) for t in theta]
    windows = _windows_used(monkeypatch)
    out = detect_sequence(((f"f{k}", img) for k, img in enumerate(imgs)), SEQ_MODEL.points, SEQ_INTR)
    assert len(windows) == len(imgs) and None not in windows
    assert all(len(obs) == len(SEQ_MODEL.points) for obs in out)


def test_sequence_close_junctions_acquired_on_the_whole_frame(monkeypatch):
    # At fx = 1000 the junctions are about 20 px apart, 5 blocks: too close for
    # the coarse pass. Patches of half-width 6 px keep them from touching.
    intr = replace(SEQ_INTR, fx=1000.0, fy=1000.0)
    theta = [KinematicParams(0.01, -0.02, 0.015, -30.0 + k, -30.0, 1000.0) for k in range(2)]
    rng = np.random.default_rng(8)
    imgs = [
        render_frame(t, SEQ_MODEL, intrinsics=intr, image_size=(320, 320), patch_half_px=6.0)
        + rng.normal(0.0, 0.02, (320, 320))
        for t in theta
    ]
    windows = _windows_used(monkeypatch)
    out = detect_sequence(((f"f{k}", img) for k, img in enumerate(imgs)), SEQ_MODEL.points, intr)
    assert windows and None not in windows
    for got, img in zip(out, imgs):
        ref = bootstrap_correspondence(detect_refined(camera.undistort_frame(intr, img)), SEQ_MODEL.points)
        _assert_same_detections(got, ref)


def test_sequence_partial_view_gated_to_the_last_positions(monkeypatch):
    # The bench's lens on a 2048^2 uint8 frame; the second frame hides the target's
    # right-most junction column, so no route bootstraps and the 11 others are gated.
    intr = CameraIntrinsics(fx=4000.0, fy=4000.0, x0=1024.0, y0=1024.0, k1=-0.08, k2=0.01)
    theta = KinematicParams(0.01, -0.02, 0.015, -30.0, -30.0, 1000.0)
    img = render_frame(theta, SEQ_MODEL, intrinsics=intr, image_size=(2048, 2048))
    M = motion_matrix(theta)
    pose = RigidTransform(M[:3, :3], M[:3, 3])
    right = SEQ_MODEL.points[:, 0] == SEQ_MODEL.points[:, 0].max()
    u = project(intr, pose, SEQ_MODEL.points[right], apply_distortion=True)[:, 0]
    hidden = img.copy()
    hidden[:, int(u.min()) - 20 : int(u.max()) + 21] = 0.5
    rng = np.random.default_rng(11)
    imgs = [
        np.clip(np.rint((im + rng.normal(0.0, 0.02, im.shape)) * 255.0), 0, 255).astype(np.uint8)
        for im in (img, hidden)
    ]
    windows = _windows_used(monkeypatch)
    out = detect_sequence(((f"f{k}", im) for k, im in enumerate(imgs)), SEQ_MODEL.points, intr)
    assert windows and None not in windows
    assert len(out[0]) == len(SEQ_MODEL.points)
    assert [o.model_index for o in out[1]] == np.flatnonzero(~right).tolist()
    truth = project(intr, pose, SEQ_MODEL.points[~right])
    npt.assert_allclose([o.position for o in out[1]], truth, rtol=0, atol=0.1)


def test_sequence_uint8_frames_give_the_float_frames_observations():
    # Acquisition, windows, a blank frame's whole-frame try and a jump out of the window.
    imgs = [_seq_frame(0.0, 0.0, 1), _seq_frame(1.0, 1.0, 2), np.full((320, 320), 0.5), _seq_frame(2.0, 0.5, 3),
            _seq_frame(12.0, 0.5, 4)]
    u8 = [np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8) for img in imgs]
    got = detect_sequence(((f"f{k}", img) for k, img in enumerate(u8)), SEQ_MODEL.points, SEQ_INTR)
    ref = detect_sequence(
        ((f"f{k}", np.divide(img, 255.0)) for k, img in enumerate(u8)), SEQ_MODEL.points, SEQ_INTR
    )
    assert [len(obs) for obs in got] == [15, 15, 0, 15, 15]
    for g, r in zip(got, ref):
        assert [o.model_index for o in g] == [o.model_index for o in r]
        npt.assert_array_equal([o.position for o in g], [o.position for o in r])


def test_sequence_gap_warning_is_aggregated(caplog):
    blank = np.full((40, 40), 0.5)
    with caplog.at_level(logging.WARNING, logger="swaykin.features"):
        out = detect_sequence(((f"f{k}", blank) for k in range(7)), SEQ_MODEL.points, SEQ_INTR)
    assert out == [[]] * 7
    assert [r.getMessage() for r in caplog.records] == [
        "7 of 7 frames have no usable correspondence and are gaps: f0, f1, f2, f3, f4, ..."
    ]
