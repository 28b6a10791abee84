"""Checker-junction feature detection, sub-pixel refinement, and correspondence.

Images are 2D float arrays with intensities in [0, 1], indexed [v, u]
(row, column); point coordinates are (u, v) pixel pairs. Detection works by
convolving saddle-point prototype kernels at two orientations, composing the
quadrant responses into a per-pixel likelihood, suppressing non-maxima, and
refining surviving peaks with a gradient-orthogonality solve.
"""
from __future__ import annotations

import itertools
import logging
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull

from swaykin import camera

logger = logging.getLogger(__name__)

KERNEL_RADIUS = 5
KERNEL_SIZE = 2 * KERNEL_RADIUS + 1
KERNEL_SIGMA = 2.0

DEFAULT_THRESHOLD_FRACTION = 0.5
DEFAULT_NMS_RADIUS = 8
DEFAULT_REFINE_RADIUS = 5

# Gap frames named in detect_sequence's warning; the rest are counted.
_GAPS_SHOWN = 5

# Structure-tensor conditioning limit for sub-pixel refinement.
MAX_TENSOR_CONDITION = 1e8

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]]) / 8.0
SOBEL_Y = SOBEL_X.T


class NoGradientError(RuntimeError):
    """Neighborhood has no usable gradient structure for refinement."""


class InsufficientCorrespondenceError(RuntimeError):
    """Fewer matched features than the pose solver's minimum."""


class LatticeMatchError(RuntimeError):
    """Detections could not be matched to the model's grid structure."""


@dataclass(frozen=True)
class FeatureObservation:
    """A detected feature: sub-pixel (u, v) position, likelihood score, and
    optional index into the target model's point list."""

    position: np.ndarray
    score: float
    model_index: int | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.position, dtype=float).reshape(2)
        if not np.all(np.isfinite(p)):
            raise ValueError("feature position must be finite")
        object.__setattr__(self, "position", p)


def _quadrant_kernels() -> list[np.ndarray]:
    """Eight Gaussian-weighted quadrant masks: four per orientation (0/45 deg).

    Within each orientation the first two masks cover opposite quadrants of a
    saddle; the last two cover the other diagonal. Each mask sums to 1 so the
    responses are local quadrant means.
    """
    r = KERNEL_RADIUS
    y, x = np.mgrid[-r : r + 1, -r : r + 1].astype(float)
    g = np.exp(-(x * x + y * y) / (2.0 * KERNEL_SIGMA**2))

    def quad(mask: np.ndarray) -> np.ndarray:
        k = g * mask
        return k / k.sum()

    p, q = x + y, x - y
    return [
        quad((x < 0) & (y < 0)),
        quad((x > 0) & (y > 0)),
        quad((x > 0) & (y < 0)),
        quad((x < 0) & (y > 0)),
        quad((p < 0) & (q < 0)),
        quad((p > 0) & (q > 0)),
        quad((p > 0) & (q < 0)),
        quad((p < 0) & (q > 0)),
    ]


_KERNELS = _quadrant_kernels()


def _saddle_response(img: np.ndarray, kernels: list[np.ndarray]) -> np.ndarray:
    """One orientation's saddle response. Each correlation is freed once used,
    which bounds the peak memory of a full-frame call."""
    fa, fb, fc, fd = (ndimage.correlate(img, k, mode="nearest") for k in kernels)
    mu = 0.25 * (fa + fb + fc + fd)
    lo_ab = np.minimum(fa, fb)
    del fa, fb
    lo_cd = np.minimum(fc, fd)
    del fc, fd
    s_pos = np.minimum(lo_ab - mu, mu - lo_cd)
    s_neg = np.minimum(mu - lo_ab, lo_cd - mu)
    return np.maximum(s_pos, s_neg, out=s_pos)


def corner_likelihood(image: np.ndarray) -> np.ndarray:
    """Per-pixel checker-junction likelihood, same shape as the input.

    For each orientation the four quadrant means (a, b) opposite and (c, d)
    opposite are composed as::

        mu = (a + b + c + d) / 4
        s+ = min(min(a, b) - mu, mu - min(c, d))
        s- = min(mu - min(a, b), min(c, d) - mu)

    so only true saddles (both opposite pairs deviating from the local mean in
    opposite directions) respond; edges and single-quadrant corners cancel.
    The likelihood is the maximum response over orientations and polarities,
    clamped at 0, with the border band (kernel radius) zeroed.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"expected a 2D grayscale image, got shape {img.shape}")
    if min(img.shape) < KERNEL_SIZE:
        raise ValueError(f"image {img.shape} smaller than kernel ({KERNEL_SIZE}x{KERNEL_SIZE})")

    like = np.zeros_like(img)
    for kernels in (_KERNELS[:4], _KERNELS[4:]):
        np.maximum(like, _saddle_response(img, kernels), out=like)
    np.maximum(like, 0.0, out=like)
    r = KERNEL_RADIUS
    like[:r, :] = 0.0
    like[-r:, :] = 0.0
    like[:, :r] = 0.0
    like[:, -r:] = 0.0
    return like


def detect_features(
    likelihood: np.ndarray, threshold: float, nms_radius: int
) -> list[FeatureObservation]:
    """Strict local maxima of a likelihood map above ``threshold``.

    No two detections lie within ``nms_radius`` (Chebyshev distance); ties on
    plateaus are broken deterministically (higher score, then row, then
    column). Returned sorted by descending score.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if nms_radius < 1:
        raise ValueError(f"nms_radius must be >= 1, got {nms_radius}")
    like = np.asarray(likelihood, dtype=float)
    size = 2 * int(nms_radius) + 1
    peak = like >= ndimage.maximum_filter(like, size=size, mode="nearest")
    vs, us = np.nonzero(peak & (like > threshold))
    scores = like[vs, us]
    order = np.lexsort((us, vs, -scores))

    kept: list[FeatureObservation] = []
    kept_uv: list[tuple[int, int]] = []
    for i in order:
        u, v = int(us[i]), int(vs[i])
        if any(max(abs(u - ku), abs(v - kv)) <= nms_radius for ku, kv in kept_uv):
            continue
        kept_uv.append((u, v))
        kept.append(FeatureObservation(np.array([u, v], dtype=float), float(scores[i])))
    return kept


def refine_subpixel(
    image: np.ndarray, coarse: np.ndarray, neighborhood_radius: int = DEFAULT_REFINE_RADIUS
) -> np.ndarray:
    """Refine a coarse corner to sub-pixel accuracy via gradient orthogonality.

    At a checker junction every local gradient g(n) is orthogonal to the
    vector from the true center p to the pixel n, so p minimizes
    Σ (g(n)·(n − p))². The closed-form minimizer solves the 2x2 system
    (Σ g gᵀ) p = Σ (g gᵀ) n with 3x3 Sobel gradients over the neighborhood.

    The neighborhood (plus a 1-px gradient margin) must lie inside the image.
    Results farther than ``neighborhood_radius`` from ``coarse`` fall back to
    the coarse position.
    """
    img = np.asarray(image, dtype=float)
    c = np.asarray(coarse, dtype=float).reshape(2)
    r = int(neighborhood_radius)
    cu, cv = int(round(c[0])), int(round(c[1]))
    h, w = img.shape
    if not (r + 1 <= cu < w - r - 1 and r + 1 <= cv < h - r - 1):
        raise ValueError(
            f"neighborhood of radius {r} (+1 px gradient margin) around ({cu},{cv}) "
            f"exceeds image bounds {w}x{h}"
        )

    patch = img[cv - r - 1 : cv + r + 2, cu - r - 1 : cu + r + 2]
    gx = ndimage.correlate(patch, SOBEL_X, mode="nearest")[1:-1, 1:-1]
    gy = ndimage.correlate(patch, SOBEL_Y, mode="nearest")[1:-1, 1:-1]
    vv, uu = np.mgrid[cv - r : cv + r + 1, cu - r : cu + r + 1].astype(float)

    gxx, gxy, gyy = gx * gx, gx * gy, gy * gy
    A = np.array([[gxx.sum(), gxy.sum()], [gxy.sum(), gyy.sum()]])
    b = np.array([(gxx * uu + gxy * vv).sum(), (gxy * uu + gyy * vv).sum()])

    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] <= 0 or sv[1] <= 0 or sv[0] / sv[1] >= MAX_TENSOR_CONDITION:
        raise NoGradientError(
            f"gradient structure tensor is degenerate around ({cu},{cv}) "
            f"(singular values {sv[0]:.3e}, {sv[1]:.3e})"
        )
    p = np.linalg.solve(A, b)
    if np.linalg.norm(p - c) > r:
        logger.debug("refinement at (%d,%d) diverged to %s; keeping coarse", cu, cv, p)
        return c.copy()
    return p


def match_features(
    detections: list[FeatureObservation], predicted: np.ndarray, gate: float
) -> list[FeatureObservation]:
    """Assign detections to predicted model-feature positions.

    Greedy one-to-one nearest-neighbor assignment in ascending distance
    order; pairs farther apart than ``gate`` pixels are rejected. The index
    of the matched prediction becomes each observation's ``model_index``.
    Raises :class:`InsufficientCorrespondenceError` below 4 matches.
    """
    pred = np.asarray(predicted, dtype=float).reshape(-1, 2)
    if detections and len(pred):
        pos = np.stack([d.position for d in detections])
        dist = np.linalg.norm(pos[:, None, :] - pred[None, :, :], axis=2)
        order = np.argsort(dist, axis=None)
        used_d = np.zeros(len(detections), dtype=bool)
        used_p = np.zeros(len(pred), dtype=bool)
        matched = []
        for flat in order:
            i, j = divmod(int(flat), len(pred))
            if dist[i, j] > gate:
                break
            if used_d[i] or used_p[j]:
                continue
            used_d[i] = used_p[j] = True
            matched.append(replace(detections[i], model_index=j))
    else:
        matched = []
    if len(matched) < 4:
        raise InsufficientCorrespondenceError(
            f"only {len(matched)} feature(s) matched within {gate} px; need at least 4"
        )
    matched.sort(key=lambda m: m.model_index)
    return matched


def detect_refined(
    image: np.ndarray,
    threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
    nms_radius: int = DEFAULT_NMS_RADIUS,
    refine_radius: int = DEFAULT_REFINE_RADIUS,
) -> list[FeatureObservation]:
    """Detect and sub-pixel-refine all checker junctions in a frame.

    The detection threshold is ``threshold_fraction`` of the likelihood map's
    global maximum. Detections whose refinement neighborhood leaves the image
    or has degenerate gradients keep their pixel-level position.
    """
    like = corner_likelihood(image)
    peak = float(like.max())
    if peak <= 0.0:
        return []
    out = []
    for det in detect_features(like, threshold_fraction * peak, nms_radius):
        try:
            pos = refine_subpixel(image, det.position, refine_radius)
        except (ValueError, NoGradientError):
            pos = det.position
        out.append(replace(det, position=pos))
    return out


def _match_gate(predictions: np.ndarray) -> float:
    """Largest frame-to-frame motion (px) that gating to ``predictions`` accepts."""
    if len(predictions) < 2:
        return 20.0
    d = np.linalg.norm(predictions[:, None] - predictions[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    return max(5.0, 0.4 * float(d.min()))


def detect_sequence(
    frames: Iterable[tuple[str, np.ndarray]],
    model_points: np.ndarray,
    intrinsics: camera.CameraIntrinsics,
    threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
    nms_radius: int = DEFAULT_NMS_RADIUS,
    refine_radius: int = DEFAULT_REFINE_RADIUS,
) -> list[list[FeatureObservation]]:
    """Undistort, detect and assign model correspondence frame by frame.

    ``frames`` yields ``(name, raw image)`` pairs; each image is undistorted
    with :func:`camera.undistort_frame` and detected with
    :func:`detect_refined`. Positions are undistorted pixels.

    A frame is first matched on the whole image by lattice bootstrapping;
    if that fails, each feature is gated to its last known position, which
    tolerates missed detections. Frames that fail both routes become empty
    (tracking gaps), reported in one warning at the end.

    After a frame has matched every model feature, the next frame is first
    undistorted and detected only inside a window: the bounding box of those
    positions, widened by the match gate plus the reach of the detector
    (kernel, non-maximum and refinement radii, and the gradient margin). A
    feature that moved no farther than the gate then sees the same pixels as
    on the whole image; only the detection threshold is taken relative to
    the window's strongest response. The window's result is kept when its
    detections bootstrap to the whole model and each lies within the gate of
    its last position; otherwise the frame takes the whole-image route above.
    """
    mp = np.asarray(model_points, dtype=float)
    reach = KERNEL_RADIUS + nms_radius + refine_radius + 1

    def detect(image: np.ndarray, window=None) -> list[FeatureObservation]:
        und = camera.undistort_frame(intrinsics, image, window)
        dets = detect_refined(und, threshold_fraction, nms_radius, refine_radius)
        if window is None:
            return dets
        offset = np.array(window[:2], dtype=float)
        return [replace(d, position=d.position + offset) for d in dets]

    out: list[list[FeatureObservation]] = []
    gaps: list[str] = []
    last_pos: dict[int, np.ndarray] = {}
    anchor = None  # positions of the last frame that matched every feature
    for name, image in frames:
        matched: list[FeatureObservation] = []
        if anchor is not None:
            gate = _match_gate(anchor)
            h, w = np.shape(image)
            lo = np.floor(anchor.min(axis=0) - gate) - reach
            hi = np.ceil(anchor.max(axis=0) + gate) + reach + 1
            window = (
                int(max(lo[0], 0)), int(max(lo[1], 0)), int(min(hi[0], w)), int(min(hi[1], h))
            )
            try:
                near = bootstrap_correspondence(detect(image, window), mp)
            except (LatticeMatchError, InsufficientCorrespondenceError):
                near = []
            # Bootstrap returns every feature in model order, as the anchor holds them.
            moved = [np.linalg.norm(m.position - a) for m, a in zip(near, anchor)]
            if near and max(moved) <= gate:
                matched = near
        if not matched:
            dets = detect(image)
            try:
                matched = bootstrap_correspondence(dets, mp)
            except (LatticeMatchError, InsufficientCorrespondenceError):
                if last_pos:
                    idxs = sorted(last_pos)
                    pred = np.stack([last_pos[i] for i in idxs])
                    try:
                        near = match_features(dets, pred, _match_gate(pred))
                        matched = [replace(m, model_index=idxs[m.model_index]) for m in near]
                    except InsufficientCorrespondenceError:
                        matched = []
        if not matched:
            logger.debug("%s: no usable correspondence; gap", name)
            gaps.append(name)
        for m in matched:
            last_pos[m.model_index] = m.position
        anchor = np.stack([m.position for m in matched]) if len(matched) == len(mp) else None
        out.append(matched)
    if gaps:
        shown = ", ".join(gaps[:_GAPS_SHOWN]) + (", ..." if len(gaps) > _GAPS_SHOWN else "")
        logger.warning(
            "%d of %d frames have no usable correspondence and are gaps: %s",
            len(gaps), len(out), shown,
        )
    return out


# ---------------------------------------------------------------------------
# Correspondence bootstrapping (no prior pose available)
# ---------------------------------------------------------------------------


def _lattice_axes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant lattice step vectors (u, v) of a grid-like point cloud.

    Collects displacement vectors between near-neighbors, clusters their
    directions modulo 180 degrees, and averages the two dominant clusters.
    The returned pair is right-handed in image coordinates (det > 0).
    """
    diff = points[:, None, :] - points[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    pitch = np.median(dist.min(axis=1))
    steps = diff[(dist < 1.45 * pitch)]
    flip = (steps[:, 1] < 0) | ((steps[:, 1] == 0) & (steps[:, 0] < 0))
    steps[flip] *= -1.0

    def dominant(cands: np.ndarray) -> np.ndarray:
        ang = np.arctan2(cands[:, 1], cands[:, 0])  # in [0, pi)
        hist, edges = np.histogram(ang, bins=36, range=(0.0, np.pi))
        center = 0.5 * (edges[:-1] + edges[1:])[int(np.argmax(hist))]
        dang = np.abs((ang - center + np.pi / 2) % np.pi - np.pi / 2)
        members = cands[dang < np.deg2rad(15.0)]
        if len(members) == 0:
            raise LatticeMatchError("no dominant lattice direction found")
        ref = members[0] / np.linalg.norm(members[0])
        members = members * np.sign(members @ ref)[:, None]
        return members.mean(axis=0)

    u = dominant(steps)
    ang_u = np.arctan2(steps[:, 1], steps[:, 0]) - np.arctan2(u[1], u[0])
    off_axis = np.abs((ang_u + np.pi / 2) % np.pi - np.pi / 2) > np.deg2rad(30.0)
    if not np.any(off_axis):
        raise LatticeMatchError("points are collinear; no second lattice direction")
    v = dominant(steps[off_axis])
    if u[0] * v[1] - u[1] * v[0] < 0:
        v = -v
    return u, v


def _integer_grid(points: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Integer lattice coordinates of each point, refined by one LSQ pass."""
    B = np.column_stack([u, v])
    rel = points - points[0]
    coords = np.linalg.solve(B, rel.T).T
    grid = np.rint(coords)
    # Re-fit the affine lattice (basis + offset) to the rounded assignment,
    # then re-round; absorbs curvature from mild perspective.
    design = np.column_stack([grid, np.ones(len(points))])
    fit, *_ = np.linalg.lstsq(design, points, rcond=None)
    coords = np.linalg.solve(fit[:2].T, (points - fit[2]).T).T
    grid = np.rint(coords)
    err = np.max(np.abs(coords - grid))
    if err > 0.25:
        raise LatticeMatchError(f"points deviate from a lattice (max {err:.2f} cells)")
    grid = grid.astype(int)
    grid -= grid.min(axis=0)
    if len(np.unique(grid, axis=0)) != len(grid):
        raise LatticeMatchError("multiple points share one lattice cell")
    return grid


def _model_grid(model_xy: np.ndarray) -> np.ndarray:
    dist = np.linalg.norm(model_xy[:, None, :] - model_xy[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    pitch = dist.min()
    grid = (model_xy - model_xy.min(axis=0)) / pitch
    snapped = np.rint(grid)
    if np.max(np.abs(grid - snapped)) > 1e-6:
        raise LatticeMatchError("model features do not lie on a square lattice")
    return snapped.astype(int)


def bootstrap_correspondence(
    detections: list[FeatureObservation], model_points: np.ndarray
) -> list[FeatureObservation]:
    """Match detections to a planar grid model without a prior pose.

    Recovers the image-plane lattice of the detections, converts both point
    sets to integer grid coordinates, and finds the unique in-plane rotation
    (0/90/180/270 degrees) aligning the two occupancy patterns; the model's
    deliberately missing cell makes the alignment unambiguous. Assumes every
    model feature was detected (use a clean frame) and mild perspective.

    Returns the detections with ``model_index`` set, sorted by index.
    """
    if len(detections) < 4:
        raise InsufficientCorrespondenceError(
            f"{len(detections)} detection(s); need at least 4 to bootstrap"
        )
    mp = np.asarray(model_points, dtype=float)
    if np.max(np.abs(mp[:, 2] - mp[0, 2])) > 1e-6:
        raise LatticeMatchError("bootstrap requires a planar model")
    model_grid = _model_grid(mp[:, :2])
    pts = np.stack([d.position for d in detections])
    if len(pts) != len(mp):
        raise LatticeMatchError(
            f"{len(pts)} detections vs {len(mp)} model features; bootstrap needs all of them"
        )
    u, v = _lattice_axes(pts)
    det_grid = _integer_grid(pts, u, v)

    model_cells = {tuple(c): i for i, c in enumerate(model_grid)}
    dims = det_grid.max(axis=0) + 1
    matches = []
    for k in range(4):
        cells, d = det_grid.copy(), dims.copy()
        for _ in range(k):
            cells = np.column_stack([d[1] - 1 - cells[:, 1], cells[:, 0]])
            d = d[::-1]
        if set(map(tuple, cells)) == set(model_cells):
            matches.append((k, cells))
    if len(matches) != 1:
        raise LatticeMatchError(
            f"{len(matches)} grid alignments fit the model; target pattern is ambiguous"
            if matches
            else "detected grid does not match the model occupancy pattern"
        )
    _, cells = matches[0]
    out = [
        replace(det, model_index=model_cells[tuple(c)]) for det, c in zip(detections, cells)
    ]
    out.sort(key=lambda m: m.model_index)
    return out


def order_checkerboard_corners(points: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Order detected checkerboard inner corners row-major.

    Finds the four outermost corners (maximum-area quadrilateral on the
    convex hull), fits a projective map from grid coordinates for each of the
    four cyclic corner labelings, and keeps the labeling under which every
    grid node lands on a distinct detection. Returns the (rows*cols, 2)
    reordered points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (rows * cols, 2):
        raise ValueError(f"expected {rows * cols} corner points, got {pts.shape}")
    hull = ConvexHull(pts)
    hv = hull.vertices

    def quad_area(idx: tuple[int, ...]) -> float:
        q = pts[hv[list(idx)]]
        return 0.5 * abs(
            np.dot(q[:, 0], np.roll(q[:, 1], -1)) - np.dot(q[:, 1], np.roll(q[:, 0], -1))
        )

    best = max(itertools.combinations(range(len(hv)), 4), key=quad_area)
    corners = pts[hv[list(best)]]  # in hull (counterclockwise) order

    grid_corners = np.array(
        [[0.0, 0.0], [cols - 1.0, 0.0], [cols - 1.0, rows - 1.0], [0.0, rows - 1.0]]
    )
    jj, ii = np.meshgrid(np.arange(cols, dtype=float), np.arange(rows, dtype=float))
    nodes = np.column_stack([jj.ravel(), ii.ravel()])

    nn = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(nn, np.inf)
    accept = 0.5 * np.median(nn.min(axis=1))

    best_order, best_cost = None, np.inf
    for shift in range(4):
        labeled = np.roll(corners, -shift, axis=0)
        try:
            H = camera.estimate_homography(grid_corners, labeled)
        except camera.DegenerateGeometryError:
            continue
        ph = np.column_stack([nodes, np.ones(len(nodes))]) @ H.T
        proj = ph[:, :2] / ph[:, 2:3]
        d = np.linalg.norm(proj[:, None, :] - pts[None, :, :], axis=2)
        idx = np.argmin(d, axis=1)
        dmin = d[np.arange(len(nodes)), idx]
        if len(np.unique(idx)) != len(nodes) or np.max(dmin) > accept:
            continue
        cost = float(np.sum(dmin))
        if cost < best_cost:
            best_cost, best_order = cost, idx
    if best_order is None:
        raise LatticeMatchError("could not order corners into a grid; check rows/cols")
    return pts[best_order]
