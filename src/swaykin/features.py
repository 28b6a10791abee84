"""Checker-junction feature detection, sub-pixel refinement, and correspondence.

Images are 2D float arrays with intensities in [0, 1], indexed [v, u]
(row, column); :func:`detect_sequence` also accepts uint8 frames, taken as
value / 255. Point coordinates are (u, v) pixel pairs. Detection correlates
saddle-point prototype kernels at two orientations through their 1-D factors,
composes the quadrant responses into a per-pixel likelihood, suppresses
non-maxima, and refines surviving peaks with a gradient-orthogonality solve.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from swaykin import _bands, camera

logger = logging.getLogger(__name__)

KERNEL_RADIUS = 5
KERNEL_SIZE = 2 * KERNEL_RADIUS + 1
KERNEL_SIGMA = 2.0

THRESHOLD_FRACTION = 0.5
NMS_RADIUS = 8
REFINE_RADIUS = 5

# Block factor of detect_sequence's coarse acquisition pass, which resolves
# junctions 40 px or more apart.
COARSE_BLOCK = 4

# Frames named in a warning about a whole sequence; the rest are counted.
_GAPS_SHOWN = 5

MIN_OBSERVATIONS = 4  # matched observations that a pose fit needs

# Structure-tensor conditioning limit for sub-pixel refinement.
MAX_TENSOR_CONDITION = 1e8
# Corners per block of refine_subpixel's pass, which bounds its memory
# whatever the number of corners.
_REFINE_BLOCK = 1024

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]]) / 8.0
SOBEL_Y = SOBEL_X.T


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
        if not all(map(math.isfinite, p.tolist())):
            raise ValueError("feature position must be finite")
        object.__setattr__(self, "position", p)


@dataclass(frozen=True)
class FeatureColumns:
    """A run's observations as columns, one row per observation, the rows in
    frame order: ``frame`` (n,) ints, ``model_index`` (n,) floats, NaN where
    an observation has none, ``uv`` (n, 2) pixels and ``score`` (n,), over
    ``n_frames`` frames; a frame without rows is empty. Columns of unequal
    length, frame numbers out of order or outside [0, n_frames), and
    positions that are not finite, are refused."""

    frame: np.ndarray
    model_index: np.ndarray
    uv: np.ndarray
    score: np.ndarray
    n_frames: int

    def __post_init__(self) -> None:
        f = self.frame
        if not len(f) == len(self.model_index) == len(self.uv) == len(self.score):
            lengths = [len(f), len(self.model_index), len(self.uv), len(self.score)]
            raise ValueError(f"columns must be equally long; frame, model_index, uv, score have {lengths} rows")
        if len(f) and f[0] < 0:
            raise ValueError(f"frame numbers must be >= 0, got {f[0]}")
        if len(f) and (f[-1] >= self.n_frames or np.any(f[1:] < f[:-1])):
            raise ValueError(f"frame numbers must be in order and below {self.n_frames}")
        if not np.isfinite(self.uv).all():
            raise ValueError("feature position must be finite")

    @classmethod
    def from_frames(cls, frames: Sequence[Sequence[FeatureObservation]]) -> "FeatureColumns":
        """Per-frame observation lists as columns."""
        flat = [o for obs in frames for o in obs]
        return cls(
            np.repeat(np.arange(len(frames)), [len(obs) for obs in frames]),
            # None becomes NaN.
            np.array([o.model_index for o in flat], dtype=float),
            np.array([o.position for o in flat], dtype=float).reshape(-1, 2),
            np.array([o.score for o in flat], dtype=float),
            len(frames),
        )

    def observations(self, i: int) -> list[FeatureObservation]:
        """Frame ``i``'s rows as observations."""
        lo, hi = np.searchsorted(self.frame, [i, i + 1])
        return [
            FeatureObservation(self.uv[k], float(self.score[k]), None if math.isnan(m) else int(m))
            for k, m in zip(range(lo, hi), self.model_index[lo:hi].tolist())
        ]


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


# The quadrant kernels' exact 1-D factors, e(t) = exp(-t²/2σ²), and the sums
# of the 0° and the 45° kernels, by which the first filter of each divides.
_E = np.exp(-np.arange(KERNEL_RADIUS + 1.0) ** 2 / (2.0 * KERNEL_SIGMA**2))
_Z_AXIS = _E[1:].sum() ** 2
_Z_CONE = sum(_E[i] * (_E[0] + 2.0 * _E[1:i].sum()) for i in range(1, KERNEL_RADIUS + 1))


def _above_below(src: np.ndarray, n: int, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of the n middle rows of ``src`` (r more above and below) summed
    with weights[i - 1] over the rows i above it, and apart over those below."""
    r = KERNEL_RADIUS
    above, below = weights[0] * src[r - 1 : r - 1 + n], weights[0] * src[r + 1 : r + 1 + n]
    for i in range(2, r + 1):
        above += weights[i - 1] * src[r - i : r - i + n]
        below += weights[i - 1] * src[r + i : r + i + n]
    return above, below


def _axis_means(pad: np.ndarray, n: int, w: int) -> list[np.ndarray]:
    """The 0° quadrant means at the middle n x w pixels of ``pad``, each a
    half-row of e times a half-column, in the order of :func:`_quadrant_kernels`."""
    left, right = (h.T for h in _above_below(pad.T, w, _E[1:] / _Z_AXIS))
    (up_left, down_left), (up_right, down_right) = (_above_below(h, n, _E[1:]) for h in (left, right))
    return [up_left, down_right, up_right, down_left]


def _cone_means(pad: np.ndarray, n: int, w: int) -> list[np.ndarray]:
    """The 45° quadrant means, as :func:`_axis_means`. The cone x < -|y| is
    e(i) at x = -i times e(y) over |y| < i: a shifted sum of running sums."""
    r, means = KERNEL_RADIUS, []
    for src, rows, cols in ((pad, n, w), (pad.T, w, n)):
        col = (_E[0] / _Z_CONE) * src[r : r + rows]  # Σ e(y) over |y| < i, from i = 1
        left, right = _E[1] * col[:, r - 1 : r - 1 + cols], _E[1] * col[:, r + 1 : r + 1 + cols]
        for i in range(2, r + 1):
            col += (_E[i - 1] / _Z_CONE) * (src[r - i + 1 : r - i + 1 + rows] + src[r + i - 1 : r + i - 1 + rows])
            left += _E[i] * col[:, r - i : r - i + cols]
            right += _E[i] * col[:, r + i : r + i + cols]
        means += [left, right] if src is pad else [right.T, left.T]  # in pad.T, left is up
    return means


def _saddle_response(fa: np.ndarray, fb: np.ndarray, fc: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """One orientation's saddle response (see :func:`corner_likelihood`), in place of the
    quadrant means. With d_ab = min(a, b) - mu and d_cd = mu - min(c, d), s- = -max(d_ab, d_cd)."""
    mu = 0.25 * (fa + fb + fc + fd)
    d_ab = np.subtract(np.minimum(fa, fb, out=fa), mu, out=fa)
    d_cd = np.subtract(mu, np.minimum(fc, fd, out=fc), out=fc)
    s_pos = np.minimum(d_ab, d_cd, out=mu)
    return np.maximum(s_pos, np.negative(np.maximum(d_ab, d_cd, out=d_ab), out=d_ab), out=s_pos)


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
    clamped at 0, with a border band zeroed wherever :func:`refine_subpixel`
    cannot refine a peak: the wider of the kernel radius and the refinement
    radius plus its 1-px gradient margin.

    The quadrant means, the image's correlations with the kernels' 1-D
    factors, are computed in row bands across the cores. Each band reads its
    rows plus the kernel radius above and below, edge values only past the
    image border, so the map equals one pass over the whole image.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"expected a 2D grayscale image, got shape {img.shape}")
    if min(img.shape) < KERNEL_SIZE:
        raise ValueError(f"image {img.shape} smaller than kernel ({KERNEL_SIZE}x{KERNEL_SIZE})")

    r = KERNEL_RADIUS
    h, w = img.shape
    like = np.zeros_like(img)  # so that the maxima taken into it are clamped at 0

    def rows(v0: int, v1: int) -> None:
        pad = np.pad(img[max(v0 - r, 0) : v1 + r], ((max(r - v0, 0), max(v1 + r - h, 0)), (r, r)), mode="edge")
        band = like[v0:v1]
        for means in (_axis_means, _cone_means):
            np.maximum(band, _saddle_response(*means(pad, v1 - v0, w)), out=band)

    _bands.over_rows(len(img), rows)
    edge = max(r, REFINE_RADIUS + 1)
    like[:edge, :] = 0.0
    like[-edge:, :] = 0.0
    like[:, :edge] = 0.0
    like[:, -edge:] = 0.0
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
    r = int(nms_radius)
    h = len(like)
    k = (2 * r + 1).bit_length() - 1
    steps = [1 << i for i in range(k)] + [2 * r + 1 - (1 << k)]
    found = [np.empty((0, 2), dtype=np.intp)]  # each band's peaks as (v, u) rows

    # The maximum filter runs in row bands across the cores, each reading
    # nms_radius rows beyond its own: the same peaks as one whole-map pass.
    # A maximum rounds nothing: runs of 2^i rows, then 2r + 1, then columns.
    def rows(v0: int, v1: int) -> None:
        top = np.pad(like[max(v0 - r, 0) : v1 + r], ((max(r - v0, 0), max(v1 + r - h, 0)), (r, r)), mode="edge")
        for _ in "vu":
            for step in steps:
                top = np.maximum(top[:-step], top[step:])
            top = top.T
        band = like[v0:v1]
        found.append(np.argwhere((band >= top) & (band > threshold)) + [v0, 0])

    _bands.over_rows(h, rows)
    vs, us = np.concatenate(found).T
    scores = like[vs, us]
    order = np.lexsort((us, vs, -scores))
    us, vs, scores = us[order], vs[order], scores[order]

    # Two peaks within nms_radius of each other lie in each other's filter
    # window, so their scores are equal: suppression acts only within a run
    # of equal scores, where it keeps the first of each cluster in order.
    keep = np.ones(len(scores), dtype=bool)
    bounds = np.flatnonzero(np.diff(scores, prepend=np.nan, append=np.nan) != 0)
    ties = np.diff(bounds) > 1
    for start, stop in zip(bounds[:-1][ties], bounds[1:][ties]):
        for i in range(start + 1, stop):
            near = np.maximum(np.abs(us[start:i] - us[i]), np.abs(vs[start:i] - vs[i])) <= nms_radius
            keep[i] = not np.any(near & keep[start:i])
    return [
        FeatureObservation(np.array([u, v], dtype=float), float(score))
        for u, v, score in zip(us[keep], vs[keep], scores[keep])
    ]


def refine_subpixel(image: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Refine coarse corners (n, 2) to sub-pixel accuracy via gradient
    orthogonality, ``_REFINE_BLOCK`` corners at a time; returns (n, 2).

    At a checker junction every local gradient g(n) is orthogonal to the
    vector from the true center p to the pixel n, so p minimizes
    Σ (g(n)·(n − p))². The closed-form minimizer solves the 2x2 system
    (Σ g gᵀ) p = Σ (g gᵀ) n with 3x3 Sobel gradients over the neighborhood
    of radius ``REFINE_RADIUS``.

    A corner keeps its coarse position when its neighborhood (plus a 1-px
    gradient margin) leaves the image, when the system's condition reaches
    ``MAX_TENSOR_CONDITION``, or when its solution lies farther than
    ``REFINE_RADIUS`` from it.
    """
    img = np.asarray(image, dtype=float)
    out = np.array(coarse, dtype=float).reshape(-1, 2)
    r = REFINE_RADIUS
    h, w = img.shape
    cu, cv = np.rint(out).astype(np.intp).T
    inside = np.flatnonzero((r + 1 <= cu) & (cu < w - r - 1) & (r + 1 <= cv) & (cv < h - r - 1))
    windows = np.lib.stride_tricks.sliding_window_view(img, (2 * r + 3, 2 * r + 3))
    offsets = np.arange(-r, r + 1)

    def total(x: np.ndarray) -> np.ndarray:  # each patch's sum, as x[i].sum() adds it
        return x.reshape(len(x), -1).sum(axis=1)

    for a in range(0, len(inside), _REFINE_BLOCK):
        k = inside[a : a + _REFINE_BLOCK]
        patch = windows[cv[k] - r - 1, cu[k] - r - 1]
        gx, gy = np.zeros((2, len(k), 2 * r + 1, 2 * r + 1))
        # The nonzero taps summed in row-major order from 0: scipy.ndimage's gradients, bit for bit.
        for g, kernel in ((gx, SOBEL_X), (gy, SOBEL_Y)):
            for i, j in zip(*np.nonzero(kernel)):
                g += kernel[i, j] * patch[:, i : i + 2 * r + 1, j : j + 2 * r + 1]
        uu = (cu[k, None, None] + offsets).astype(float)
        vv = (cv[k, None, None] + offsets[:, None]).astype(float)
        gxx, gxy, gyy = gx * gx, gx * gy, gy * gy
        A = np.stack([total(gxx), total(gxy), total(gxy), total(gyy)], axis=1).reshape(-1, 2, 2)
        b = np.stack([total(gxx * uu + gxy * vv), total(gxy * uu + gyy * vv)], axis=1)

        sv = np.linalg.svd(A, compute_uv=False)
        ok = np.flatnonzero(sv[:, 1] > 0)  # singular values come largest first
        ok = ok[sv[ok, 0] / sv[ok, 1] < MAX_TENSOR_CONDITION]
        p = np.linalg.solve(A[ok], b[ok, :, None])[:, :, 0]
        near = np.linalg.norm(p - out[k[ok]], axis=1) <= r
        out[k[ok[near]]] = p[near]
    return out


def match_features(
    detections: list[FeatureObservation], predicted: np.ndarray, gate: float
) -> list[FeatureObservation]:
    """Assign detections to predicted model-feature positions.

    Greedy one-to-one nearest-neighbor assignment in ascending distance
    order; pairs farther apart than ``gate`` pixels are rejected. The index
    of the matched prediction becomes each observation's ``model_index``.
    Raises :class:`InsufficientCorrespondenceError` below ``MIN_OBSERVATIONS`` matches.
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
    if len(matched) < MIN_OBSERVATIONS:
        raise InsufficientCorrespondenceError(
            f"only {len(matched)} feature(s) matched within {gate} px; need at least {MIN_OBSERVATIONS}"
        )
    matched.sort(key=lambda m: m.model_index)
    return matched


def detect_refined(image: np.ndarray) -> list[FeatureObservation]:
    """Detect and sub-pixel-refine all checker junctions in a frame.

    The detection threshold is ``THRESHOLD_FRACTION`` of the likelihood map's
    global maximum. All detections are refined in one :func:`refine_subpixel`
    call; those it cannot refine keep their pixel-level position.
    """
    like = corner_likelihood(image)
    peak = float(like.max())
    if peak <= 0.0:
        return []
    dets = detect_features(like, THRESHOLD_FRACTION * peak, NMS_RADIUS)
    pos = refine_subpixel(image, [d.position for d in dets])
    return [replace(d, position=p) for d, p in zip(dets, pos)]


def _match_gate(predictions: np.ndarray) -> float:
    """Largest frame-to-frame motion (px) that gating to ``predictions`` accepts."""
    d = np.linalg.norm(predictions[:, None] - predictions[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    return max(5.0, 0.4 * float(d.min()))


def detect_sequence(
    frames: Iterable[tuple[str, np.ndarray]],
    model_points: np.ndarray,
    intrinsics: camera.CameraIntrinsics,
) -> list[list[FeatureObservation]]:
    """Detect and assign model correspondence frame by frame.

    ``frames`` yields ``(name, raw image)`` pairs, float in [0, 1] or uint8
    taken as value / 255. Positions are undistorted pixels, and every one is
    measured in a window: the bounding box of one position per model feature
    widened by the match gate plus the reach of the detector (kernel,
    non-maximum and refinement radii, and the gradient margin), undistorted
    with :func:`camera.undistort_frame` and detected with
    :func:`detect_refined`. A feature that moved no farther than the gate
    sees the same pixels there as on the whole undistorted image; only the
    detection threshold is taken relative to the window's strongest
    response. The window's detections scoring at least
    ``THRESHOLD_FRACTION`` of the weakest of those positions' scores are
    matched to them with :func:`match_features`.

    Tracking: once the target is acquired, each frame is measured in the
    window about the last observation of every model feature, and kept when
    every feature matches. Acquisition, on the first frame and whenever
    tracking does not match the whole model: the detector runs on the raw
    frame's ``COARSE_BLOCK``-square block means, then on the frame itself,
    and the first detections whose undistorted block centres bootstrap to
    the whole model place a window that must match the whole model. When
    acquisition fails too, the tracking window's match is kept if it holds
    at least ``MIN_OBSERVATIONS`` features (a partial view). Frames that
    fail every route become empty (tracking gaps), reported in one warning
    at the end; the next frame is again tracked from the last observations
    first. A model that bootstrapping cannot use raises
    :class:`LatticeMatchError` before the first frame is read.
    """
    mp = np.asarray(model_points, dtype=float)
    _model_grid(mp)
    reach = KERNEL_RADIUS + NMS_RADIUS + REFINE_RADIUS + 1

    def in_window(image: np.ndarray, last: list[FeatureObservation]) -> list[FeatureObservation]:
        """The window's detections about ``last``, one observation per model feature,
        matched to it; [] below ``MIN_OBSERVATIONS`` matches."""
        pred = np.stack([o.position for o in last])
        gate = _match_gate(pred)
        h, w = np.shape(image)
        lo = np.floor(pred.min(axis=0) - gate) - reach
        hi = np.ceil(pred.max(axis=0) + gate) + reach + 1
        window = (
            int(max(lo[0], 0)), int(max(lo[1], 0)), int(min(hi[0], w)), int(min(hi[1], h))
        )
        floor = THRESHOLD_FRACTION * min(o.score for o in last)
        dets = detect_refined(camera.undistort_frame(intrinsics, image, window))
        try:
            return match_features(
                [replace(d, position=d.position + window[:2]) for d in dets if d.score >= floor], pred, gate
            )
        except InsufficientCorrespondenceError:
            return []

    def acquire(image: np.ndarray) -> list[FeatureObservation]:
        """The whole model in a window placed by raw-frame detections; else []."""
        img = np.asarray(image)
        scale = 255.0 if img.dtype == np.uint8 else 1.0  # value / 255: scores in the window's unit
        for b in (COARSE_BLOCK, 1):
            h, w = (n // b for n in img.shape)
            if min(h, w) < KERNEL_SIZE:
                continue
            dets = detect_refined(img[: h * b, : w * b].reshape(h, b, w, b).mean(axis=(1, 3)) / scale)
            if not dets:
                continue
            ideal = camera.undistort_point(intrinsics, np.stack([d.position for d in dets]) * b + (b - 1) / 2)
            dets = [replace(d, position=p) for d, p in zip(dets, ideal)]
            try:
                found = bootstrap_correspondence(dets, mp)
            except (LatticeMatchError, InsufficientCorrespondenceError):
                continue
            matched = in_window(image, found)
            if len(matched) == len(mp):
                return matched
        return []

    out: list[list[FeatureObservation]] = []
    gaps: list[str] = []
    last: list[FeatureObservation] = []  # the last observation of each model feature, once acquired
    for name, image in frames:
        near = in_window(image, last) if last else []
        matched = near if len(near) == len(mp) else (acquire(image) or near)
        if not matched:
            logger.debug("%s: no usable correspondence; gap", name)
            gaps.append(name)
        elif len(matched) == len(mp):
            last = list(matched)
        else:  # a partial view, tracked from a whole model
            for m in matched:
                last[m.model_index] = m
        out.append(matched)
    if gaps:
        logger.warning(
            "%d of %d frames have no usable correspondence and are gaps: %s",
            len(gaps), len(out), _first_frames(gaps),
        )
    return out


def _first_frames(frames: Sequence[object]) -> str:
    """The first few of ``frames``, for a warning that counts them all."""
    return ", ".join(map(str, frames[:_GAPS_SHOWN])) + (", ..." if len(frames) > _GAPS_SHOWN else "")


# ---------------------------------------------------------------------------
# Grid correspondence without a prior pose
# ---------------------------------------------------------------------------


def _corner_cells(cells: np.ndarray) -> np.ndarray:
    """Corners of the bounding box of grid cells from (0, 0), in the cyclic
    order that :func:`_grid_alignments` gives the outermost detections."""
    x1, y1 = cells.max(axis=0)
    return np.array([[0, 0], [x1, 0], [x1, y1], [0, y1]])


def _grid_alignments(pts: np.ndarray, cells: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Every in-plane rotation under which integer grid ``cells`` (x, y from
    (0, 0)) fit detections ``pts``.

    The four outermost detections, the largest-area quadrilateral among the
    points farthest along one of 360 directions, are taken as the corners of
    the cells' bounding box. For each of the four in-plane rotations a
    homography is fitted from the corner cells to them, and the rotation is
    kept when every cell lands on a distinct detection within half the median
    nearest-neighbor spacing. Returns one ``(cost, index)`` per kept rotation:
    ``index[i]`` is the detection of ``cells[i]``, and ``cost`` the summed
    distance from the cells to their detections. Raises
    :class:`LatticeMatchError` when fewer than four detections lie on the
    outline.
    """
    ang = np.deg2rad(np.arange(360.0))
    outline = pts[np.unique(np.argmax(pts @ np.stack([np.cos(ang), np.sin(ang)]), axis=0))]
    if len(outline) < 4:
        raise LatticeMatchError(f"only {len(outline)} detection(s) on the outline; a grid needs 4 corners")
    # side[i, j, k] is twice the signed area of triangle (i, j, k), so the largest
    # quadrilateral with diagonal (i, j) takes the extreme k on either side.
    rel = outline[None, :, :] - outline[:, None, :]
    side = rel[:, :, None, 0] * rel[:, None, :, 1] - rel[:, :, None, 1] * rel[:, None, :, 0]
    i, j = np.unravel_index(np.argmax(side.max(axis=2) - side.min(axis=2)), side.shape[:2])
    quad = outline[[i, np.argmin(side[i, j]), j, np.argmax(side[i, j])]]

    corners = _corner_cells(cells)
    nodes = np.column_stack([cells, np.ones(len(cells))])
    nn = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(nn, np.inf)
    accept = 0.5 * np.median(nn.min(axis=1))
    kept = []
    for k in range(4):
        try:
            H = camera.estimate_homography(corners, np.roll(quad, -k, axis=0))
        except camera.DegenerateGeometryError:
            continue
        ph = nodes @ H.T
        d = np.linalg.norm(ph[:, None, :2] / ph[:, None, 2:] - pts[None, :, :], axis=2)
        idx = np.argmin(d, axis=1)
        dmin = d[np.arange(len(cells)), idx]
        if len(np.unique(idx)) == len(cells) and dmin.max() <= accept:
            kept.append((float(dmin.sum()), idx))
    return kept


def _model_grid(model_points: np.ndarray) -> np.ndarray:
    """Integer grid cells (x, y) of a model's features.

    Raises :class:`LatticeMatchError` unless the features lie in one plane on
    a square lattice, with a feature at each corner of the grid's bounding
    box for :func:`_grid_alignments` to take as a corner.
    """
    mp = np.asarray(model_points, dtype=float)
    if np.max(np.abs(mp[:, 2] - mp[0, 2])) > 1e-6:
        raise LatticeMatchError("bootstrap requires a planar model")
    model_xy = mp[:, :2]
    dist = np.linalg.norm(model_xy[:, None, :] - model_xy[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    pitch = dist.min()
    grid = (model_xy - model_xy.min(axis=0)) / pitch
    snapped = np.rint(grid)
    if np.max(np.abs(grid - snapped)) > 1e-6:
        raise LatticeMatchError("model features do not lie on a square lattice")
    cells = snapped.astype(int)
    if not all((cells == c).all(axis=1).any() for c in _corner_cells(cells)):
        raise LatticeMatchError("bootstrap requires a model feature at each corner of its grid's bounding box")
    return cells


def bootstrap_correspondence(
    detections: list[FeatureObservation], model_points: np.ndarray
) -> list[FeatureObservation]:
    """Match detections to a planar grid model without a prior pose.

    The model must hold a feature at each of the four corners of its grid's
    bounding box. The four outermost detections are taken as those corners,
    and the one in-plane rotation (0/90/180/270 degrees) under which a
    homography through them lays every model feature on a distinct
    detection gives the labelling; the model's deliberately missing cell
    makes it unique. The homography models perspective exactly, so the view
    may be tilted; but every model feature must be detected, and nothing
    else (use a clean frame).

    Returns the detections with ``model_index`` set, sorted by index.
    """
    if len(detections) < 4:
        raise InsufficientCorrespondenceError(
            f"{len(detections)} detection(s); need at least 4 to bootstrap"
        )
    cells = _model_grid(model_points)
    pts = np.stack([d.position for d in detections])
    if len(pts) != len(cells):
        raise LatticeMatchError(
            f"{len(pts)} detections vs {len(cells)} model features; bootstrap needs all of them"
        )
    matches = _grid_alignments(pts, cells)
    if len(matches) != 1:
        raise LatticeMatchError(
            f"{len(matches)} grid alignments fit the model; target pattern is ambiguous"
            if matches
            else "detected grid does not match the model occupancy pattern"
        )
    _, idx = matches[0]
    return [replace(detections[d], model_index=i) for i, d in enumerate(idx)]


def order_checkerboard_corners(points: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Order detected checkerboard inner corners row-major.

    Takes the four outermost detections as the board's corners and keeps,
    of the four in-plane rotations under which a projective map from grid
    coordinates lays every grid node on a distinct detection, the one whose
    nodes lie closest to their detections. Returns the (rows*cols, 2)
    reordered points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (rows * cols, 2):
        raise ValueError(f"expected {rows * cols} corner points, got {pts.shape}")
    jj, ii = np.meshgrid(np.arange(cols), np.arange(rows))
    matches = _grid_alignments(pts, np.column_stack([jj.ravel(), ii.ravel()]))
    if not matches:
        raise LatticeMatchError("could not order corners into a grid; check rows/cols")
    return pts[min(matches, key=lambda m: m[0])[1]]
