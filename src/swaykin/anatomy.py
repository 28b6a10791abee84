"""Anatomical-frame transformation and trajectory conditioning.

Camera-frame sway points become anatomical coordinates through the inverse
extrinsic matrix of a forward-facing scene board. Board axes map to anatomy
as X -> medial-lateral, Y -> superior-inferior, Z -> anterior-posterior
(the board faces the camera; its normal runs front-to-back through the
standing participant). :func:`to_anatomical` returns board-frame (x, y, z);
:data:`BOARD_TO_ANATOMICAL` reorders board axes into the (AP, ML, SI)
column order used by :class:`SwayTrajectory`.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from swaykin import pose
from swaykin.camera import RigidTransform

logger = logging.getLogger(__name__)

# Column i of a SwayTrajectory sample takes board axis BOARD_TO_ANATOMICAL[i].
BOARD_TO_ANATOMICAL = (2, 0, 1)  # (AP, ML, SI) <- board (z, x, y)
AXIS_INDEX = {"AP": 0, "ML": 1, "SI": 2}


@dataclass(frozen=True)
class AnatomicalFrame:
    """Extrinsic pose of the scene's anatomical reference board (4x4,
    board frame to camera frame)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        M = np.asarray(self.matrix, dtype=float)
        if M.shape != (4, 4):
            raise ValueError(f"extrinsic matrix must be 4x4, got {M.shape}")
        if not np.allclose(M[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
            raise ValueError("extrinsic matrix must be a rigid homogeneous transform")
        RigidTransform(M[:3, :3], M[:3, 3])  # finite, orthonormal and proper
        object.__setattr__(self, "matrix", M)

    @classmethod
    def from_transform(cls, pose: RigidTransform) -> "AnatomicalFrame":
        return cls(pose.matrix)


def to_anatomical(frame: AnatomicalFrame, z: np.ndarray) -> np.ndarray:
    """Map camera-frame points (..., 3) into the board frame via the inverse
    extrinsic. Output axes are board (x, y, z) = (ML, SI, AP)."""
    R, t = frame.matrix[:3, :3], frame.matrix[:3, 3]
    return np.asarray(z, dtype=float) @ R - R.T @ t


def anatomical_from_board(board_xyz: np.ndarray) -> np.ndarray:
    """Reorder board-frame coordinates (..., 3) into (AP, ML, SI) columns."""
    return np.asarray(board_xyz, dtype=float)[..., list(BOARD_TO_ANATOMICAL)]


def sway_from_poses(
    theta: np.ndarray, offset: np.ndarray | None, frame: AnatomicalFrame
) -> np.ndarray:
    """(AP, ML, SI) sway (n, 3) of a target-frame point under poses theta
    (n, 6): the point ``offset`` (mm), or the target origin when None, is
    carried into the camera frame by each pose, then into ``frame``."""
    th = np.asarray(theta, dtype=float).reshape(-1, 6)
    d = np.zeros(3) if offset is None else np.asarray(offset, dtype=float).reshape(3)
    return anatomical_from_board(to_anatomical(frame, pose._rotation(th[:, :3]) @ d + th[:, 3:]))


@dataclass(frozen=True)
class SwayTrajectory:
    """Uniformly sampled anatomical sway series.

    ``samples`` is (n, 3) with columns (AP, ML, SI) in millimeters; ``valid``
    marks usable samples (False where tracking gapped). Sample i is at time
    ``t0 + i / sample_rate_hz`` seconds.
    """

    sample_rate_hz: float
    label: str
    samples: np.ndarray
    valid: np.ndarray
    t0: float = 0.0

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        v = np.asarray(self.valid, dtype=bool)
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError(f"samples must be (n, 3), got {s.shape}")
        if v.shape != (len(s),):
            raise ValueError("validity mask must have one entry per sample")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        if np.any(~np.isfinite(s[v])):
            raise ValueError("valid samples must be finite")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "valid", v)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_samples) / self.sample_rate_hz

    def axis(self, name: str) -> np.ndarray:
        return self.samples[:, AXIS_INDEX[name]]


def _valid_runs(valid: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, stop) index ranges of consecutive valid samples."""
    runs = []
    start = None
    for i, ok in enumerate(valid):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(valid)))
    return runs


def _sg_center_coefficients(n_win: int, order: int) -> np.ndarray:
    half = n_win // 2
    x = np.arange(-half, half + 1, dtype=float)
    V = np.vander(x, order + 1, increasing=True)
    # First row of the LSQ projector: evaluates the fitted polynomial at 0.
    return np.linalg.solve(V.T @ V, V.T)[0]


def _fit_eval(y: np.ndarray, x: np.ndarray, order: int, at: float) -> float:
    V = np.vander(x - at, order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(V, y, rcond=None)
    return float(coef[0])


def savitzky_golay(
    traj: SwayTrajectory, window_sec: float = 0.5, order: int = 2
) -> SwayTrajectory:
    """Polynomial least-squares smoothing per axis, per contiguous valid run.

    The window is ``window_sec`` at the trajectory's rate, rounded up to an
    odd sample count. Interior samples use the precomputed center
    coefficients; samples near run boundaries refit the polynomial on the
    one-sided truncated window instead of padding with phantom data. Runs
    with fewer than order+1 samples pass through unchanged.
    """
    n_win = math.ceil(window_sec * traj.sample_rate_hz)
    if n_win % 2 == 0:
        n_win += 1
    if order >= n_win:
        raise ValueError(f"order {order} needs a window larger than {n_win} samples")
    if traj.n_samples < n_win:
        raise ValueError(f"series of {traj.n_samples} samples is shorter than the window ({n_win})")
    half = n_win // 2
    center = _sg_center_coefficients(n_win, order)

    out = traj.samples.copy()
    for a, b in _valid_runs(traj.valid):
        seg = traj.samples[a:b]
        m = b - a
        if m <= order:
            continue
        smoothed = seg.copy()
        for ax in range(3):
            y = seg[:, ax]
            if m >= n_win:
                smoothed[half : m - half, ax] = np.convolve(y, center[::-1], mode="valid")
            for i in range(m):
                lo, hi = max(0, i - half), min(m, i + half + 1)
                if hi - lo == n_win:
                    continue
                if hi - lo > order:
                    x = np.arange(lo, hi, dtype=float)
                    smoothed[i, ax] = _fit_eval(y[lo:hi], x, order, float(i))
        out[a:b] = smoothed
    return replace(traj, samples=out)


def resample_linear(traj: SwayTrajectory, target_hz: float) -> SwayTrajectory:
    """Linear interpolation onto a uniform timebase spanning the same range.

    Valid samples act as interpolation knots. Output samples that fall
    outside the valid time range or strictly inside a tracking gap are
    marked invalid.
    """
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if traj.n_samples == 0:
        raise ValueError("cannot resample an empty trajectory")
    vidx = np.nonzero(traj.valid)[0]
    if len(vidx) < 2:
        raise ValueError("resampling needs at least 2 valid samples")
    times = traj.times
    vt = times[vidx]

    duration = times[-1] - traj.t0
    n_out = int(math.floor(duration * target_hz + 1e-9)) + 1
    t_out = traj.t0 + np.arange(n_out) / target_hz

    samples = np.column_stack(
        [np.interp(t_out, vt, traj.samples[vidx, ax]) for ax in range(3)]
    )
    valid = np.ones(n_out, dtype=bool)
    valid &= (t_out >= vt[0] - 1e-12) & (t_out <= vt[-1] + 1e-12)
    # Inside the valid range, a point is bad only if it falls strictly
    # between two knots that are not adjacent in the source (a gap).
    j = np.clip(np.searchsorted(vt, t_out, side="right") - 1, 0, len(vt) - 2)
    on_knot = np.abs(t_out - vt[j]) < 1e-12
    on_next = np.abs(t_out - vt[j + 1]) < 1e-12
    crosses_gap = (vidx[j + 1] - vidx[j]) > 1
    valid &= on_knot | on_next | ~crosses_gap
    return replace(traj, sample_rate_hz=target_hz, samples=samples, valid=valid)


def interpolate_gaps(traj: SwayTrajectory, max_gap_sec: float) -> SwayTrajectory:
    """Fill interior gaps no longer than ``max_gap_sec`` by linear
    interpolation between the bracketing valid samples.

    Gap length counts missing samples times the sample period. Longer gaps,
    and gaps at either end of the series, stay invalid (logged).
    """
    vidx = np.nonzero(traj.valid)[0]
    if len(vidx) == 0:
        logger.warning("trajectory '%s' has no valid samples; nothing to interpolate", traj.label)
        return traj
    dt = 1.0 / traj.sample_rate_hz
    samples = traj.samples.copy()
    valid = traj.valid.copy()
    if vidx[0] > 0 or vidx[-1] < traj.n_samples - 1:
        logger.warning(
            "trajectory '%s' has %d leading and %d trailing invalid sample(s); left unfilled",
            traj.label,
            vidx[0],
            traj.n_samples - 1 - vidx[-1],
        )
    skipped = 0
    for a, b in zip(vidx[:-1], vidx[1:]):
        missing = b - a - 1
        if missing == 0:
            continue
        if missing * dt > max_gap_sec:
            skipped += 1
            continue
        w = np.arange(1, missing + 1)[:, None] / (b - a)
        samples[a + 1 : b] = (1.0 - w) * traj.samples[a] + w * traj.samples[b]
        valid[a + 1 : b] = True
    if skipped:
        logger.warning(
            "trajectory '%s': %d gap(s) longer than %.3g s left invalid",
            traj.label,
            skipped,
            max_gap_sec,
        )
    return replace(traj, samples=samples, valid=valid)
