"""Synthetic sway scenarios: ground-truth pose sequences, noisy feature
observations, and rasterized frames for end-to-end pipeline checks.

Everything here is a pure function of its inputs and seeds; rerunning a
scenario reproduces it bit for bit.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from swaykin import camera
from swaykin.features import FeatureObservation
from swaykin.pose import KinematicParams, _rotation, motion_matrix
from swaykin.target import GeometricTargetModel

logger = logging.getLogger(__name__)

# Quiet-standing-like defaults: translation axes are camera (x, y, z); with a
# frontal scene board these read as (ML, SI, AP) = 6/3/10 mm.
DEFAULT_TRANSLATION_AMPLITUDE_MM = (6.0, 3.0, 10.0)
DEFAULT_TRANSLATION_FREQ_HZ = (0.37, 0.43, 0.21)
DEFAULT_ROTATION_AMPLITUDE_RAD = (0.01, 0.008, 0.012)
DEFAULT_ROTATION_FREQ_HZ = (0.13, 0.29, 0.17)

DEFAULT_IMAGE_SIZE = (2048, 2048)
DEFAULT_INTRINSICS = camera.CameraIntrinsics(fx=4000.0, fy=4000.0, x0=1024.0, y0=1024.0)
DEFAULT_BASE_POSE = KinematicParams(0.0, 0.0, 0.0, 0.0, 0.0, 1000.0)

# A rendered junction's quadrants are 0.5 +- CONTRAST; edges ramp over +-AA_PX.
CONTRAST = 0.4
AA_PX = 1.0


@dataclass(frozen=True)
class SwayProfile:
    """Sum-of-sinusoids sway description.

    Rotation entries drive theta1..theta3 (rad), translation entries
    theta4..theta6 (mm); each component gets a seeded random phase.
    """

    duration_sec: float = 60.0
    rate_hz: float = 30.0
    translation_amplitude_mm: tuple[float, float, float] = DEFAULT_TRANSLATION_AMPLITUDE_MM
    translation_freq_hz: tuple[float, float, float] = DEFAULT_TRANSLATION_FREQ_HZ
    rotation_amplitude_rad: tuple[float, float, float] = DEFAULT_ROTATION_AMPLITUDE_RAD
    rotation_freq_hz: tuple[float, float, float] = DEFAULT_ROTATION_FREQ_HZ
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_sec <= 0 or self.rate_hz <= 0:
            raise ValueError("duration and rate must be positive")
        amps = self.translation_amplitude_mm + self.rotation_amplitude_rad
        if any(a < 0 for a in amps):
            raise ValueError("amplitudes must be non-negative")
        if self.rotation_amplitude_rad[1] >= math.pi / 2 - 1e-3:
            raise ValueError("pitch amplitude would cross the gimbal guard")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_sec * self.rate_hz))


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement corruption: isotropic pixel noise and feature dropout."""

    sigma_px: float = 0.0
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma_px < 0:
            raise ValueError("sigma_px must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def generate_trajectory(
    profile: SwayProfile, base_pose: KinematicParams = DEFAULT_BASE_POSE
) -> np.ndarray:
    """Ground-truth parameter sequence, shape (n_frames, 6).

    Component k follows base_k + A_k * sin(2*pi*f_k*t + phase_k) with phases
    drawn once from the profile's seed; the sequence is C1-smooth and
    deterministic.
    """
    rng = np.random.default_rng(profile.seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, 6)
    amps = np.array(profile.rotation_amplitude_rad + profile.translation_amplitude_mm)
    freqs = np.array(profile.rotation_freq_hz + profile.translation_freq_hz)
    t = np.arange(profile.n_frames) / profile.rate_hz
    theta = base_pose.as_array() + amps * np.sin(
        2.0 * math.pi * freqs * t[:, None] + phases
    )
    return theta


def render_observations(
    theta_seq: np.ndarray,
    model: GeometricTargetModel,
    intrinsics: camera.CameraIntrinsics = DEFAULT_INTRINSICS,
    noise: NoiseSpec = NoiseSpec(),
) -> list[list[FeatureObservation]]:
    """Per-frame feature observations with ground-truth correspondence.

    Projects every model feature for every frame (applying the intrinsics'
    distortion when present, matching what a detector would measure on raw
    frames), adds seeded Gaussian pixel noise, and drops features with the
    given probability. Observation scores are 1.
    """
    seq = np.asarray(theta_seq, dtype=float)
    pts = model.points @ np.swapaxes(_rotation(seq[:, :3]), -1, -2) + seq[:, None, 3:]
    projected = camera.project(intrinsics, camera.RigidTransform.identity(), pts, apply_distortion=True)
    rng = np.random.default_rng(noise.seed)
    frames = []
    for uv in projected:
        keep = rng.random(len(uv)) >= noise.dropout
        jitter = rng.normal(0.0, noise.sigma_px, uv.shape) if noise.sigma_px > 0 else 0.0
        uv = uv + jitter
        frames.append(
            [
                FeatureObservation(uv[i], 1.0, model_index=i)
                for i in range(len(uv))
                if keep[i]
            ]
        )
    return frames


def render_frame(
    theta: KinematicParams,
    model: GeometricTargetModel,
    intrinsics: camera.CameraIntrinsics = DEFAULT_INTRINSICS,
    image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE,
    patch_half_px: float = 10.0,
) -> np.ndarray:
    """Rasterize the target as anti-aliased saddle patches on mid-gray.

    Each feature becomes a 2x2 checker junction whose edges follow the
    projected target axes; intensities cross each edge as a smooth cubic
    ramp of half-width :data:`AA_PX` so the junction center lands at the exact
    projection. Features whose patch would leave the image (see
    :func:`outside_image`) are skipped, and counted in one warning. Returns a
    float image in [0, 1] of shape ``image_size`` (height, width).
    """
    h, w = image_size
    img = np.full((h, w), 0.5)
    identity = camera.RigidTransform.identity()
    M = motion_matrix(theta)
    pts = model.points @ M[:3, :3].T + M[:3, 3]
    centers = camera.project(intrinsics, identity, pts, apply_distortion=True)

    # In-image directions of the target's x/y axes at each feature.
    eps = 1.0  # mm
    axis_x = camera.project(
        intrinsics, identity, pts + eps * M[:3, 0], apply_distortion=True
    )
    axis_y = camera.project(
        intrinsics, identity, pts + eps * M[:3, 1], apply_distortion=True
    )

    outside = outside_image(centers, image_size, patch_half_px)
    if np.any(outside):
        logger.warning("%d of %d features outside the image; skipped", np.sum(outside), len(centers))
    for i in np.flatnonzero(~outside):
        c = centers[i]
        e1 = axis_x[i] - c
        e2 = axis_y[i] - c
        e1 /= np.linalg.norm(e1)
        e2 /= np.linalg.norm(e2)
        lo_u, hi_u = int(c[0] - patch_half_px), int(math.ceil(c[0] + patch_half_px)) + 1
        lo_v, hi_v = int(c[1] - patch_half_px), int(math.ceil(c[1] + patch_half_px)) + 1
        vv, uu = np.mgrid[lo_v:hi_v, lo_u:hi_u].astype(float)
        ru, rv = uu - c[0], vv - c[1]
        # Signed distances to the two junction edge lines (cross products).
        d1 = e1[0] * rv - e1[1] * ru
        d2 = e2[0] * rv - e2[1] * ru
        # C1 ramp: keeps sampled Sobel gradients symmetric about the true
        # center, which a hard clip does not (it aliases into ~0.05 px bias).
        h1 = np.clip(d1 / AA_PX, -1.0, 1.0)
        h2 = np.clip(d2 / AA_PX, -1.0, 1.0)
        h1 = 0.5 * h1 * (3.0 - h1 * h1)
        h2 = 0.5 * h2 * (3.0 - h2 * h2)
        inside = (np.abs(ru) <= patch_half_px) & (np.abs(rv) <= patch_half_px)
        patch = img[lo_v:hi_v, lo_u:hi_u]
        patch[inside] = 0.5 + CONTRAST * (h1 * h2)[inside]
    return img


def outside_image(
    centers: np.ndarray,
    image_size: tuple[int, int],
    patch_half_px: float = 10.0,
) -> np.ndarray:
    """Mask (n,) of the feature centers (n, 2) whose patch, as
    :func:`render_frame` draws it with the same ``patch_half_px``, would
    leave an image of ``image_size`` (height, width)."""
    h, w = image_size
    margin = patch_half_px + AA_PX + 1.0
    u, v = centers[:, 0], centers[:, 1]
    return ~((margin <= u) & (u < w - margin) & (margin <= v) & (v < h - margin))
