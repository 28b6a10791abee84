"""Pinhole camera model, radial lens distortion, and planar-target calibration.

Conventions
-----------
* World and camera coordinates are millimeters; the camera frame is
  right-handed with +x right, +y down, +z forward (scene depth is positive z).
* Pixel coordinates (u, v) put the origin at the top-left pixel center,
  +u right, +v down. Arrays of points are shaped (n, 2) or (n, 3), row-major.
* The intrinsic matrix is upper triangular::

      K = [[fx, s, x0],
           [0, fy, y0],
           [0,  0,  1]]

* Radial distortion acts on normalized coordinates, before K is applied:
  a pinhole point p = (x, y) maps to p * (1 + k1*r^2 + k2*r^4), r^2 = x^2+y^2.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage, optimize

logger = logging.getLogger(__name__)

# Minimum forward depth (mm) for a point to count as "in front of" the camera.
MIN_DEPTH_MM = 1e-6

# Fixed-point undistortion loop limits (normalized-coordinate units).
UNDISTORT_MAX_ITER = 20
UNDISTORT_TOL = 1e-10

# Orthonormality tolerance for rotation blocks.
ROTATION_TOL = 1e-9


class BehindCameraError(ValueError):
    """A point to be projected lies at or behind the camera plane."""


class DistortionInversionError(RuntimeError):
    """Fixed-point undistortion failed to converge."""


class DegenerateGeometryError(ValueError):
    """Point configuration too degenerate for the requested estimate."""


class CalibrationError(RuntimeError):
    """Calibration could not produce a well-conditioned solution."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics plus two-coefficient radial distortion.

    Focal lengths and principal point are in pixels; ``skew`` is the
    off-diagonal K entry; ``k1``/``k2`` are the r^2 and r^4 coefficients.
    """

    fx: float
    fy: float
    x0: float
    y0: float
    skew: float = 0.0
    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.fx, self.fy, self.x0, self.y0, self.skew, self.k1, self.k2)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [[self.fx, self.skew, self.x0], [0.0, self.fy, self.y0], [0.0, 0.0, 1.0]]
        )

    @property
    def has_distortion(self) -> bool:
        return self.k1 != 0.0 or self.k2 != 0.0


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation mapping points into another frame (x' = R x + t)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("transform entries must be finite")
        if np.max(np.abs(R @ R.T - np.eye(3))) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @property
    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 form."""
        M = np.eye(4)
        M[:3, :3] = self.rotation
        M[:3, 3] = self.translation
        return M

    def apply(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -Rt @ self.translation)


def distort_normalized(intrinsics: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Apply radial distortion to normalized image coordinates, shape (..., 2)."""
    p = np.asarray(points, dtype=float)
    r2 = np.sum(p * p, axis=-1, keepdims=True)
    return p * (1.0 + intrinsics.k1 * r2 + intrinsics.k2 * r2 * r2)


def undistort_normalized(intrinsics: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Invert :func:`distort_normalized` by damped fixed-point iteration.

    Raises :class:`DistortionInversionError` if any point fails to reach
    ``UNDISTORT_TOL`` within ``UNDISTORT_MAX_ITER`` sweeps.
    """
    pd = np.asarray(points, dtype=float)
    if not intrinsics.has_distortion:
        return pd.copy()
    p = pd.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(UNDISTORT_MAX_ITER):
            # Residual in distorted space, fed back as an additive correction.
            step = pd - distort_normalized(intrinsics, p)
            if not np.all(np.isfinite(step)):
                raise DistortionInversionError("undistortion diverged (non-finite iterate)")
            p = p + step
            if np.max(np.abs(step)) < UNDISTORT_TOL:
                return p
    worst = float(np.max(np.abs(pd - distort_normalized(intrinsics, p))))
    raise DistortionInversionError(
        f"undistortion did not converge in {UNDISTORT_MAX_ITER} iterations "
        f"(residual {worst:.3e})"
    )


def _apply_K(intrinsics: CameraIntrinsics, xn: np.ndarray) -> np.ndarray:
    u = intrinsics.fx * xn[..., 0] + intrinsics.skew * xn[..., 1] + intrinsics.x0
    v = intrinsics.fy * xn[..., 1] + intrinsics.y0
    return np.stack([u, v], axis=-1)


def _invert_K(intrinsics: CameraIntrinsics, uv: np.ndarray) -> np.ndarray:
    y = (uv[..., 1] - intrinsics.y0) / intrinsics.fy
    x = (uv[..., 0] - intrinsics.x0 - intrinsics.skew * y) / intrinsics.fx
    return np.stack([x, y], axis=-1)


def project(
    intrinsics: CameraIntrinsics,
    pose: RigidTransform,
    points: np.ndarray,
    *,
    apply_distortion: bool = False,
) -> np.ndarray:
    """Project world points (..., 3) to pixel coordinates (..., 2).

    ``pose`` maps world to camera coordinates. Points with camera depth
    z <= MIN_DEPTH_MM raise :class:`BehindCameraError`.
    """
    pc = pose.apply(points)
    z = pc[..., 2]
    if np.any(z <= MIN_DEPTH_MM):
        bad = np.argwhere(z <= MIN_DEPTH_MM).ravel()
        raise BehindCameraError(f"point(s) at index {bad.tolist()} lie behind the camera")
    xn = pc[..., :2] / z[..., None]
    if apply_distortion and intrinsics.has_distortion:
        xn = distort_normalized(intrinsics, xn)
    return _apply_K(intrinsics, xn)


def distort_point(intrinsics: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Map ideal pinhole pixels to their observed (distorted) positions."""
    xn = _invert_K(intrinsics, np.asarray(pixels, dtype=float))
    return _apply_K(intrinsics, distort_normalized(intrinsics, xn))


def undistort_point(intrinsics: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Map observed (distorted) pixels to ideal pinhole positions."""
    xd = _invert_K(intrinsics, np.asarray(pixels, dtype=float))
    return _apply_K(intrinsics, undistort_normalized(intrinsics, xd))


def undistort_frame(
    intrinsics: CameraIntrinsics,
    image: np.ndarray,
    window: tuple[int, int, int, int] | None = None,
) -> np.ndarray:
    """Resample an image so straight lines are straight under the pinhole model.

    Each output pixel is bilinearly sampled from the source at its distorted
    location; samples outside the source are 0.

    ``window = (u0, v0, u1, v1)`` remaps only the output columns
    ``u0 <= u < u1`` and rows ``v0 <= v < v1``, still sampling the whole
    source: the result equals ``undistort_frame(intrinsics, image)[v0:v1, u0:u1]``
    value for value. An empty window or one that leaves the image raises
    ``ValueError``.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"expected a nonempty 2D grayscale image, got shape {img.shape}")
    h, w = img.shape
    u0, v0, u1, v1 = (0, 0, w, h) if window is None else (int(x) for x in window)
    if not (0 <= u0 < u1 <= w and 0 <= v0 < v1 <= h):
        raise ValueError(f"window {window} is empty or leaves the {w}x{h} image")
    if not intrinsics.has_distortion:
        return img[v0:v1, u0:u1].copy()
    vv, uu = np.meshgrid(
        np.arange(v0, v1, dtype=float), np.arange(u0, u1, dtype=float), indexing="ij"
    )
    src = distort_point(intrinsics, np.stack([uu.ravel(), vv.ravel()], axis=-1))
    coords = np.stack([src[:, 1].reshape(uu.shape), src[:, 0].reshape(uu.shape)])
    return ndimage.map_coordinates(img, coords, order=1, mode="constant", cval=0.0)


def _normalize_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic normalization: centroid to origin, mean radius sqrt(2).

    Returns (normalized points, 3x3 transform T with p_norm = T @ p_homog).
    """
    c = points.mean(axis=0)
    d = np.sqrt(np.sum((points - c) ** 2, axis=1)).mean()
    s = math.sqrt(2.0) / d if d > 0 else 1.0
    T = np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])
    return (points - c) * s, T


def estimate_homography(world_xy: np.ndarray, image_uv: np.ndarray) -> np.ndarray:
    """DLT homography from plane coordinates to pixels, H (3x3), H[2,2] = 1.

    Both point sets are isotropically normalized before the SVD solve.
    Raises :class:`DegenerateGeometryError` for n < 4 or rank-deficient
    configurations (e.g. collinear points).
    """
    X = np.asarray(world_xy, dtype=float)
    U = np.asarray(image_uv, dtype=float)
    if X.shape != U.shape or X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"expected matching (n, 2) arrays, got {X.shape} and {U.shape}")
    n = X.shape[0]
    if n < 4:
        raise DegenerateGeometryError(f"homography needs at least 4 correspondences, got {n}")

    Xn, TX = _normalize_2d(X)
    Un, TU = _normalize_2d(U)

    A = np.zeros((2 * n, 9))
    A[0::2, 0:2] = Xn
    A[0::2, 2] = 1.0
    A[0::2, 6:8] = -Un[:, :1] * Xn
    A[0::2, 8] = -Un[:, 0]
    A[1::2, 3:5] = Xn
    A[1::2, 5] = 1.0
    A[1::2, 6:8] = -Un[:, 1:2] * Xn
    A[1::2, 8] = -Un[:, 1]

    _, s, Vt = np.linalg.svd(A)
    # The solution lives in the (near-)null space; a second near-zero singular
    # value means the configuration does not pin down a unique homography.
    if s[-2] < 1e-8 * s[0]:
        raise DegenerateGeometryError(
            f"homography system is rank deficient (singular values {s[-2]:.3e}/{s[0]:.3e})"
        )
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(TU) @ Hn @ TX
    if abs(H[2, 2]) < 1e-12 * np.linalg.norm(H):
        raise DegenerateGeometryError("homography is not normalizable (H[2,2] ~ 0)")
    return H / H[2, 2]


def estimate_planar_extrinsics(
    intrinsics: CameraIntrinsics, world_xy: np.ndarray, image_uv: np.ndarray
) -> RigidTransform:
    """Closed-form board pose from a plane-to-image homography.

    ``world_xy`` are coordinates in the board plane (z = 0). The rotation is
    re-orthonormalized by SVD and the board is placed in front of the camera.
    """
    H = estimate_homography(world_xy, image_uv)
    Kinv = np.linalg.inv(intrinsics.K)
    h1, h2, h3 = (Kinv @ H[:, i] for i in range(3))
    scale = 2.0 / (np.linalg.norm(h1) + np.linalg.norm(h2))
    if scale * h3[2] < 0:
        # Homography sign is arbitrary; choose the solution with positive depth.
        h1, h2, h3 = -h1, -h2, -h3
    r1 = h1 * scale
    r2 = h2 * scale
    R0 = np.column_stack([r1, r2, np.cross(r1, r2)])
    Uo, _, Vto = np.linalg.svd(R0)
    R = Uo @ Vto
    if np.linalg.det(R) < 0:
        R = Uo @ np.diag([1.0, 1.0, -1.0]) @ Vto
    return RigidTransform(R, h3 * scale)


@dataclass(frozen=True)
class CalibrationResult:
    intrinsics: CameraIntrinsics
    extrinsics: list[RigidTransform] = field(default_factory=list)
    rms_px: float = 0.0


def _rodrigues(rvec: np.ndarray) -> np.ndarray:
    """Axis-angle vector to rotation matrix."""
    theta = np.linalg.norm(rvec)
    if theta < 1e-12:
        return np.eye(3)
    k = rvec / theta
    Kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(theta) * Kx + (1.0 - math.cos(theta)) * (Kx @ Kx)


def _rodrigues_inv(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to axis-angle vector."""
    cos_t = max(-1.0, min(1.0, (np.trace(R) - 1.0) / 2.0))
    theta = math.acos(cos_t)
    if theta < 1e-12:
        return np.zeros(3)
    if abs(math.pi - theta) < 1e-6:
        # Near pi the antisymmetric part vanishes; use (R + I)/2 ~ axis axis^T.
        M = (R + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(M)))
        axis = M[:, i] / math.sqrt(M[i, i])
        return axis / np.linalg.norm(axis) * theta
    axis = (
        np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        / (2.0 * math.sin(theta))
    )
    return axis * theta


def _intrinsics_from_homographies(Hs: list[np.ndarray]) -> CameraIntrinsics:
    """Closed-form intrinsics from the absolute-conic constraints of >= 3 views."""

    def vij(H: np.ndarray, i: int, j: int) -> np.ndarray:
        hi, hj = H[:, i], H[:, j]
        return np.array(
            [
                hi[0] * hj[0],
                hi[0] * hj[1] + hi[1] * hj[0],
                hi[1] * hj[1],
                hi[2] * hj[0] + hi[0] * hj[2],
                hi[2] * hj[1] + hi[1] * hj[2],
                hi[2] * hj[2],
            ]
        )

    V = np.zeros((2 * len(Hs), 6))
    for m, H in enumerate(Hs):
        V[2 * m] = vij(H, 0, 1)
        V[2 * m + 1] = vij(H, 0, 0) - vij(H, 1, 1)

    _, s, Vt = np.linalg.svd(V)
    if s[-2] < 1e-8 * s[0]:
        raise CalibrationError(
            "views do not constrain the intrinsics (condition number "
            f"{s[0] / max(s[-2], 1e-300):.3e}); use more varied board orientations"
        )
    b11, b12, b22, b13, b23, b33 = Vt[-1]

    den = b11 * b22 - b12 * b12
    if abs(den) < 1e-16 or abs(b11) < 1e-16:
        raise CalibrationError("conic estimate is degenerate")
    v0 = (b12 * b13 - b11 * b23) / den
    lam = b33 - (b13 * b13 + v0 * (b12 * b13 - b11 * b23)) / b11
    if lam / b11 <= 0 or lam * b11 / den <= 0:
        raise CalibrationError("conic estimate is not positive definite")
    alpha = math.sqrt(lam / b11)
    beta = math.sqrt(lam * b11 / den)
    gamma = -b12 * alpha * alpha * beta / lam
    u0 = gamma * v0 / beta - b13 * alpha * alpha / lam
    return CameraIntrinsics(fx=alpha, fy=beta, x0=u0, y0=v0, skew=gamma)


def calibrate(
    image_points: list[np.ndarray], board_xy: np.ndarray
) -> CalibrationResult:
    """Calibrate intrinsics and per-view extrinsics from planar-board views.

    Parameters
    ----------
    image_points : list of (n, 2) arrays
        Detected pixel positions of the board features in each view, in
        board order. At least 3 views with distinct orientations.
    board_xy : (n, 2) array
        Feature coordinates in the board plane, millimeters.

    Returns
    -------
    CalibrationResult
        Refined intrinsics (including k1, k2), one extrinsic per view, and
        the RMS reprojection distance in pixels.

    Notes
    -----
    Closed-form initialization (per-view DLT homographies, absolute-conic
    intrinsics, homography-decomposition extrinsics) followed by a joint
    Levenberg-Marquardt refinement of all parameters.
    """
    X = np.asarray(board_xy, dtype=float)
    if len(image_points) < 3:
        raise CalibrationError(f"need at least 3 views, got {len(image_points)}")
    views = [np.asarray(p, dtype=float) for p in image_points]
    for i, p in enumerate(views):
        if p.shape != X.shape:
            raise ValueError(f"view {i} has shape {p.shape}, expected {X.shape}")

    Hs = [estimate_homography(X, p) for p in views]
    K0 = _intrinsics_from_homographies(Hs)
    poses0 = [estimate_planar_extrinsics(K0, X, p) for p in views]

    n_views = len(views)
    X3 = np.column_stack([X, np.zeros(len(X))])
    obs = np.concatenate([p.ravel() for p in views])

    def unpack(params: np.ndarray):
        fx, fy, x0, y0, skew, k1, k2 = params[:7]
        poses = []
        for i in range(n_views):
            seg = params[7 + 6 * i : 13 + 6 * i]
            poses.append((_rodrigues(seg[:3]), seg[3:]))
        return (fx, fy, x0, y0, skew, k1, k2), poses

    def residuals(params: np.ndarray) -> np.ndarray:
        (fx, fy, x0, y0, skew, k1, k2), poses = unpack(params)
        out = []
        for (R, t), uv in zip(poses, views):
            pc = X3 @ R.T + t
            xn = pc[:, :2] / pc[:, 2:3]
            r2 = np.sum(xn * xn, axis=1, keepdims=True)
            xd = xn * (1.0 + k1 * r2 + k2 * r2 * r2)
            u = fx * xd[:, 0] + skew * xd[:, 1] + x0
            v = fy * xd[:, 1] + y0
            out.append(np.column_stack([u, v]).ravel() - uv.ravel())
        return np.concatenate(out)

    p0 = np.zeros(7 + 6 * n_views)
    p0[:7] = [K0.fx, K0.fy, K0.x0, K0.y0, K0.skew, 0.0, 0.0]
    for i, pose in enumerate(poses0):
        p0[7 + 6 * i : 10 + 6 * i] = _rodrigues_inv(pose.rotation)
        p0[10 + 6 * i : 13 + 6 * i] = pose.translation

    sol = optimize.least_squares(residuals, p0, method="lm", xtol=1e-14, ftol=1e-14)
    (fx, fy, x0, y0, skew, k1, k2), poses = unpack(sol.x)
    intr = CameraIntrinsics(fx=fx, fy=fy, x0=x0, y0=y0, skew=skew, k1=k1, k2=k2)
    extr = [RigidTransform(R, t) for R, t in poses]
    n_pts = sum(len(p) for p in views)
    rms = float(np.sqrt(np.sum(sol.fun**2) / n_pts))
    logger.info("calibrated %d views, RMS %.4f px", n_views, rms)
    return CalibrationResult(intrinsics=intr, extrinsics=extr, rms_px=rms)
