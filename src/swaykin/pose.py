"""6-DOF rigid kinematic model fitting against feature observations.

The kinematic state is six parameters: three Z-Y-X Euler angles (radians)
followed by three camera-frame translations (millimeters). Each frame is
fitted by a damped Levenberg-Marquardt loop on its reprojection residuals,
warm-started from the previous frame. :func:`track_sequence` then smooths
the whole run with an iterated Rauch-Tung-Striebel smoother under a
white-jerk prior on each parameter, so the poses it reports use every frame's
information, not only their own. Both solvers run one Levenberg-Marquardt
loop, :func:`_levenberg_marquardt`, and project each trial once: the
closed-form Jacobian, by the scalar triple product, is built from that
projection when the trial is accepted, and the reports are evaluated from the
last one.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from swaykin import camera
from swaykin.features import (
    MIN_OBSERVATIONS, FeatureColumns, FeatureObservation, InsufficientCorrespondenceError, _first_frames,
)

if TYPE_CHECKING:
    from swaykin.target import GeometricTargetModel

logger = logging.getLogger(__name__)

GIMBAL_MARGIN = 1e-6
# Stopping rules (see _levenberg_marquardt and fit_pose): relative cost
# decrease, for both solvers, and fit_pose's scaled gradient.
_COST_TOL = 1e-6
_GRADIENT_TOL = 1e-4
# A residual below this per feature is rounding, not measurement noise: a fit
# that reaches it has converged, and a run whose pooled residual is below it is
# noise-free and keeps its per-frame fits.
_NOISE_FREE_PX = 1e-6
# Levenberg-Marquardt damping: its start, and the factor by which it rises on
# a refused step and falls on an accepted one.
_INIT_LAMBDA = 1e-3
_LAMBDA_FACTOR = 10.0
_EYE6 = np.eye(6)
# Depth of the frontal prior from which non-planar targets are initialized.
_NOMINAL_DEPTH_MM = 1000.0


class GimbalLockError(ValueError):
    """Pitch too close to +-90 degrees for a unique Euler decomposition."""


class TrackingError(RuntimeError):
    """A sequence could not be tracked at all."""


@dataclass(frozen=True)
class KinematicParams:
    """Pose parameters: Euler angles theta1..theta3 (Z, Y, X order, radians)
    and translation theta4..theta6 (mm, camera frame)."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float
    theta5: float
    theta6: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.as_array()):
            raise ValueError("kinematic parameters must be finite")
        if abs(self.theta2) >= math.pi / 2 - GIMBAL_MARGIN:
            raise ValueError(
                f"theta2={self.theta2:.6f} rad is within the gimbal guard of +-pi/2"
            )

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.theta1, self.theta2, self.theta3, self.theta4, self.theta5, self.theta6]
        )

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "KinematicParams":
        a = np.asarray(arr, dtype=float).reshape(6)
        return cls(*a.tolist())

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.theta4, self.theta5, self.theta6])


def _rotation(angles: np.ndarray) -> np.ndarray:
    """Rotation matrices Rz(t1) Ry(t2) Rx(t3) for Euler angles of shape (..., 3).
    A single pose takes its sines and cosines on floats, which costs far less
    than array functions on three numbers."""
    if angles.ndim == 1:
        t = angles.tolist()
        (c1, c2, c3), (s1, s2, s3) = map(math.cos, t), map(math.sin, t)
    else:
        (c1, c2, c3), (s1, s2, s3) = np.moveaxis(np.cos(angles), -1, 0), np.moveaxis(np.sin(angles), -1, 0)
    R = np.array([
        c1 * c2, c1 * s2 * s3 - s1 * c3, c1 * s2 * c3 + s1 * s3,
        s1 * c2, s1 * s2 * s3 + c1 * c3, s1 * s2 * c3 - c1 * s3,
        -s2, c2 * s3, c2 * c3,
    ])
    return R.reshape(9, -1).T.reshape(angles.shape[:-1] + (3, 3))


def motion_matrix(theta: KinematicParams) -> np.ndarray:
    """Homogeneous 4x4 motion matrix: rotation Rz(t1)*Ry(t2)*Rx(t3),
    translation (t4, t5, t6)."""
    M = np.eye(4)
    M[:3, :3] = _rotation(theta.as_array()[:3])
    M[:3, 3] = theta.translation
    return M


def euler_from_rotation(R: np.ndarray) -> tuple[float, float, float]:
    """Z-Y-X Euler angles (theta1, theta2, theta3) of a rotation matrix.

    Raises :class:`GimbalLockError` when |R[2,0]| is too close to 1 for the
    decomposition to be unique.
    """
    r31 = float(R[2, 0])
    if abs(r31) > 1.0 - 1e-9:
        raise GimbalLockError(f"|R[2,0]|={abs(r31):.12f} is at gimbal lock")
    return (
        math.atan2(R[1, 0], R[0, 0]),
        -math.asin(r31),
        math.atan2(R[2, 1], R[2, 2]),
    )


@dataclass(frozen=True)
class FitReport:
    """A frame's pose and how well it explains the frame's observations.

    ``rms_residual_px`` (per feature), ``covariance_diag`` (diag((J^T J)^-1),
    a covariance proxy per px^2 of noise variance) and ``degenerate`` (J has
    rank < 6) are evaluated once, at ``theta``. ``iterations`` counts the
    frame's Levenberg-Marquardt iterations, and ``converged`` is True exactly
    when one of :func:`fit_pose`'s stopping rules (cost decrease, gradient or
    noise floor) fired. A smoothed track keeps both from the frame's own fit:
    it only carries smoothed poses once the smoother has settled.
    """

    theta: KinematicParams
    rms_residual_px: float
    iterations: int
    converged: bool
    covariance_diag: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class PoseTrack:
    """Per-frame poses on a uniform timebase. ``statuses[i]`` is ``"gap"``
    exactly where ``reports[i]`` is None, and ``"fitted"`` elsewhere."""

    rate_hz: float
    reports: list[FitReport | None]

    def __post_init__(self) -> None:
        if not self.rate_hz > 0:
            raise ValueError("rate_hz must be positive")

    @property
    def statuses(self) -> list[str]:
        return ["gap" if rep is None else "fitted" for rep in self.reports]

    @property
    def n_frames(self) -> int:
        return len(self.reports)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.rate_hz


# q @ _CROSS, reshaped to (..., 3, 3), is the matrix [q]x^T: v @ it = q x v.
_CROSS = np.cross(np.eye(3)[:, None], np.eye(3)).reshape(3, 9)
# Poses per block of _jacobian_from's rotation columns: about 160 kB of
# temporaries for 15 features.
_JACOBIAN_BLOCK = 64


def _project(
    th: np.ndarray, points: np.ndarray, obs_uv: np.ndarray, intrinsics: camera.CameraIntrinsics
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Residuals (..., 2m) of poses th (..., 6) against matched target points
    (..., m, 3) observed at obs_uv (..., m, 2), leading axes broadcasting,
    and the state that :func:`_jacobian_from` takes: R, q = R p, 1/z and K n
    for the normalized coordinates n."""
    R = _rotation(th[..., :3])
    return _project_rotated(th, R, points @ R.swapaxes(-1, -2), obs_uv, intrinsics)


def _project_rotated(
    th: np.ndarray, R: np.ndarray, q: np.ndarray, obs_uv: np.ndarray, intrinsics: camera.CameraIntrinsics
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """:func:`_project` from the rotations R (..., 3, 3) of the poses and the
    target points q = R p (..., m, 3) they rotate."""
    pc = q + th[..., None, 3:]
    z = pc[..., 2]
    if z.min() <= camera.MIN_DEPTH_MM:
        bad = int(np.argmax((z <= camera.MIN_DEPTH_MM).ravel())) % z.shape[-1]
        raise camera.BehindCameraError(f"feature {bad} transformed behind the camera")
    Kn = (pc[..., :2] / z[..., None]) @ np.array([[intrinsics.fx, 0.0], [intrinsics.skew, intrinsics.fy]])
    r = Kn + (np.array([intrinsics.x0, intrinsics.y0]) - obs_uv)
    return r.reshape(r.shape[:-2] + (-1,)), (R, q, 1.0 / z, Kn)


def _jacobian_from(
    th: np.ndarray, state: tuple[np.ndarray, ...], intrinsics: camera.CameraIntrinsics
) -> np.ndarray:
    """Closed-form Jacobian (..., 2m, 6) of the residuals at poses th (..., 6)
    from their :func:`_project` state; the observations do not enter it.

    Per point, d(uv)/d(pc) is P = [K | -K n] / z. The translation enters pc
    with the identity, so its columns are P. For Z-Y-X Euler angles
    d(R p)/d theta_k = w_k x q, with w_1 = e_z, w_2 = Rz e_y and w_3 = Rz Ry
    e_x, the first column of R; by the scalar triple product each row p of P
    gives p . (w_k x q) = w_k . (q x p), so the rotation columns are
    P [q]x^T W^T with the w_k as the rows of W. They are written into J
    ``_JACOBIAN_BLOCK`` poses at a time, so that beside J only a block's
    [q]x^T and products are held; each block's arithmetic is that of the
    whole stack.
    """
    R, q, inv_z, Kn = state
    # P goes in the translation columns, then the rotation columns are built from it.
    J = np.zeros(Kn.shape + (6,))
    J[..., 0, 3], J[..., 0, 4], J[..., 1, 4] = intrinsics.fx, intrinsics.skew, intrinsics.fy
    J[..., 5] = -Kn
    J[..., 3:] *= inv_z[..., None, None]
    W = np.zeros(R.shape)
    W[..., 0, 2] = 1.0
    W[..., 1, 0], W[..., 1, 1] = -np.sin(th[..., 0]), np.cos(th[..., 0])
    W[..., 2, :] = R[..., 0]
    # One pose is a block of one.
    Jb, qb, Wb = (J, q, W) if th.ndim > 1 else (J[None], q[None], W[None])
    for a in range(0, len(Jb), _JACOBIAN_BLOCK):
        Ja, qa = Jb[a : a + _JACOBIAN_BLOCK], qb[a : a + _JACOBIAN_BLOCK]
        qx = (qa @ _CROSS).reshape(qa.shape + (3,))
        Ja[..., :3] = Ja[..., 3:] @ qx @ Wb[a : a + _JACOBIAN_BLOCK, None].swapaxes(-1, -2)
    return J.reshape(J.shape[:-3] + (-1, 6))


def _residuals_array(
    th: np.ndarray, points: np.ndarray, obs_uv: np.ndarray, intrinsics: camera.CameraIntrinsics
) -> np.ndarray:
    """Residuals (..., 2m) of :func:`_project`."""
    return _project(th, points, obs_uv, intrinsics)[0]


def reprojection_residuals(
    theta: KinematicParams,
    model: "GeometricTargetModel",
    obs: Sequence[FeatureObservation],
    intrinsics: camera.CameraIntrinsics,
) -> np.ndarray:
    """Signed residual vector (2m,): predicted minus observed pixels, in
    observation order (u then v per feature)."""
    points, uv, _ = _stack_observations(model, [obs])
    return _residuals_array(theta.as_array(), points[0], uv[0], intrinsics)


def _jacobian(
    th: np.ndarray, points: np.ndarray, obs_uv: np.ndarray, intrinsics: camera.CameraIntrinsics
) -> np.ndarray:
    """Closed-form Jacobian (..., 2m, 6) of :func:`_residuals_array`, which
    takes the same arguments: :func:`_jacobian_from`, by the scalar triple
    product, on one :func:`_project`."""
    return _jacobian_from(th, _project(th, points, obs_uv, intrinsics)[1], intrinsics)


def _levenberg_marquardt(
    x: np.ndarray, trial: Callable, linearize: Callable, solve: Callable, max_iterations: int
) -> tuple[np.ndarray, tuple, int, bool]:
    """The Levenberg-Marquardt loop of both pose solvers, from ``x``.

    ``trial(x)`` returns the cost at ``x`` and what the solver keeps of that
    projection; ``linearize(cost, kept)`` returns the normal equations' matrix
    (..., 6, 6) and gradient there, or None when the solver's own stopping
    rule fires; ``solve(x, A, g, lam)`` returns the step for the damped
    matrix A + lam I.
    Damping adds lambda I to the matrix. It starts at 1e-3, falls tenfold on
    an accepted step and rises tenfold on a refused one, which is retried
    from the same linearization. A step is refused if it does not lower the
    cost, crosses the gimbal guard, puts a feature behind the camera or meets
    a singular system. The loop has converged when an accepted step lowers
    the cost by at most 1e-6 of its value; it stops unconverged after
    ``max_iterations`` or once damping reaches 1e12. Returns the final ``x``,
    its trial's kept state, the number of iterations and whether it
    converged.
    """
    cost, kept = trial(x)
    lam, iterations, converged = _INIT_LAMBDA, 0, False
    while not converged and iterations < max_iterations:
        system = linearize(cost, kept)
        if system is None:
            return x, kept, iterations, True
        iterations += 1
        A, g = system
        while lam < 1e12:
            try:
                cand = x + solve(x, A, g, lam)
                cost_new, kept_new = trial(cand)
            except (np.linalg.LinAlgError, GimbalLockError, camera.BehindCameraError):
                cost_new = math.inf
            if cost_new < cost:
                break
            lam *= _LAMBDA_FACTOR
        else:
            break
        converged = cost - cost_new <= _COST_TOL * cost
        x, cost, kept, lam = cand, cost_new, kept_new, lam / _LAMBDA_FACTOR
    return x, kept, iterations, converged


def _fit(
    th: np.ndarray, points: np.ndarray, obs_uv: np.ndarray, intrinsics: camera.CameraIntrinsics,
    max_iterations: int,
) -> tuple[np.ndarray, int, bool]:
    """:func:`fit_pose`'s fit from pose ``th`` (6,) of target points (m, 3)
    observed at ``obs_uv`` (m, 2): the final pose, the number of iterations
    and whether a stopping rule fired."""
    floor = len(points) * _NOISE_FREE_PX**2

    def trial(th: np.ndarray) -> tuple[float, tuple]:
        if abs(th[1]) >= math.pi / 2 - GIMBAL_MARGIN:
            raise GimbalLockError("a pose crosses the gimbal guard")
        r, state = _project(th, points, obs_uv, intrinsics)
        cost = float(r @ r)
        if not math.isfinite(cost):
            raise ValueError("the reprojection objective is not finite")
        return cost, (th, r, state)

    def linearize(cost: float, kept: tuple) -> tuple[np.ndarray, np.ndarray] | None:
        th, r, state = kept
        J = _jacobian_from(th, state, intrinsics)
        JtJ, g = J.T @ J, J.T @ r
        # A zero column has a zero gradient, which meets the rule.
        if cost <= floor or (np.abs(g) <= _GRADIENT_TOL * math.sqrt(cost) * np.sqrt(JtJ.diagonal())).all():
            return None
        return JtJ, g

    th, _, iterations, converged = _levenberg_marquardt(
        th, trial, linearize, lambda th, A, g, lam: np.linalg.solve(A + lam * _EYE6, -g), max_iterations
    )
    return th, iterations, converged


def _evaluate(r: np.ndarray, J: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RMS residual per feature (F,), the covariance proxy diag((J^T J)^+)
    (F, 6) and the rank-deficiency flag (F,) of one linearization: masked
    residuals ``r`` (F, 2m) and Jacobians ``J`` (F, 2m, 6) of the frames of
    residual mask ``mask`` (F, 2m), as :func:`_linearize` returns them."""
    rms = np.sqrt(np.sum(r**2, axis=1) / (np.sum(mask, axis=1) / 2))
    sv = np.linalg.svd(J, compute_uv=False)
    # A copy, so that the (F, 6, 6) inverse is not kept for its diagonal.
    cov = np.diagonal(np.linalg.pinv(np.swapaxes(J, 1, 2) @ J), axis1=1, axis2=2).copy()
    return rms, cov, sv[:, -1] < 1e-10 * sv[:, 0]


def fit_pose(
    init: KinematicParams,
    model: "GeometricTargetModel",
    obs: Sequence[FeatureObservation],
    intrinsics: camera.CameraIntrinsics,
    *,
    max_iterations: int = 100,
) -> FitReport:
    """Levenberg-Marquardt fit of the kinematic parameters to observations
    by :func:`_levenberg_marquardt`, with its damping, refusals and
    cost-decrease rule. The fit has also converged when the scaled gradient,
    the largest cosine between the residual vector and a Jacobian column, is
    at most 1e-4, or when the cost is at most m (1e-6 px)^2 for m features:
    the observations are met to rounding. The rules are relative, so one
    value serves radians and millimeters alike (Madsen, Nielsen & Tingleff,
    *Methods for Non-Linear Least Squares Problems*, 2004). The report,
    evaluated at the returned pose, flags ``degenerate`` when the Jacobian
    has rank < 6, and carries diag((J^T J)^-1) as a covariance proxy.
    """
    if len(obs) < MIN_OBSERVATIONS:
        raise InsufficientCorrespondenceError(
            f"{len(obs)} observation(s); pose fitting needs at least {MIN_OBSERVATIONS}"
        )
    points, uv, mask = stack = _stack_observations(model, [obs])
    th, iterations, converged = _fit(init.as_array(), points[0], uv[0], intrinsics, max_iterations)
    rms, cov, degenerate = _evaluate(*_linearize(th[None], stack, intrinsics), mask)
    if degenerate[0]:
        logger.warning("pose Jacobian is rank deficient at theta %s", th)
    return FitReport(
        KinematicParams.from_array(th), float(rms[0]), iterations, converged, cov[0], bool(degenerate[0])
    )


def initialize_first_frame(
    model: "GeometricTargetModel",
    obs: Sequence[FeatureObservation],
    intrinsics: camera.CameraIntrinsics,
) -> KinematicParams:
    """Closed-form pose initialization for a frame with no prior.

    Planar models use the plane-to-image homography decomposition; the
    resulting rotation is converted to Z-Y-X Euler angles. Non-planar models
    fall back to a full fit from a frontal prior at the nominal depth.
    """
    if len(obs) < MIN_OBSERVATIONS:
        raise InsufficientCorrespondenceError(
            f"{len(obs)} observation(s); initialization needs at least {MIN_OBSERVATIONS}"
        )
    points, uv, _ = _stack_observations(model, [obs])

    centroid = model.points.mean(axis=0)
    _, sv, Vt = np.linalg.svd(model.points - centroid)
    if sv[2] <= 1e-6:
        if np.linalg.det(Vt) < 0:
            Vt = Vt * np.array([[1.0], [1.0], [-1.0]])
        plane_xy = (points[0] - centroid) @ Vt[:2].T
        pose = camera.estimate_planar_extrinsics(intrinsics, plane_xy, uv[0])
        # Compose plane-to-camera with the model-to-plane basis change.
        R = pose.rotation @ Vt
        t = pose.translation - R @ centroid
        t1, t2, t3 = euler_from_rotation(R)
        return KinematicParams(t1, t2, t3, *t.tolist())

    prior = KinematicParams(0.0, 0.0, 0.0, 0.0, 0.0, _NOMINAL_DEPTH_MM)
    return fit_pose(prior, model, obs, intrinsics).theta


# ---------------------------------------------------------------------------
# sequence smoothing

# White-jerk motion model of one pose parameter with time in frames: _JERK_F
# advances (position, velocity, acceleration) by one frame, and _JERK_Q is the
# covariance that a unit jerk density adds over that frame.
_JERK_F = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
_JERK_Q = np.array([[1 / 20, 1 / 8, 1 / 6], [1 / 8, 1 / 3, 1 / 2], [1 / 6, 1 / 2, 1.0]])
# Candidate jerk densities, in units of the per-frame measurement variance.
# The smoother's cut-off is near density**(1/6) rad/frame, so the grid spans
# cut-offs from 0.01 rad/frame (0.05 Hz at 30 Hz) to far beyond Nyquist.
_JERK_DENSITIES = 10.0 ** np.arange(-12.0, 8.25, 0.5)
_SMOOTHER_MAX_PASSES = 100


def _jerk_matrices(inv_density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-frame transition F and process precision G of independent
    white-jerk parameters, one per entry of ``inv_density``. A frame's state
    holds each parameter's (position, velocity, acceleration) in turn, which
    keeps the band of the smoother's normal equations narrow."""
    p = len(inv_density)
    return np.kron(np.eye(p), _JERK_F), np.kron(np.diag(inv_density), np.linalg.inv(_JERK_Q))


def _jerk_banded(T: int, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Prior precision over T >= 2 frames of the jerk increments
    z[t+1] - F z[t], the first state having a flat prior.

    The matrix is block-tridiagonal with the same blocks at every interior
    frame, so its lower banded storage (the ``ab`` argument of
    :func:`scipy.linalg.solveh_banded` with ``lower=True``) is one frame's
    columns tiled, with the first and last frames' diagonal blocks replaced.
    The band ends at its last nonzero diagonal, and the array is in Fortran
    order, as LAPACK takes it without a copy.
    """
    s = len(G)
    lower = np.tril_indices(s)
    full = np.indices((s, s)).reshape(2, -1)

    def columns(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
        ab = np.zeros((2 * s, s))
        ab[lower[0] - lower[1], lower[1]] = diag[lower]
        ab[s + full[0] - full[1], full[1]] = sub[full[0], full[1]]
        return ab

    FGF = F.T @ G @ F
    inner = columns(G + FGF, -G @ F)
    rows = 1 + np.flatnonzero(np.any(inner != 0.0, axis=1))[-1]
    ab = np.tile(inner[:rows].T, (T, 1)).T
    ab[:, :s] = columns(FGF, -G @ F)[:rows]
    ab[:, -s:] = columns(G, np.zeros_like(G))[:rows]
    return ab


def _jerk_density(t: np.ndarray, y: np.ndarray, var: np.ndarray, T: int) -> float:
    """Maximum-likelihood white-jerk density of one parameter's series.

    ``y`` are measurements at frames ``t`` (of T) with variances ``var``, in
    units of the measurement noise. Each density of the grid is scored by the
    diffuse likelihood: the likelihood of the Kalman innovations when the
    first state has a flat prior, here from a banded Cholesky factorization
    of the normal equations.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded
    F, G = _jerk_matrices(np.ones(1))
    prior = _jerk_banded(T, F, G)
    rhs = np.zeros(3 * T)
    rhs[3 * t] = y / var
    nll = []
    for density in _JERK_DENSITIES:
        ab = prior / density
        ab[0, 3 * t] += 1.0 / var
        chol = cholesky_banded(ab, lower=True, overwrite_ab=True)
        z = cho_solve_banded((chol, True), rhs).reshape(T, 3)
        w = z[1:] - z[:-1] @ F.T
        misfit = np.sum((y - z[t, 0]) ** 2 / var) + np.einsum("ti,ij,tj->", w, G, w) / density
        logdet = 2.0 * np.sum(np.log(chol[0]))
        nll.append(misfit + logdet + 3 * (T - 1) * np.log(density))
    return float(_JERK_DENSITIES[np.argmin(nll)])


def _columns(frames: Sequence[Sequence[FeatureObservation]] | FeatureColumns) -> FeatureColumns:
    """Observations as columns; per-frame lists are converted."""
    return frames if isinstance(frames, FeatureColumns) else FeatureColumns.from_frames(frames)


def _stack_observations(
    model: "GeometricTargetModel", frames: Sequence[Sequence[FeatureObservation]] | FeatureColumns
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Target points (F, m, 3), observed pixels (F, m, 2) and a residual mask
    (F, 2m) of F frames, padded to the largest frame with model point 0, zero
    pixels and a zero mask; this module's one reader of observations. Every
    ``model_index`` is checked at once. The first observation in frame order
    without one, or with one outside the target, decides the ValueError;
    failing that, the first frame that lists one model index twice does."""
    cols = _columns(frames)
    idx, m = cols.model_index, len(model.points)
    # NaN, an observation without an index, fails both bounds.
    outside = ~((idx >= 0) & (idx < m))
    if outside.any():
        first = idx[np.argmax(outside)]
        if math.isnan(first):
            raise ValueError("all observations must carry a model_index")
        raise ValueError(f"model_index {int(first)} is outside [0, {m}) of target '{model.name}'")
    idx = idx.astype(int)
    twice = np.bincount(cols.frame * m + idx, minlength=cols.n_frames * m) > 1
    if twice.any():
        frame, index = divmod(int(np.argmax(twice)), m)
        raise ValueError(f"frame {frame} lists model_index {index} twice")
    sizes = np.bincount(cols.frame, minlength=cols.n_frames)
    # Row-major order is frame order, so the filled slots take the rows.
    filled = np.arange(sizes.max(initial=0)) < sizes[:, None]
    points = np.broadcast_to(model.points[0], filled.shape + (3,)).copy()
    points[filled] = model.points[idx]
    uv = np.zeros(filled.shape + (2,))
    uv[filled] = cols.uv
    return points, uv, np.repeat(filled, 2, axis=1)


def _linearize(
    theta: np.ndarray,
    stack: tuple[np.ndarray, np.ndarray, np.ndarray],
    intrinsics: camera.CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked residuals (F, 2m) and Jacobians (F, 2m, 6) of the frames of
    ``stack`` at poses ``theta`` (F, 6), from one projection."""
    points, uv, mask = stack
    return _masked(theta, *_project(theta, points, uv, intrinsics), mask, intrinsics)


def _masked(
    theta: np.ndarray, r: np.ndarray, state: tuple[np.ndarray, ...], mask: np.ndarray,
    intrinsics: camera.CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray]:
    """The residuals ``r`` (F, 2m) of a projection at ``theta`` and its
    Jacobians, both masked in place by the residual mask (F, 2m)."""
    r *= mask
    J = _jacobian_from(theta, state, intrinsics)
    J *= mask[..., None]
    return r, J


def _smooth_poses(
    theta: np.ndarray,
    t: np.ndarray,
    informative: np.ndarray,
    cov: np.ndarray,
    stack: tuple[np.ndarray, np.ndarray, np.ndarray],
    sigma2: float,
    intrinsics: camera.CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Iterated fixed-interval smoothing of per-frame fits ``theta`` (F, 6)
    at frame offsets ``t`` (increasing, from 0).

    Work is in scaled units: each parameter is centered on its mean and
    divided by its median per-frame standard error per unit noise, and the
    whole objective is multiplied by the noise variance ``sigma2``, so the
    normal equations do not depend on the noise level. ``cov`` (F, 6) holds
    the fits' variances per unit noise, diag((J^T J)^+); those of the
    ``informative`` frames, with full-rank Jacobians, pick the jerk densities.
    Each pass is an iteration of :func:`_levenberg_marquardt` on that
    objective, with each fitted frame's information damped; each trial
    projects the run once, and the next pass linearizes from the accepted
    trial's projection, of which only the rotated points are kept between
    passes. Returns the smoothed poses, their masked residuals
    and Jacobians (as :func:`_linearize` gives them), the number of passes
    and whether the passes settled.
    """
    points, uv, mask = stack
    T = int(t[-1]) + 1
    var = cov[informative]
    scale = np.sqrt(np.median(var, axis=0))
    mean = theta.mean(axis=0)
    xi = (theta - mean) / scale
    noise = math.sqrt(sigma2)
    density = np.array(
        [
            _jerk_density(t[informative], xi[informative, k] / noise, var[:, k] / scale[k] ** 2, T)
            for k in range(6)
        ]
    )
    F, G = _jerk_matrices(1.0 / density)

    def trial(z: np.ndarray) -> tuple[float, tuple]:
        # Half the squared residuals plus half w^T G w over the jerk
        # increments w, with the poses and rotated points it took; raises
        # past the gimbal guard or behind the camera.
        th = mean + scale * z[t, ::3]
        if np.any(np.abs(th[:, 1]) >= math.pi / 2 - GIMBAL_MARGIN):
            raise GimbalLockError("a smoothed pose crosses the gimbal guard")
        r, state = _project(th, points, uv, intrinsics)
        r *= mask
        w = z[1:] - z[:-1] @ F.T
        return 0.5 * float(np.sum(r**2) + np.einsum("ti,ij,tj->", w, G, w)), (th, state[1])

    def linearized(th: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The rest of a trial's projection, rebuilt from its rotated points
        # by the same arithmetic: the trial's own values.
        r, state = _project_rotated(th, _rotation(th[:, :3]), q, uv, intrinsics)
        return _masked(th, r, state, mask, intrinsics)

    def linearize(cost: float, kept: tuple) -> tuple[np.ndarray, np.ndarray]:
        # The steps need only J^T J and J^T r; on a long run r and J are
        # large, and they are dropped on return.
        r, J = linearized(*kept)
        return np.swapaxes(J, 1, 2) @ J * scale[:, None] * scale, np.einsum("fmi,fm->fi", J, r) * scale

    # State per frame: each parameter's scaled position, velocity and
    # acceleration. Each pass solves for the increment, so rounding scales
    # with the step.
    z = np.zeros((T, 18))
    z[t, ::3] = xi
    _, (th, q), passes, settled = _levenberg_marquardt(
        z, trial, linearize, lambda z, A, g, lam: _gauss_newton_step(z, t, F, G, A, lam, g), _SMOOTHER_MAX_PASSES
    )
    return (th, *linearized(th, q), passes, settled)


def _gauss_newton_step(
    z: np.ndarray, t: np.ndarray, F: np.ndarray, G: np.ndarray, info: np.ndarray, lam: float, grad: np.ndarray
) -> np.ndarray:
    """Gauss-Newton increment (T, 18) of the smoother's states ``z``.

    Each frame at ``t`` contributes its residuals linearized at the current
    pose, i.e. the Gauss-Newton step from there, with information ``info``
    (F, 6, 6), damped by ``lam`` on its diagonal, and data gradient ``grad``
    (F, 6) on its positions.
    """
    from scipy.linalg import solveh_banded
    T = len(z)
    # The prior's gradient, from the jerk increments rather than from the
    # precision times z, whose terms nearly cancel.
    Gw = (z[1:] - z[:-1] @ F.T) @ G
    rhs = np.zeros((T, 18))
    rhs[:-1] += Gw @ F
    rhs[1:] -= Gw
    rhs[t, ::3] -= grad
    del Gw  # before the band, the largest array, is built
    ab = _jerk_banded(T, F, G)
    # One entry of the lower triangle at a time, so that the largest
    # temporaries beside the band are (F,).
    for i, j in zip(*np.tril_indices(6)):
        ab[3 * (i - j), 18 * t + 3 * j] += info[:, i, j] + lam * _EYE6[i, j]
    return solveh_banded(ab, rhs.ravel(), overwrite_ab=True, overwrite_b=True, lower=True).reshape(T, 18)


def track_sequence(
    frames: Sequence[Sequence[FeatureObservation]] | FeatureColumns,
    model: "GeometricTargetModel",
    intrinsics: camera.CameraIntrinsics,
    rate_hz: float = 30.0,
) -> PoseTrack:
    """Fit every frame of a sequence, then smooth the poses over the run.

    The first fittable frame is initialized closed-form; each later frame
    starts from the most recent fit. Frames with fewer than 4 matched
    observations (or where initialization or fitting fails) get status
    ``gap`` and no report, and stay gaps; the frames that fail are named in
    one warning. Raises :class:`TrackingError` if nothing fits. ``frames``
    are per-frame lists or the run's :class:`FeatureColumns`; the lists are
    converted to columns, and the whole run, short and empty frames
    included, is stacked once from them. Both solvers read the stack's rows,
    and observations are made only for the first frame's initialization. An
    observation without a ``model_index`` or with one outside the target, and
    a frame that lists one model index twice, raise ``ValueError``; the first
    in frame order is reported.

    The per-frame fits then seed an iterated fixed-interval Rauch-Tung-
    Striebel smoother over the 6-DOF pose (Rauch, Tung & Striebel, AIAA J.
    3(8), 1965):

    - its prior is a white-jerk model (position, velocity, acceleration) of
      each pose parameter;
    - each fitted frame is measured by the Gauss-Newton step from the
      current smoothed pose, with full covariance sigma^2 (J^T J)^-1: J is
      taken at the smoothed pose, from the projection that accepted it, and
      sigma^2 is pooled over the run from the per-frame fits' residuals;
    - it re-linearizes at the smoothed pose, which makes it Gauss-Newton on
      the run's objective (Bell, SIAM J. Optim. 4(3), 1994), damped by
      :func:`fit_pose`'s loop (Sarkka & Svensson, ICASSP 2020) for at most
      100 passes;
    - each parameter's jerk density maximizes the likelihood of the
      innovations of the per-frame fits over a grid.

    The smoothed mean is found in information form, by a banded Cholesky
    solve of the block-tridiagonal normal equations, whose forward and back
    substitutions are the filter and the RTS sweeps. Noise-free observations
    (sigma^2 = 0) and runs with fewer than 3 full-rank fitted frames keep the
    per-frame fits. So does a run whose smoother does not settle, with a
    warning. Every report describes the pose it returns: residual, covariance
    proxy and degeneracy are evaluated once, at the returned pose, from the
    linearization made there (the smoother's last accepted trial, or the
    per-frame fits' one evaluation, which also gives the variances that pick
    the jerk densities), and the rank-deficient frames among them are named
    in one warning.
    """
    cols = _columns(frames)
    points, uv, mask = _stack_observations(model, cols)
    sizes = np.bincount(cols.frame, minlength=cols.n_frames)
    # Each frame's fit: its pose, iterations and whether it converged.
    poses = np.zeros((cols.n_frames, 6))
    iterations = np.zeros(cols.n_frames, dtype=int)
    converged = np.zeros(cols.n_frames, dtype=bool)
    fitted: list[int] = []
    failed: list[int] = []
    for i in np.flatnonzero(sizes >= MIN_OBSERVATIONS).tolist():
        n = sizes[i]
        try:
            if fitted:
                init = poses[fitted[-1]]
            else:
                init = initialize_first_frame(model, cols.observations(i), intrinsics).as_array()
            poses[i], iterations[i], converged[i] = _fit(init, points[i, :n], uv[i, :n], intrinsics, 100)
            fitted.append(i)
        except (GimbalLockError, camera.DegenerateGeometryError, camera.BehindCameraError) as e:
            logger.debug("frame %d: %s; marking gap", i, e)
            failed.append(i)
    if failed:
        logger.warning(
            "%d of %d frames could not be fitted and are gaps: %s",
            len(failed), cols.n_frames, _first_frames(failed),
        )
    if not fitted:
        raise TrackingError("no frame in the sequence could be fitted")

    # The fitted frames' rows, padded to the largest of them; the names are
    # rebound so that the run's stack is freed.
    pad = sizes[fitted].max()
    points, uv, mask = stack = points[fitted, :pad], uv[fitted, :pad], mask[fitted, : 2 * pad]
    theta = poses[fitted]
    rms, cov, degenerate = _evaluate(*_linearize(theta, stack, intrinsics), stack[2])
    m = np.sum(stack[2], axis=1) / 2
    sigma2 = float(np.sum(rms**2 * m) / np.sum(2 * m - 6))
    if sigma2 > _NOISE_FREE_PX**2 and np.sum(~degenerate) >= 3:
        try:
            smoothed, r, J, passes, settled = _smooth_poses(
                theta, np.array(fitted) - fitted[0], ~degenerate, cov, stack, sigma2, intrinsics
            )
            if settled:
                rms, cov, degenerate = _evaluate(r, J, stack[2])
                theta = smoothed
                logger.debug("pose smoother settled after %d passes", passes)
            else:
                logger.warning(
                    "pose smoother did not settle in %d passes; keeping the per-frame fits", passes
                )
        except (GimbalLockError, camera.BehindCameraError, np.linalg.LinAlgError) as e:
            logger.warning("pose smoother failed (%s); keeping the per-frame fits", e)
    if np.any(degenerate):
        rank_deficient = [fitted[f] for f in np.flatnonzero(degenerate)]
        logger.warning(
            "pose Jacobian is rank deficient on %d of %d frames: %s",
            len(rank_deficient), cols.n_frames, _first_frames(rank_deficient),
        )

    reports: list[FitReport | None] = [None] * cols.n_frames
    for f, i in enumerate(fitted):
        th = KinematicParams.from_array(theta[f])
        reports[i] = FitReport(
            th, float(rms[f]), int(iterations[i]), bool(converged[i]), cov[f], bool(degenerate[f])
        )
    return PoseTrack(rate_hz=rate_hz, reports=reports)
