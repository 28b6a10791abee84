"""6-DOF rigid kinematic model fitting against feature observations.

The kinematic state is six parameters: three Z-Y-X Euler angles (radians)
followed by three camera-frame translations (millimeters). Each frame is
fitted by a damped Levenberg-Marquardt loop on its reprojection residuals.
:func:`track_sequence` fits a run's frames in two lock-step passes, the
second starting each frame from the first's pose of the frame before, then
smooths the whole run with an iterated Rauch-Tung-Striebel smoother under a
white-jerk prior on each parameter, so the poses it reports use every frame's
information, not only their own. Every solver runs one Levenberg-Marquardt
loop, :func:`_levenberg_marquardt`, over a stack of independent problems
with one damping each (the smoother is a stack of one). Every pose is
projected by :func:`_project`, which also refuses it, past the gimbal guard
or with an observed feature behind the camera; a refused trial costs inf.
The closed-form Jacobian, by the scalar triple product, is built from a
projection by :func:`_jacobian_from`.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
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
    A single pose, alone or in a stack of one, takes its sines and cosines on
    floats, which costs far less than array functions on three numbers."""
    if angles.size == 3:
        t = angles.ravel().tolist()
        (c1, c2, c3), (s1, s2, s3) = map(math.cos, t), map(math.sin, t)
    else:
        c, s = np.cos(angles), np.sin(angles)
        c1, c2, c3, s1, s2, s3 = c[..., 0], c[..., 1], c[..., 2], s[..., 0], s[..., 1], s[..., 2]
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

    ``rms_residual_px`` (per feature), ``covariance_diag`` (diag((J^T J)^+),
    the pseudo-inverse with :func:`numpy.linalg.pinv`'s cutoff: a covariance
    proxy per px^2 of noise variance) and ``degenerate`` (J has
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


def _project(
    th: np.ndarray, points: np.ndarray, uv: np.ndarray, mask: np.ndarray, intrinsics: camera.CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The one projection of every solver: poses th (..., 6) against matched
    target points (..., m, 3) observed at uv (..., m, 2), with the residual
    mask (..., 2m) of :func:`_stack_observations`, leading axes broadcasting.

    Returns the masked residuals (..., 2m), predicted minus observed pixels
    (u then v per feature); whether each pose is refused (...), past the
    gimbal guard or with an observed feature at or behind ``MIN_DEPTH_MM``;
    and the state that :func:`_jacobian_from` takes: R, q = R p, 1/z and K n
    for the normalized coordinates n. A refused pose's residuals are still
    returned, and may be inf or NaN; a masked point never refuses a pose.
    """
    R = _rotation(th[..., :3])
    q = points @ R.swapaxes(-1, -2)
    pc = q + th[..., None, 3:]
    z = pc[..., 2]
    refused = np.abs(th[..., 1]) >= math.pi / 2 - GIMBAL_MARGIN
    refused |= np.any((z <= camera.MIN_DEPTH_MM) & mask[..., ::2], axis=-1)
    # A point behind the camera may divide by zero; its pose is refused, or
    # the point is masked.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Kn = (pc[..., :2] / z[..., None]) @ np.array([[intrinsics.fx, 0.0], [intrinsics.skew, intrinsics.fy]])
        r = Kn + (np.array([intrinsics.x0, intrinsics.y0]) - uv)
        r = r.reshape(r.shape[:-2] + (-1,))
        r *= mask
        inv_z = 1.0 / z
    return r, refused, (R, q, inv_z, Kn)


def _jacobian_from(
    th: np.ndarray, state: tuple[np.ndarray, ...], mask: np.ndarray, intrinsics: camera.CameraIntrinsics
) -> np.ndarray:
    """Closed-form Jacobian (..., 2m, 6) of the residuals at poses th (..., 6)
    from their :func:`_project` state, masked by the residual mask (..., 2m);
    the observations do not enter it.

    Per point, d(uv)/d(pc) is P = [K | -K n] / z. The translation enters pc
    with the identity, so its columns are P. For Z-Y-X Euler angles
    d(R p)/d theta_k = w_k x q, with w_1 = e_z, w_2 = Rz e_y and w_3 = Rz Ry
    e_x, the first column of R; by the scalar triple product each row p of P
    gives p . (w_k x q) = w_k . (q x p), so the rotation columns are the
    components of q x p along the w_k. Each component of q x p is added to
    them in turn, so that the temporaries beside J are a few (..., m, 2).
    """
    R, q, inv_z, Kn = state
    # P goes in the translation columns, then the rotation columns are built from it.
    J = np.zeros(Kn.shape + (6,))
    J[..., 0, 3], J[..., 0, 4], J[..., 1, 4] = intrinsics.fx, intrinsics.skew, intrinsics.fy
    J[..., 5] = -Kn
    J[..., 3:] *= inv_z[..., None, None]
    px, py, pz = J[..., 3], J[..., 4], J[..., 5]
    qx, qy, qz = q[..., 0, None], q[..., 1, None], q[..., 2, None]
    sin1, cos1 = np.sin(th[..., 0, None, None]), np.cos(th[..., 0, None, None])
    w3 = R[..., 0]  # the first column of R
    c = qy * pz - qz * py
    J[..., 1], J[..., 2] = -sin1 * c, c * w3[..., 0, None, None]
    c = qz * px - qx * pz
    J[..., 1] += cos1 * c
    J[..., 2] += c * w3[..., 1, None, None]
    c = qx * py - qy * px
    J[..., 0] = c
    J[..., 2] += c * w3[..., 2, None, None]
    J = J.reshape(J.shape[:-3] + (-1, 6))
    J *= mask[..., None]
    return J


def _levenberg_marquardt(
    x: np.ndarray, trial: Callable, linearize: Callable, solve: Callable, max_iterations: int
) -> tuple[np.ndarray, tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The Levenberg-Marquardt loop of every pose solver, run in lock-step
    over a stack of independent problems ``x`` (P, ...), each with its own
    damping.

    ``trial(x, rows)`` returns the costs (n,) of problems ``rows`` (n,) at
    ``x`` (n, ...), inf where it refuses one, and what the solver keeps of
    that projection: a tuple of arrays with one leading row per problem.
    ``linearize(cost, kept, rows)`` returns the normal equations' matrices
    and gradients of those problems, and a mask (n,) of the problems whose
    own stopping rule fired there. ``solve(x, A, g, lam)`` returns the steps
    for the damped matrices A + lam I, with NaN for a singular one, or raises
    ``LinAlgError`` for all of them.

    Damping adds lambda I to a problem's matrix. It starts at 1e-3, falls
    tenfold on an accepted step and rises tenfold on a refused one, which is
    retried from the same linearization. A step is refused if it does not
    lower the cost, as a refused trial's inf cannot, or meets a singular
    system; a refusal raises only its own problem's damping. A problem has
    converged when an accepted step lowers its cost by at most 1e-6 of its
    value; it stops unconverged after ``max_iterations`` or once its damping
    reaches 1e12. Each round linearizes the problems that have just accepted
    a step and tries one step of every problem still running, so a problem
    takes the steps it would take alone. A problem whose start is refused is
    not iterated. Returns the final ``x``, their trials' kept state, and per
    problem the number of iterations, whether it converged and its final
    cost (inf where the start was refused).
    """
    P = len(x)
    x = x.copy()
    cost, kept = trial(x, np.arange(P))
    lam = np.full(P, _INIT_LAMBDA)
    iterations = np.zeros(P, dtype=int)
    converged = np.zeros(P, dtype=bool)
    # Problems at a pose not yet linearized, and problems with a
    # linearization to step from.
    fresh, stepping = np.isfinite(cost), np.zeros(P, dtype=bool)
    A = g = None
    while True:
        fresh &= iterations < max_iterations
        if fresh.any():
            rows = np.flatnonzero(fresh)
            A_new, g_new, converged[rows] = linearize(cost[rows], _take(kept, rows, P), rows)
            if len(rows) == P:
                A, g = A_new, g_new
            else:
                if A is None:
                    A, g = np.empty((P,) + A_new.shape[1:]), np.empty((P,) + g_new.shape[1:])
                A[rows], g[rows] = A_new, g_new
            fresh[rows] = ~converged[rows]
            iterations += fresh
            stepping |= fresh
            fresh[:] = False
        if not stepping.any():
            return x, kept, iterations, converged, cost
        rows = np.flatnonzero(stepping)
        x_rows = _take(x, rows, P)
        try:
            cand = x_rows + solve(x_rows, _take(A, rows, P), _take(g, rows, P), lam[rows])
        except np.linalg.LinAlgError:
            cand = np.full(x_rows.shape, np.nan)
        finite = np.isfinite(cand.reshape(len(rows), -1)).all(axis=1)
        cost_new = np.full(len(rows), np.inf)
        if finite.any():
            cost_new[finite], kept_new = trial(cand[finite], rows[finite])
        better = cost_new < cost[rows]
        lam[rows] = np.where(better, lam[rows] / _LAMBDA_FACTOR, lam[rows] * _LAMBDA_FACTOR)
        stepping[rows] = ~better & (lam[rows] < 1e12)
        if better.any():
            # The accepted steps, and the rows of the trial's kept state that took them.
            acc, at = rows[better], better[finite]
            converged[acc] = cost[acc] - cost_new[better] <= _COST_TOL * cost[acc]
            x[acc], cost[acc] = cand[better], cost_new[better]
            if len(acc) == P:
                kept = kept_new
            else:
                for k, k_new in zip(kept, kept_new):
                    k[acc] = k_new[at]
            fresh[acc] = ~converged[acc]


def _take(a: np.ndarray | tuple, rows: np.ndarray, n: int):
    """Rows ``rows`` of the array ``a``, or of each array of the tuple ``a``,
    of ``n`` rows; all of them without a copy."""
    if len(rows) == n:
        return a
    return tuple(k[rows] for k in a) if isinstance(a, tuple) else a[rows]


def _fit(
    th: np.ndarray, points: np.ndarray, obs_uv: np.ndarray, mask: np.ndarray,
    intrinsics: camera.CameraIntrinsics, max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`fit_pose`'s fits, in lock-step, of F frames from poses ``th``
    (F, 6): target points (F, m, 3) observed at ``obs_uv`` (F, m, 2), with
    the residual mask (F, 2m) of :func:`_stack_observations`. Returns the
    final poses, the numbers of iterations, whether a stopping rule fired and
    whether each fit could start: a start that :func:`_project` refuses is
    not fitted."""
    floor = np.sum(mask, axis=1) / 2 * _NOISE_FREE_PX**2

    def trial(th: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, tuple]:
        n = len(points)
        pts, uv, msk = _take(points, rows, n), _take(obs_uv, rows, n), _take(mask, rows, n)
        r, refused, state = _project(th, pts, uv, msk, intrinsics)
        cost = np.einsum("fi,fi->f", r, r)
        cost[refused | ~np.isfinite(cost)] = np.inf
        return cost, (th, r, *state)

    def linearize(cost: np.ndarray, kept: tuple, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        th, r, *state = kept
        J = _jacobian_from(th, tuple(state), _take(mask, rows, len(mask)), intrinsics)
        JtJ, g = J.swapaxes(1, 2) @ J, np.einsum("fmi,fm->fi", J, r)
        # A zero column has a zero gradient, which meets the rule.
        scaled = _GRADIENT_TOL * np.sqrt(cost)[:, None] * np.sqrt(np.diagonal(JtJ, axis1=1, axis2=2))
        return JtJ, g, (cost <= floor[rows]) | np.all(np.abs(g) <= scaled, axis=1)

    th, _, iterations, converged, cost = _levenberg_marquardt(th, trial, linearize, _damped_solve, max_iterations)
    return th, iterations, converged, np.isfinite(cost)


def _damped_solve(x: np.ndarray, A: np.ndarray, g: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Steps (n, 6) that solve (A + lam I) step = -g for each of n problems;
    a singular system's step is NaN."""
    A = A + lam[:, None, None] * _EYE6
    try:
        return np.linalg.solve(A, -g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.full(g.shape, np.nan)
        for k in range(len(g)):
            try:
                step[k] = np.linalg.solve(A[k], -g[k])
            except np.linalg.LinAlgError:
                pass
        return step


def _evaluate(r: np.ndarray, J: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RMS residual per feature (F,), the covariance proxy diag((J^T J)^+)
    (F, 6) and the rank-deficiency flag (F,) of one linearization: masked
    residuals ``r`` (F, 2m) and Jacobians ``J`` (F, 2m, 6) of the frames of
    residual mask ``mask`` (F, 2m), as :func:`_linearize` returns them.

    Both come from one SVD J = U S V^T: (J^T J)^+ = V S^-2 V^T over the
    squared singular values above :func:`numpy.linalg.pinv`'s default cutoff,
    1e-15 times the largest."""
    rms = np.sqrt(np.sum(r**2, axis=1) / (np.sum(mask, axis=1) / 2))
    _, sv, Vt = np.linalg.svd(J, full_matrices=False)
    s2 = sv**2
    inv = np.divide(1.0, s2, out=np.zeros_like(s2), where=s2 > 1e-15 * s2[:, :1])
    cov = np.einsum("fji,fj->fi", Vt**2, inv)
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
    has rank < 6, and carries diag((J^T J)^+) as a covariance proxy. Raises
    :class:`BehindCameraError` when an observed feature is at or behind the
    camera at ``init``.
    """
    if len(obs) < MIN_OBSERVATIONS:
        raise InsufficientCorrespondenceError(
            f"{len(obs)} observation(s); pose fitting needs at least {MIN_OBSERVATIONS}"
        )
    stack = _stack_observations(model, [obs])
    th, iterations, converged, started = _fit(init.as_array()[None], *stack, intrinsics, max_iterations)
    if not started[0]:
        raise camera.BehindCameraError("an observed feature is behind the camera at the start pose")
    rms, cov, degenerate = _evaluate(*_linearize(th, stack, intrinsics), stack[2])
    if degenerate[0]:
        logger.warning("pose Jacobian is rank deficient at theta %s", th[0])
    return FitReport(
        KinematicParams.from_array(th[0]), float(rms[0]), int(iterations[0]), bool(converged[0]), cov[0],
        bool(degenerate[0]),
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


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module, ``scipy.linalg._flapack``, whose
    ``dpbtrf``, ``dpbtrs`` and ``dpbsv`` are the very functions that
    ``scipy.linalg.lapack`` exports.

    Importing ``scipy.linalg`` imports the whole subpackage, which takes a
    ``track`` process tens of times longer, and far more memory, than
    loading the extension from its file. An extension that scipy has
    already imported is reused. One loaded here is kept out of
    ``sys.modules``, so that a later ``import scipy.linalg`` runs as it
    would have, and its own load of the extension returns these same
    functions. Where the file cannot be found or loaded (another scipy
    layout, a platform that needs scipy's own set-up to find its
    libraries), ``scipy.linalg.lapack`` is imported instead.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None or not scipy.submodule_search_locations:
            raise ImportError("scipy is not installed as a package")
        directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
        paths = [os.path.join(directory, "_flapack" + s) for s in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"no _flapack extension in {directory}")
        spec = importlib.util.spec_from_file_location(name, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.modules.pop(name, None)
        return module
    except (ImportError, OSError):
        from scipy.linalg import lapack
        return lapack


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


def _jerk_nll(t: np.ndarray, y: np.ndarray, var: np.ndarray, T: int) -> np.ndarray:
    """Negative log diffuse likelihood, up to a constant, of each density of
    the grid for one parameter's series.

    ``y`` are measurements at frames ``t`` (of T) with variances ``var``, in
    units of the measurement noise. The diffuse likelihood is that of the
    Kalman innovations when the first state has a flat prior: the least
    misfit plus the log-determinant of the normal equations, here from one
    banded Cholesky factorization and its solve per density, straight from
    LAPACK. The misfit is evaluated at the solution: an error there raises it
    only at second order. The shortcut y^T R^-1 y - |L^-1 b|^2 cancels badly
    where a small density makes the system ill-conditioned, and on a short
    run it can fall far below the misfit and win the grid. ``dpbtrf`` and
    ``dpbtrs`` come from :func:`_lapack`.
    """
    lapack = _lapack()
    F, G = _jerk_matrices(np.ones(1))
    prior = _jerk_banded(T, F, G)
    at, weight = 3 * t, 1.0 / var
    rhs = np.zeros(3 * T)
    rhs[at] = y * weight
    nll = np.empty(len(_JERK_DENSITIES))
    for k, density in enumerate(_JERK_DENSITIES):
        ab = prior / density
        ab[0, at] += weight
        chol, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info:
            raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
        z = lapack.dpbtrs(chol, rhs, lower=1)[0]
        e = y - z[at]
        w = z[3:].reshape(-1, 3) - z[:-3].reshape(-1, 3) @ F.T
        misfit = e @ (e * weight) + np.vdot(w @ G, w) / density
        nll[k] = misfit + 2.0 * np.sum(np.log(chol[0])) + 3 * (T - 1) * np.log(density)
    return nll


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
    ``stack`` at poses ``theta`` (F, 6), from one :func:`_project`, whose
    refusal they do not check."""
    r, _, state = _project(theta, *stack, intrinsics)
    return r, _jacobian_from(theta, state, stack[2], intrinsics)


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
    objective, with each fitted frame's information damped. Each trial
    projects the run once, and costs inf where :func:`_project` refuses any
    frame's pose; only its poses are kept, and each pass projects the
    accepted ones again to linearize there. Returns the smoothed poses, their
    masked residuals and Jacobians (as :func:`_linearize` gives them), the
    number of passes and whether the passes settled.
    """
    T = int(t[-1]) + 1
    var = cov[informative]
    scale = np.sqrt(np.median(var, axis=0))
    mean = theta.mean(axis=0)
    xi = (theta - mean) / scale
    noise = math.sqrt(sigma2)
    # Each parameter's maximum-likelihood density on the grid.
    nll = [_jerk_nll(t[informative], xi[informative, k] / noise, var[:, k] / scale[k] ** 2, T) for k in range(6)]
    density = _JERK_DENSITIES[np.argmin(nll, axis=1)]
    F, G = _jerk_matrices(1.0 / density)

    def trial(z: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, tuple]:
        # Half the squared residuals plus half w^T G w over the jerk
        # increments w, with the poses it took; inf where any frame's pose is
        # refused. The run is a stack of one problem.
        z = z[0]
        th = mean + scale * z[t, ::3]
        r, refused, _ = _project(th, *stack, intrinsics)
        if refused.any():
            return np.full(1, np.inf), (th[None],)
        w = z[1:] - z[:-1] @ F.T
        return np.array([0.5 * float(np.sum(r**2) + np.einsum("ti,ij,tj->", w, G, w))]), (th[None],)

    def linearize(cost: np.ndarray, kept: tuple, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The steps need only J^T J and J^T r; on a long run r and J are
        # large, and they are dropped on return.
        r, J = _linearize(kept[0][0], stack, intrinsics)
        A, g = np.swapaxes(J, 1, 2) @ J * scale[:, None] * scale, np.einsum("fmi,fm->fi", J, r) * scale
        return A[None], g[None], np.zeros(1, dtype=bool)

    def solve(z: np.ndarray, A: np.ndarray, g: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return _gauss_newton_step(z[0], t, F, G, A[0], lam[0], g[0])[None]

    # State per frame: each parameter's scaled position, velocity and
    # acceleration. Each pass solves for the increment, so rounding scales
    # with the step.
    z = np.zeros((T, 18))
    z[t, ::3] = xi
    _, (th,), passes, settled, _ = _levenberg_marquardt(z[None], trial, linearize, solve, _SMOOTHER_MAX_PASSES)
    th, passes, settled = th[0], int(passes[0]), bool(settled[0])
    return (th, *_linearize(th, stack, intrinsics), passes, settled)


def _gauss_newton_step(
    z: np.ndarray, t: np.ndarray, F: np.ndarray, G: np.ndarray, info: np.ndarray, lam: float, grad: np.ndarray
) -> np.ndarray:
    """Gauss-Newton increment (T, 18) of the smoother's states ``z``.

    Each frame at ``t`` contributes its residuals linearized at the current
    pose, i.e. the Gauss-Newton step from there, with information ``info``
    (F, 6, 6), damped by ``lam`` on its diagonal, and data gradient ``grad``
    (F, 6) on its positions. The band is solved by LAPACK's ``dpbsv``, the
    routine behind :func:`scipy.linalg.solveh_banded`, taken from
    :func:`_lapack`, without its copy for the finiteness check. The prior's
    band is tiled afresh for each step: a band kept for the whole run and
    copied per step holds two bands at once, and copying costs as much as
    tiling.
    """
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
    _, step, failed = _lapack().dpbsv(ab, rhs.ravel(), lower=1, overwrite_ab=1, overwrite_b=1)
    if failed:
        raise np.linalg.LinAlgError(f"{failed}th leading minor not positive definite")
    return step.reshape(T, 18)


# Frames per block of track_sequence's lock-step passes, which bounds their
# memory whatever the run's length.
_FIT_BLOCK = 1024


def _fit_blocks(
    starts: np.ndarray, run: np.ndarray, stack: tuple[np.ndarray, np.ndarray, np.ndarray],
    intrinsics: camera.CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_fit` of the frames ``run`` (n,) of ``stack`` from poses
    ``starts`` (n, 6), ``_FIT_BLOCK`` frames at a time."""
    out = (np.empty((len(run), 6)), np.empty(len(run), dtype=int), np.empty(len(run), dtype=bool),
           np.empty(len(run), dtype=bool))
    for a in range(0, len(run), _FIT_BLOCK):
        block = slice(a, a + _FIT_BLOCK)
        fits = _fit(starts[block], *(x[run[block]] for x in stack), intrinsics, 100)
        for o, fit in zip(out, fits):
            o[block] = fit
    return out


def track_sequence(
    frames: Sequence[Sequence[FeatureObservation]] | FeatureColumns,
    model: "GeometricTargetModel",
    intrinsics: camera.CameraIntrinsics,
    rate_hz: float = 30.0,
) -> PoseTrack:
    """Fit every frame of a sequence, then smooth the poses over the run.

    The per-frame fits are made in two lock-step passes. Pass 1 fits every
    frame from the first fittable frame's closed-form pose. Pass 2 fits that
    frame from the same pose again, and each later frame from the pass-1
    pose of the last earlier frame whose pass-1 start was accepted; its fits
    are the ones kept. Frames with fewer than 4 matched observations (or where
    initialization fails, or whose pass-2 start is refused) get status
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
      taken at the smoothed pose, from a projection of it, and
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
    linearization made there (of the smoother's last accepted poses, or the
    per-frame fits' one evaluation, which also gives the variances that pick
    the jerk densities), and the rank-deficient frames among them are named
    in one warning.
    """
    cols = _columns(frames)
    points, uv, mask = stack = _stack_observations(model, cols)
    sizes = np.bincount(cols.frame, minlength=cols.n_frames)
    fitted: list[int] = []
    failed: list[int] = []
    fittable = np.flatnonzero(sizes >= MIN_OBSERVATIONS).tolist()
    # The passes start at the first frame whose closed-form pose can start
    # its fit; the frames before it are gaps.
    while fittable:
        i = fittable[0]
        try:
            start = initialize_first_frame(model, cols.observations(i), intrinsics).as_array()
            if not _project(start, points[i], uv[i], mask[i], intrinsics)[1]:
                break
            logger.debug("frame %d: its start is refused; marking gap", i)
        except (GimbalLockError, camera.DegenerateGeometryError, camera.BehindCameraError) as e:
            logger.debug("frame %d: %s; marking gap", i, e)
        failed.append(fittable.pop(0))
    if fittable:
        run = np.array(fittable)
        # The two passes of the docstring. The first frame's start was accepted
        # above, so every later frame has a predecessor fitted in pass 1.
        first, _, _, ok = _fit_blocks(np.broadcast_to(start, (len(run), 6)), run, stack, intrinsics)
        last = np.maximum.accumulate(np.where(ok, np.arange(len(run)), 0))
        starts = np.vstack([start, first[last[:-1]]])
        theta, iterations, converged, ok = _fit_blocks(starts, run, stack, intrinsics)
        theta, iterations, converged = theta[ok], iterations[ok], converged[ok]
        fitted = run[ok].tolist()
        failed += run[~ok].tolist()
    failed.sort()
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
        except np.linalg.LinAlgError as e:
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
            th, float(rms[f]), int(iterations[f]), bool(converged[f]), cov[f], bool(degenerate[f])
        )
    return PoseTrack(rate_hz=rate_hz, reports=reports)
