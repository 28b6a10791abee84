"""A-priori geometric target models and body-fixed virtual points.

A target is a rigid board of checker-junction features with known 3D
coordinates in its own frame (millimeters, origin at the reference corner,
z pointing into the body when worn). Models must be rotationally asymmetric
so a single 2D view pins down the full 6-DOF pose without ambiguity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swaykin.pose import KinematicParams, motion_matrix

GRID_PITCH_MM = 20.0
DEFAULT_VIRTUAL_OFFSET_MM = np.array([0.0, 0.0, 100.0])

SET_MATCH_TOL_MM = 1e-6


class AmbiguousTargetError(ValueError):
    """Target geometry maps onto itself under a nontrivial rotation."""


@dataclass(frozen=True)
class GeometricTargetModel:
    """Named rigid feature model: ``points`` is (n, 3) target-frame mm.

    ``virtual_offset`` optionally names a body-interior point (target frame)
    tracked alongside the target origin; None disables it.
    """

    name: str
    points: np.ndarray
    virtual_offset: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        if len(pts) < 4:
            raise ValueError(f"target needs at least 4 features, got {len(pts)}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("target points must be finite")
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[1] < 1e-9:
            raise ValueError("target points are collinear")
        # The symmetry check pairs each point with a different one, which a
        # repeated feature defeats.
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() <= SET_MATCH_TOL_MM:
            i, j = np.unravel_index(np.argmin(d), d.shape)
            raise ValueError(f"target features {i} and {j} coincide")
        object.__setattr__(self, "points", pts)
        if self.virtual_offset is not None:
            off = np.asarray(self.virtual_offset, dtype=float).reshape(3)
            if not np.all(np.isfinite(off)):
                raise ValueError("virtual offset must be finite")
            object.__setattr__(self, "virtual_offset", off)

    @property
    def n_features(self) -> int:
        return len(self.points)


def _maps_onto_itself(centered: np.ndarray, R: np.ndarray) -> bool:
    rotated = centered @ R.T
    d = np.linalg.norm(rotated[:, None, :] - centered[None, :, :], axis=2)
    nearest = np.argmin(d, axis=1)
    if np.any(d[np.arange(len(centered)), nearest] > SET_MATCH_TOL_MM):
        return False
    return len(np.unique(nearest)) == len(centered)


def _frame(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frame (columns) of a non-parallel pair."""
    e3 = np.cross(u, v)
    e1, e3 = u / np.linalg.norm(u), e3 / np.linalg.norm(e3)
    return np.column_stack([e1, np.cross(e3, e1), e3])


def validate_asymmetry(model: GeometricTargetModel) -> None:
    """Check that no nontrivial rotation maps the point set onto itself.

    A rotation about the centroid is fixed by where it sends two independent
    centred points: ``a``, the farthest, and ``b``, the one with the largest
    ``|a x b|``. Each other pair whose norms and mutual distance match those
    of ``a`` and ``b`` within twice the 1e-6 mm set-match tolerance gives one
    candidate rotation, compared with the whole set. A symmetry moves norms
    by at most that tolerance and distances by at most twice it, so none is
    missed. Raises :class:`AmbiguousTargetError` naming the rotation's angle and axis.
    """
    centered = model.points - model.points.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1)
    ia = int(np.argmax(norms))
    ib = int(np.argmax(np.linalg.norm(np.cross(centered[ia], centered), axis=1)))
    tol = 2.0 * SET_MATCH_TOL_MM
    dist = np.linalg.norm(centered[:, None, :] - centered[None, :, :], axis=2)
    match = (
        (np.abs(norms - norms[ia]) <= tol)[:, None]
        & (np.abs(norms - norms[ib]) <= tol)[None, :]
        & (np.abs(dist - dist[ia, ib]) <= tol)
    )
    np.fill_diagonal(match, False)
    # Skip the identity by index, not angle: acos of a trace near 3 loses digits.
    match[ia, ib] = False
    base = _frame(centered[ia], centered[ib])
    for i, j in zip(*np.nonzero(match)):
        R = _frame(centered[i], centered[j]) @ base.T
        if _maps_onto_itself(centered, R):
            from scipy.spatial.transform import Rotation

            rvec = Rotation.from_matrix(R).as_rotvec()
            angle = float(np.linalg.norm(rvec))
            axis = rvec / angle
            raise AmbiguousTargetError(
                f"target '{model.name}' maps onto itself under a "
                f"{math.degrees(angle):.1f} degree rotation about the axis "
                f"({axis[0]:.3f}, {axis[1]:.3f}, {axis[2]:.3f}) through its centroid"
            )


def virtual_point(theta: KinematicParams, delta: np.ndarray) -> np.ndarray:
    """Camera-frame position of a target-frame offset under a fitted pose.

    Appends the homogeneous 1 to ``delta`` and returns the first three
    components of the motion matrix product.
    """
    d = np.asarray(delta, dtype=float).reshape(3)
    return (motion_matrix(theta) @ np.append(d, 1.0))[:3]


def _grid_with_hole(skip: tuple[int, int]) -> np.ndarray:
    pts = [
        (j * GRID_PITCH_MM, i * GRID_PITCH_MM, 0.0)
        for i in range(4)
        for j in range(4)
        if (i, j) != skip
    ]
    return np.array(pts)


def default_target(name: str) -> GeometricTargetModel:
    """Built-in target models.

    Both are 4x4 junction grids at 20 mm pitch with one off-diagonal edge
    feature removed (15 features); the hole breaks every grid symmetry, which
    a removed corner would not (a corner hole survives the 180-degree
    rotation about the grid diagonal through it). The lumbar target carries
    the 100 mm body-interior virtual offset.
    """
    if name == "lumbar":
        return GeometricTargetModel(
            "lumbar", _grid_with_hole((0, 1)), DEFAULT_VIRTUAL_OFFSET_MM.copy()
        )
    if name == "shoulder":
        return GeometricTargetModel("shoulder", _grid_with_hole((3, 2)), None)
    raise KeyError(f"unknown target '{name}'; built-ins are 'lumbar' and 'shoulder'")
