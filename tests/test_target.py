"""Target model validation and virtual-point tests."""

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    AmbiguousTargetError,
    GeometricTargetModel,
    KinematicParams,
    default_target,
    motion_matrix,
    validate_asymmetry,
    virtual_point,
)


def _grid_points(missing=None):
    pts = []
    for j in range(4):
        for i in range(4):
            if missing is not None and (i, j) == missing:
                continue
            pts.append([i * 20.0, j * 20.0, 0.0])
    return np.array(pts)


# ---------------------------------------------------------------------------
# model construction


def test_model_needs_at_least_four_points():
    with pytest.raises(ValueError):
        GeometricTargetModel("tiny", np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))


def test_model_rejects_collinear_points():
    pts = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
    with pytest.raises(ValueError):
        GeometricTargetModel("line", pts)


def test_model_rejects_nonfinite():
    pts = _grid_points()
    pts[3, 1] = np.nan
    with pytest.raises(ValueError):
        GeometricTargetModel("bad", pts)


def test_model_rejects_coincident_features():
    # The full grid with one feature listed twice: a symmetric target that
    # the symmetry check cannot see through the repeated feature.
    pts = _grid_points()
    with pytest.raises(ValueError, match="features 5 and 16 coincide"):
        GeometricTargetModel("grid17", np.vstack([pts, pts[5]]))


def test_default_models_load_and_validate():
    for name in ("lumbar", "shoulder"):
        model = default_target(name)
        validate_asymmetry(model)  # should not raise
        assert model.points.shape[1] == 3
        assert len(model.points) == 15


def test_default_lumbar_has_virtual_offset():
    model = default_target("lumbar")
    npt.assert_allclose(model.virtual_offset, [0.0, 0.0, 100.0])
    assert default_target("shoulder").virtual_offset is None


def test_unknown_target_name():
    with pytest.raises(KeyError):
        default_target("ankle")


# ---------------------------------------------------------------------------
# asymmetry validation


def test_square_pattern_is_ambiguous():
    square = np.array([[0.0, 0, 0], [40, 0, 0], [40, 40, 0], [0, 40, 0]])
    with pytest.raises(AmbiguousTargetError):
        validate_asymmetry(GeometricTargetModel("square", square))


def test_full_grid_is_ambiguous():
    with pytest.raises(AmbiguousTargetError):
        validate_asymmetry(GeometricTargetModel("grid", _grid_points()))


def test_corner_removed_grid_is_still_ambiguous():
    # A missing corner maps onto itself under a diagonal half-turn, so it
    # does not break the grid's symmetry; the validator must reject it.
    with pytest.raises(AmbiguousTargetError):
        validate_asymmetry(GeometricTargetModel("grid15c", _grid_points(missing=(0, 0))))


def test_edge_removed_grid_is_unambiguous():
    validate_asymmetry(GeometricTargetModel("grid15e", _grid_points(missing=(0, 1))))


def test_displaced_corner_breaks_symmetry():
    square = np.array([[0.0, 0, 0], [40, 0, 0], [40, 40, 0], [0, 40, 0], [20.0, 20, 0]])
    square[2] += [5.0, 0.0, 0.0]
    validate_asymmetry(GeometricTargetModel("square5", square))


_TILT = motion_matrix(KinematicParams(0.3, -0.2, 0.45, 0, 0, 0))[:3, :3]


def test_tilted_square_with_centre_is_ambiguous():
    # Four-fold about an axis off every sampled direction: a check that
    # tries a grid of rotations would need that axis among its samples.
    square = np.array([[0.0, 0, 0], [40, 0, 0], [40, 40, 0], [0, 40, 0], [20, 20, 0]])
    with pytest.raises(AmbiguousTargetError, match="degree rotation about the axis"):
        validate_asymmetry(GeometricTargetModel("square5t", square @ _TILT.T))


def test_heptagon_off_the_sampled_angles_is_ambiguous():
    # Seven-fold and turned 0.25 degrees: no symmetry lies on a 1-degree grid.
    phi = np.arange(7) * 2 * np.pi / 7 + np.radians(0.25)
    hept = np.column_stack([30.0 * np.cos(phi), 30.0 * np.sin(phi), np.zeros(7)])
    with pytest.raises(AmbiguousTargetError):
        validate_asymmetry(GeometricTargetModel("heptagon", hept))


def test_asymmetric_targets_pass_in_any_orientation():
    # The tilted copy guards the identity: rebuilt from rounded frames, it
    # must not be mistaken for a small symmetry.
    for name in ("lumbar", "shoulder"):
        validate_asymmetry(default_target(name))
    tilted = _grid_points(missing=(0, 1)) @ _TILT.T
    validate_asymmetry(GeometricTargetModel("grid15e-tilted", tilted))


# ---------------------------------------------------------------------------
# virtual point


def test_virtual_point_at_rest():
    p = virtual_point(KinematicParams(0, 0, 0, 0, 0, 0), np.array([0.0, 0.0, 100.0]))
    npt.assert_allclose(p, [0.0, 0.0, 100.0], atol=1e-15)


def test_virtual_point_pure_translation():
    p = virtual_point(KinematicParams(0, 0, 0, 5.0, -3.0, 7.0), np.array([0.0, 0.0, 100.0]))
    npt.assert_allclose(p, [5.0, -3.0, 107.0], atol=1e-12)


def test_virtual_point_quarter_turn():
    # yaw by pi/2 carries the board x axis onto camera y
    p = virtual_point(KinematicParams(np.pi / 2, 0, 0, 0, 0, 0), np.array([100.0, 0.0, 0.0]))
    npt.assert_allclose(p, [0.0, 100.0, 0.0], atol=1e-12)


def test_virtual_point_zero_offset_is_translation():
    rng = np.random.default_rng(31)
    for _ in range(25):
        theta = KinematicParams(*rng.uniform(-0.5, 0.5, 3), *rng.uniform(-50, 50, 3))
        p = virtual_point(theta, np.zeros(3))
        npt.assert_array_equal(p, [theta.theta4, theta.theta5, theta.theta6])


def test_virtual_point_matches_motion_matrix():
    rng = np.random.default_rng(32)
    for _ in range(25):
        theta = KinematicParams(*rng.uniform(-0.5, 0.5, 3), *rng.uniform(-50, 50, 3))
        delta = rng.uniform(-120, 120, 3)
        expect = (motion_matrix(theta) @ np.append(delta, 1.0))[:3]
        npt.assert_allclose(virtual_point(theta, delta), expect, atol=1e-12)


# ---------------------------------------------------------------------------
# rigidity


def test_transformed_model_preserves_pairwise_distances():
    model = default_target("lumbar")
    rng = np.random.default_rng(33)
    d0 = np.linalg.norm(model.points[:, None, :] - model.points[None, :, :], axis=2)
    for _ in range(10):
        theta = KinematicParams(*rng.uniform(-0.6, 0.6, 3), *rng.uniform(-100, 100, 3))
        M = motion_matrix(theta)
        moved = model.points @ M[:3, :3].T + M[:3, 3]
        d1 = np.linalg.norm(moved[:, None, :] - moved[None, :, :], axis=2)
        npt.assert_allclose(d1, d0, atol=1e-9)
