"""Posturography metric and agreement statistic tests."""

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    StanceBins,
    SwayTrajectory,
    bland_altman,
    cohens_d,
    cousineau_morey,
    cousineau_morey_sem,
    total_path_length,
)


def _traj(ap=None, ml=None, si=None, rate=30.0, valid=None, t0=0.0, label="seg"):
    cols = [ap, ml, si]
    n = next(len(c) for c in cols if c is not None)
    s = np.column_stack([np.zeros(n) if c is None else np.asarray(c, float) for c in cols])
    if valid is None:
        valid = np.ones(n, bool)
    return SwayTrajectory(sample_rate_hz=rate, label=label, samples=s, valid=np.asarray(valid, bool), t0=t0)


# ---------------------------------------------------------------------------
# total path length


def test_tpl_stationary_is_zero():
    traj = _traj(ap=np.full(100, 2.5))
    assert total_path_length(traj, "AP", (0.0, 10.0)) == 0.0


def test_tpl_single_step_345():
    traj = _traj(ap=[0.0, 3.0], ml=[0.0, 4.0], rate=1.0)
    assert total_path_length(traj, "APML", (0.0, 2.0)) == pytest.approx(5.0, abs=1e-15)
    assert total_path_length(traj, "AP", (0.0, 2.0)) == pytest.approx(3.0)
    assert total_path_length(traj, "ML", (0.0, 2.0)) == pytest.approx(4.0)


def test_tpl_random_walk_matches_brute_force():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        ap = np.cumsum(rng.normal(0, 1, n))
        ml = np.cumsum(rng.normal(0, 1, n))
        traj = _traj(ap=ap, ml=ml, rate=30.0)
        brute = 0.0
        for i in range(n - 1):
            brute += np.hypot(ap[i + 1] - ap[i], ml[i + 1] - ml[i])
        got = total_path_length(traj, "APML", (0.0, n / 30.0))
        assert abs(got - brute) < 1e-12 * max(1.0, brute)


def test_tpl_skips_steps_across_gaps():
    ap = np.array([0.0, 1.0, 10.0, 11.0])
    valid = np.array([True, True, False, True])
    traj = _traj(ap=ap, rate=1.0, valid=valid)
    # only the 0->1 step survives; steps touching the invalid sample drop out
    assert total_path_length(traj, "AP", (0.0, 4.0)) == pytest.approx(1.0)


def test_tpl_respects_interval_membership():
    ap = np.arange(8, dtype=float)
    traj = _traj(ap=ap, rate=1.0)
    # steps at left times 2, 3 belong to [2, 4)
    assert total_path_length(traj, "AP", (2.0, 4.0)) == pytest.approx(2.0)


def test_tpl_additive_across_bins():
    rng = np.random.default_rng(52)
    ap = np.cumsum(rng.normal(0, 1, 1800))
    ml = np.cumsum(rng.normal(0, 1, 1800))
    traj = _traj(ap=ap, ml=ml, rate=30.0)
    total = total_path_length(traj, "APML", (0.0, 60.0))
    parts = sum(total_path_length(traj, "APML", iv) for iv in [(0.0, 20.0), (20.0, 40.0), (40.0, 60.0)])
    assert abs(total - parts) < 1e-9


def test_tpl_monotone_in_duration():
    rng = np.random.default_rng(53)
    ap = np.cumsum(rng.normal(0, 1, 300))
    traj = _traj(ap=ap, rate=30.0)
    values = [total_path_length(traj, "AP", (0.0, T)) for T in (2.0, 4.0, 6.0, 8.0, 10.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_tpl_planar_rotation_invariant():
    rng = np.random.default_rng(54)
    ap = np.cumsum(rng.normal(0, 1, 400))
    ml = np.cumsum(rng.normal(0, 1, 400))
    base = total_path_length(_traj(ap=ap, ml=ml), "APML", (0.0, 30.0))
    for phi in rng.uniform(0, 2 * np.pi, 10):
        c, s = np.cos(phi), np.sin(phi)
        got = total_path_length(_traj(ap=c * ap - s * ml, ml=s * ap + c * ml), "APML", (0.0, 30.0))
        assert abs(got - base) < 1e-9


def test_tpl_triangle_inequality():
    rng = np.random.default_rng(55)
    ap = np.cumsum(rng.normal(0, 1, 200))
    ml = np.cumsum(rng.normal(0, 1, 200))
    traj = _traj(ap=ap, ml=ml)
    iv = (0.0, 10.0)
    planar = total_path_length(traj, "APML", iv)
    assert planar <= total_path_length(traj, "AP", iv) + total_path_length(traj, "ML", iv) + 1e-12
    flat = _traj(ap=ap, ml=np.full_like(ml, 1.3))
    npt.assert_allclose(
        total_path_length(flat, "APML", iv), total_path_length(flat, "AP", iv), rtol=1e-12
    )


def test_tpl_too_few_valid_samples():
    traj = _traj(ap=np.arange(10, dtype=float), rate=1.0)
    with pytest.raises(ValueError):
        total_path_length(traj, "AP", (20.0, 30.0))


def test_tpl_unknown_direction():
    traj = _traj(ap=np.arange(10, dtype=float))
    with pytest.raises(ValueError):
        total_path_length(traj, "UP", (0.0, 1.0))


# ---------------------------------------------------------------------------
# binning


def test_stance_bins_validation():
    with pytest.raises(ValueError):
        StanceBins(edges=(0.0, 20.0, 20.0, 60.0))
    with pytest.raises(ValueError):
        StanceBins(edges=(0.0, 40.0, 20.0, 60.0))


# ---------------------------------------------------------------------------
# within-participant normalization


def test_cousineau_identical_rows_unchanged():
    x = np.tile([1.0, 2.0, 3.0], (6, 1))
    npt.assert_allclose(cousineau_morey(x), x, atol=1e-12)


def test_cousineau_removes_row_offsets():
    rng = np.random.default_rng(61)
    base = np.tile([10.0, 12.0, 15.0], (14, 1))
    offsets = rng.normal(0, 5, 14)
    x = base + offsets[:, None]
    out = cousineau_morey(x)
    npt.assert_allclose(out, base - base.mean() + x.mean(), atol=1e-9)
    assert np.var(out.mean(axis=1)) < 1e-18


def test_cousineau_preserves_condition_means():
    rng = np.random.default_rng(62)
    for _ in range(20):
        x = rng.normal(0, 3, (14, 2)) + rng.normal(0, 10, (14, 1))
        out = cousineau_morey(x)
        npt.assert_allclose(out.mean(axis=0), x.mean(axis=0), atol=1e-12)
        assert np.std(out.mean(axis=1)) < 1e-12


def test_cousineau_sem_matches_direct():
    rng = np.random.default_rng(63)
    x = rng.normal(0, 2, (14, 3))
    sem = cousineau_morey_sem(x)
    norm = cousineau_morey(x)
    factor = np.sqrt(3 / 2)
    expect = factor * norm.std(axis=0, ddof=1) / np.sqrt(14)
    npt.assert_allclose(sem, expect, atol=1e-12)


def test_cousineau_needs_two_conditions():
    with pytest.raises(ValueError):
        cousineau_morey(np.ones((10, 1)))


# ---------------------------------------------------------------------------
# Cohen's d


def _with_moments(mean, sd, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(0, 1, n)
    z = (z - z.mean()) / z.std(ddof=1)
    return mean + sd * z


def test_cohens_d_identical_groups():
    a = np.arange(10, dtype=float)
    assert cohens_d(a, a.copy()) == 0.0


def test_cohens_d_reference_value():
    # group stats: means 147.1 and 177.8, SEMs 5.9 and 11.1, n = 14 each
    sd_a, sd_b = 5.9 * np.sqrt(14), 11.1 * np.sqrt(14)
    a = _with_moments(147.1, sd_a, 14, seed=1)
    b = _with_moments(177.8, sd_b, 14, seed=2)
    d = cohens_d(a, b)
    assert abs(d - 0.92) <= 0.02


def test_cohens_d_shift_identity():
    rng = np.random.default_rng(64)
    a = rng.normal(0, 2, 20)
    b = rng.normal(1, 2, 20)
    sd_pool = np.sqrt(((len(a) - 1) * a.var(ddof=1) + (len(b) - 1) * b.var(ddof=1)) / (len(a) + len(b) - 2))
    d0 = cohens_d(a, b)
    npt.assert_allclose(cohens_d(a, b + 3.0), d0 + 3.0 / sd_pool, atol=1e-12)


def test_cohens_d_antisymmetric():
    rng = np.random.default_rng(65)
    a = rng.normal(0, 1, 15)
    b = rng.normal(0.7, 1.3, 18)
    npt.assert_allclose(cohens_d(a, b), -cohens_d(b, a), atol=1e-15)


def test_cohens_d_degenerate_inputs():
    with pytest.raises(ValueError):
        cohens_d(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        cohens_d(np.full(5, 2.0), np.full(5, 2.0))  # zero pooled variance


# ---------------------------------------------------------------------------
# Bland-Altman agreement


def test_bland_altman_perfect_agreement():
    a = np.sin(np.linspace(0, 10, 200))
    rep = bland_altman(a, a.copy())
    assert rep.bias_mm == 0.0
    assert rep.loa_mm == (0.0, 0.0)
    assert rep.slope == pytest.approx(1.0, abs=1e-12)
    assert rep.intercept == pytest.approx(0.0, abs=1e-12)
    assert rep.r2 == pytest.approx(1.0, abs=1e-12)
    assert rep.n == 200


def test_bland_altman_constant_offset():
    a = np.sin(np.linspace(0, 10, 200))
    rep = bland_altman(a, a + 0.3)
    assert rep.bias_mm == pytest.approx(0.3, abs=1e-12)
    lo, hi = rep.loa_mm
    assert hi - lo < 1e-12
    assert rep.slope == pytest.approx(1.0, abs=1e-12)


def test_bland_altman_noise_envelope():
    rng = np.random.default_rng(66)
    t = np.arange(1800) / 30.0
    a = 8.0 * np.sin(2 * np.pi * 0.3 * t)
    b = a + rng.normal(0.0, 0.265, t.size)
    rep = bland_altman(a, b)
    lo, hi = rep.loa_mm
    assert abs(rep.bias_mm) < 0.03
    assert abs(hi - 1.96 * 0.265) < 0.05
    assert abs(lo + 1.96 * 0.265) < 0.05
    assert rep.slope == pytest.approx(1.0, abs=0.01)
    assert rep.r2 > 0.99


def test_bland_altman_regression_on_affine_pair():
    rng = np.random.default_rng(67)
    a = rng.normal(0, 3, 150)
    b = 1.4 * a - 2.0
    rep = bland_altman(a, b)
    npt.assert_allclose(rep.slope, 1.4, atol=1e-12)
    npt.assert_allclose(rep.intercept, -2.0, atol=1e-12)
    npt.assert_allclose(rep.r2, 1.0, atol=1e-12)


def test_bland_altman_validation():
    with pytest.raises(ValueError):
        bland_altman(np.arange(5.0), np.arange(4.0))
    with pytest.raises(ValueError):
        bland_altman(np.arange(2.0), np.arange(2.0))  # too few pairs
    with pytest.raises(ValueError):
        bland_altman(np.full(10, 1.0), np.arange(10.0))  # zero variance reference


def test_agreement_report_orders_limits():
    with pytest.raises(ValueError):
        from swaykin import AgreementReport

        AgreementReport(bias_mm=0.0, loa_mm=(1.0, -1.0), slope=1.0, intercept=0.0, r2=1.0, n=10)
