"""Acceptance gate: one test per release criterion.

Each test prints a PASS/FAIL line per clause with the measured value, then
asserts the lot, so a red run documents exactly which bound was missed and
by how much. The end-to-end agreement test exercises the full pipeline
(simulate, track, smooth, compare) at the published operating point.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    AnatomicalFrame,
    CameraIntrinsics,
    FeatureObservation,
    KinematicParams,
    NoiseSpec,
    RigidTransform,
    SwayProfile,
    SwayTrajectory,
    anatomical_from_board,
    bland_altman,
    calibrate,
    cohens_d,
    cousineau_morey,
    default_target,
    detect_refined,
    fit_pose,
    generate_trajectory,
    interpolate_gaps,
    motion_matrix,
    project,
    render_frame,
    render_observations,
    savitzky_golay,
    to_anatomical,
    total_path_length,
    track_sequence,
)
from swaykin.synth import DEFAULT_INTRINSICS
from swaykin.target import virtual_point


def _report(clauses):
    """(label, passed, detail) triples -> overall flag + printable block."""
    lines = [
        f"{'PASS' if passed else 'FAIL'}  {label}: {detail}"
        for label, passed, detail in clauses
    ]
    block = "\n".join(lines)
    print(block)
    return all(p for _, p, _ in clauses), block


def _anatomical_truth(theta, model):
    frame = AnatomicalFrame.from_transform(RigidTransform.identity())
    delta = model.virtual_offset if model.virtual_offset is not None else np.zeros(3)
    rows = [
        anatomical_from_board(
            to_anatomical(frame, virtual_point(KinematicParams.from_array(r), delta))
        )
        for r in theta
    ]
    return np.asarray(rows)


def _trajectory_from_track(track, model):
    frame = AnatomicalFrame.from_transform(RigidTransform.identity())
    delta = model.virtual_offset if model.virtual_offset is not None else np.zeros(3)
    samples = np.zeros((track.n_frames, 3))
    valid = np.zeros(track.n_frames, dtype=bool)
    for i, rep in enumerate(track.reports):
        if rep is None:
            continue
        p = virtual_point(rep.theta, delta)
        samples[i] = anatomical_from_board(to_anatomical(frame, p))
        valid[i] = True
    return SwayTrajectory(
        sample_rate_hz=track.rate_hz, label="lumbar", samples=samples, valid=valid
    )


# ---------------------------------------------------------------------------
# 1. end-to-end synthetic agreement at the published operating point


@pytest.fixture(scope="module")
def end_to_end_run():
    profile = SwayProfile()  # 60 s at 30 Hz, 10/6/3 mm AP/ML/SI, 1000 mm depth
    model = default_target("lumbar")
    theta = generate_trajectory(profile)
    obs = render_observations(
        theta, model, DEFAULT_INTRINSICS, NoiseSpec(sigma_px=0.2, dropout=0.01, seed=7)
    )
    start = time.perf_counter()
    track = track_sequence(obs, model, DEFAULT_INTRINSICS, rate_hz=profile.rate_hz)
    runtime = time.perf_counter() - start

    raw = _trajectory_from_track(track, model)
    smooth = savitzky_golay(interpolate_gaps(raw, max_gap_sec=0.2), 0.5, 2)
    truth = _anatomical_truth(theta, model)
    mask = smooth.valid
    report = bland_altman(truth[mask, 0], smooth.axis("AP")[mask])
    return report, runtime


def test_end_to_end_ap_agreement(end_to_end_run):
    report, runtime = end_to_end_run
    lo, hi = report.loa_mm
    ok, block = _report(
        [
            ("|bias| < 0.01 mm", abs(report.bias_mm) < 0.01, f"bias={report.bias_mm:+.4f} mm"),
            (
                "limits of agreement within [-0.52, 0.52] mm",
                lo > -0.52 and hi < 0.52,
                f"loa=({lo:+.3f}, {hi:+.3f}) mm",
            ),
            ("slope 1.00 +/- 0.01", abs(report.slope - 1.0) < 0.01, f"slope={report.slope:.4f}"),
            ("r^2 > 0.97", report.r2 > 0.97, f"r2={report.r2:.4f}"),
            ("runtime < 60 s for 1800 frames", runtime < 60.0, f"runtime={runtime:.1f} s"),
        ]
    )
    assert ok, "\n" + block


def _ap_bias(obs, theta, model, rate_hz):
    """AP bias of the chain the end-to-end test runs, and its track."""
    track = track_sequence(obs, model, DEFAULT_INTRINSICS, rate_hz=rate_hz)
    raw = _trajectory_from_track(track, model)
    smooth = savitzky_golay(interpolate_gaps(raw, max_gap_sec=0.2), 0.5, 2)
    truth = _anatomical_truth(theta, model)
    mask = smooth.valid
    return bland_altman(truth[mask, 0], smooth.axis("AP")[mask]).bias_mm, track


@pytest.fixture(scope="module")
def noise_pair_runs():
    """The end-to-end scenario at seed 7, and its mirror: the same draws and
    dropout with the pixel noise negated. Half the sum of the two biases is
    the part of the bias that is even in the noise, i.e. systematic."""
    profile = SwayProfile()
    model = default_target("lumbar")
    theta = generate_trajectory(profile)
    obs = render_observations(
        theta, model, DEFAULT_INTRINSICS, NoiseSpec(sigma_px=0.2, dropout=0.01, seed=7)
    )
    clean = render_observations(theta, model, DEFAULT_INTRINSICS, NoiseSpec())
    mirrored = [
        [
            FeatureObservation(
                2.0 * clean[f][o.model_index].position - o.position,
                o.score,
                model_index=o.model_index,
            )
            for o in frame
        ]
        for f, frame in enumerate(obs)
    ]
    plus, track = _ap_bias(obs, theta, model, profile.rate_hz)
    minus, _ = _ap_bias(mirrored, theta, model, profile.rate_hz)
    return plus, minus, track


def test_systematic_ap_bias_below_gate(noise_pair_runs):
    plus, minus, _ = noise_pair_runs
    even, odd = 0.5 * (plus + minus), 0.5 * (plus - minus)
    ok, block = _report(
        [
            (
                "|systematic bias| < 0.01 mm (even part of the +/- noise pair)",
                abs(even) < 0.01,
                f"even={even:+.4f} mm, odd={odd:+.4f} mm",
            )
        ]
    )
    assert ok, "\n" + block


def test_noisy_frames_report_converged(noise_pair_runs):
    _, _, track = noise_pair_runs
    reports = [r for r in track.reports if r is not None]
    frac = float(np.mean([r.converged for r in reports]))
    ok, block = _report(
        [("converged on >= 99% of noisy frames", frac >= 0.99, f"{frac:.2%} of {len(reports)}")]
    )
    assert ok, "\n" + block


def test_shipped_chain_ap_agreement(noise_pair_runs):
    # The chain `swaykin track` ships: the smoothed poses with short gaps
    # interpolated, and no Savitzky-Golay pass after them.
    _, _, track = noise_pair_runs
    model = default_target("lumbar")
    traj = interpolate_gaps(_trajectory_from_track(track, model), max_gap_sec=0.2)
    truth = _anatomical_truth(generate_trajectory(SwayProfile()), model)
    report = bland_altman(truth[traj.valid, 0], traj.axis("AP")[traj.valid])
    lo, hi = report.loa_mm
    ok, block = _report(
        [
            ("|bias| < 0.01 mm", abs(report.bias_mm) < 0.01, f"bias={report.bias_mm:+.4f} mm"),
            (
                "limits of agreement within [-0.52, 0.52] mm",
                lo > -0.52 and hi < 0.52,
                f"loa=({lo:+.3f}, {hi:+.3f}) mm",
            ),
            ("slope 1.00 +/- 0.01", abs(report.slope - 1.0) < 0.01, f"slope={report.slope:.4f}"),
            ("r^2 > 0.97", report.r2 > 0.97, f"r2={report.r2:.4f}"),
        ]
    )
    assert ok, "\n" + block


# ---------------------------------------------------------------------------
# 2. noiseless pose recovery


def test_noiseless_recovery_hits_numerical_floor():
    profile = SwayProfile()
    model = default_target("lumbar")
    theta = generate_trajectory(profile)
    obs = render_observations(theta, model, DEFAULT_INTRINSICS, NoiseSpec())
    track = track_sequence(obs, model, DEFAULT_INTRINSICS, rate_hz=profile.rate_hz)
    assert all(s == "fitted" for s in track.statuses)

    trans_err = np.zeros(len(theta))
    rot_err = np.zeros(len(theta))
    for i, rep in enumerate(track.reports):
        est = rep.theta.as_array()
        trans_err[i] = np.linalg.norm(est[3:] - theta[i, 3:])
        R_est = motion_matrix(rep.theta)[:3, :3]
        R_true = motion_matrix(KinematicParams.from_array(theta[i]))[:3, :3]
        cos = (np.trace(R_est @ R_true.T) - 1.0) / 2.0
        rot_err[i] = np.arccos(np.clip(cos, -1.0, 1.0))
    ok, block = _report(
        [
            (
                "translation error < 1e-3 mm on all 1800 frames",
                float(trans_err.max()) < 1e-3,
                f"max={trans_err.max():.2e} mm",
            ),
            (
                "rotation error < 1e-5 rad on all 1800 frames",
                float(rot_err.max()) < 1e-5,
                f"max={rot_err.max():.2e} rad",
            ),
        ]
    )
    assert ok, "\n" + block


# ---------------------------------------------------------------------------
# 3. calibration accuracy


CAL_TRUE = CameraIntrinsics(fx=1200, fy=1180, x0=640, y0=360, k1=-0.05, k2=0.01)
CAL_POSES = [
    (0.35, 0.2, 0.1, -80.0, -50.0, 520.0),
    (-0.3, 0.25, -0.15, -60.0, -70.0, 600.0),
    (0.2, -0.3, 0.2, -90.0, -40.0, 560.0),
    (-0.15, -0.2, -0.25, -50.0, -60.0, 640.0),
    (0.4, 0.1, 0.3, -70.0, -55.0, 580.0),
]


def _cal_views(noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    jj, ii = np.meshgrid(np.arange(8, dtype=float), np.arange(5, dtype=float))
    board = np.column_stack([25.0 * jj.ravel(), 25.0 * ii.ravel()])
    b3 = np.column_stack([board, np.zeros(len(board))])
    views = []
    for th1, th2, th3, tx, ty, tz in CAL_POSES:
        M = motion_matrix(KinematicParams(th1, th2, th3, tx, ty, tz))
        pose = RigidTransform(M[:3, :3], M[:3, 3])
        uv = project(CAL_TRUE, pose, b3, apply_distortion=True)
        views.append(uv + rng.normal(0.0, noise, uv.shape))
    return views, board


def test_calibration_from_five_views():
    views, board = _cal_views()
    got = calibrate(views, board).intrinsics
    noisy_rms = calibrate(*_cal_views(noise=0.1, seed=11)).rms_px
    ok, block = _report(
        [
            ("fx within 0.1%", abs(got.fx - CAL_TRUE.fx) / CAL_TRUE.fx < 1e-3, f"fx={got.fx:.3f}"),
            ("fy within 0.1%", abs(got.fy - CAL_TRUE.fy) / CAL_TRUE.fy < 1e-3, f"fy={got.fy:.3f}"),
            ("x0 within 0.1%", abs(got.x0 - CAL_TRUE.x0) / CAL_TRUE.x0 < 1e-3, f"x0={got.x0:.3f}"),
            ("y0 within 0.1%", abs(got.y0 - CAL_TRUE.y0) / CAL_TRUE.y0 < 1e-3, f"y0={got.y0:.3f}"),
            ("k1 within 1e-3", abs(got.k1 - CAL_TRUE.k1) < 1e-3, f"k1={got.k1:+.5f}"),
            ("k2 within 1e-3", abs(got.k2 - CAL_TRUE.k2) < 1e-3, f"k2={got.k2:+.5f}"),
            ("RMS <= 0.2 px at sigma=0.1 px", noisy_rms <= 0.2, f"rms={noisy_rms:.4f} px"),
        ]
    )
    assert ok, "\n" + block


# ---------------------------------------------------------------------------
# 4. sub-pixel detection accuracy


def test_subpixel_detection_over_seeded_positions():
    intr = CameraIntrinsics(fx=4000, fy=4000, x0=180, y0=180)
    pts = np.array(
        [[0.0, 0.0, 0.0], [40.0, 0.0, 0.0], [0.0, 40.0, 0.0], [40.0, 40.0, 0.0]]
    )
    from swaykin import GeometricTargetModel

    model = GeometricTargetModel("quad", pts)
    rng = np.random.default_rng(23)
    clean_err, noisy_err = [], []
    for _ in range(30):
        du, dv = rng.uniform(0.0, 0.25, 2)  # 0..1 px at this depth
        params = KinematicParams(0.0, 0.0, 0.0, -20.0 + du, -20.0 + dv, 1000.0)
        img = render_frame(params, model, intrinsics=intr, image_size=(360, 360))
        M = motion_matrix(params)
        truth = project(intr, RigidTransform(M[:3, :3], M[:3, 3]), pts)
        for image, sink in ((img, clean_err), (img + rng.normal(0.0, 0.01, img.shape), noisy_err)):
            found = detect_refined(image)
            assert len(found) >= 4
            positions = np.stack([o.position for o in found])
            for t in truth:
                d = np.linalg.norm(positions - t, axis=1).min()
                sink.append(d)
    clean = float(np.max(clean_err))
    noisy = float(np.max(noisy_err))
    ok, block = _report(
        [
            (
                f"refined center within 0.05 px clean ({len(clean_err)} positions)",
                clean < 0.05,
                f"max={clean:.4f} px",
            ),
            (
                "within 0.15 px at sigma=0.01 intensity noise",
                noisy < 0.15,
                f"max={noisy:.4f} px",
            ),
        ]
    )
    assert ok, "\n" + block


# ---------------------------------------------------------------------------
# 5. effect-size anchor


def test_effect_size_anchor():
    def with_moments(mean, sd, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 1, n)
        z = (z - z.mean()) / z.std(ddof=1)
        return mean + sd * z

    a = with_moments(147.1, 5.9 * np.sqrt(14), 14, seed=1)
    b = with_moments(177.8, 11.1 * np.sqrt(14), 14, seed=2)
    d = cohens_d(a, b)
    ok, block = _report([("d = 0.92 +/- 0.02", abs(d - 0.92) <= 0.02, f"d={d:.4f}")])
    assert ok, "\n" + block


# ---------------------------------------------------------------------------
# 6. path-length anchors


def test_path_length_sinusoid_and_step_sum():
    rate = 100.0
    t = np.arange(int(60 * rate)) / rate
    ap = 10.0 * np.sin(2 * np.pi * 0.3 * t)
    traj = SwayTrajectory(
        sample_rate_hz=rate,
        label="s",
        samples=np.column_stack([ap, np.zeros_like(ap), np.zeros_like(ap)]),
        valid=np.ones(len(ap), dtype=bool),
    )
    tpl = total_path_length(traj, "AP", (0.0, 20.0))

    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 300))
        walk_ap = np.cumsum(rng.normal(0, 1, n))
        walk_ml = np.cumsum(rng.normal(0, 1, n))
        w = SwayTrajectory(
            sample_rate_hz=30.0,
            label="w",
            samples=np.column_stack([walk_ap, walk_ml, np.zeros(n)]),
            valid=np.ones(n, dtype=bool),
        )
        brute = float(np.sum(np.hypot(np.diff(walk_ap), np.diff(walk_ml))))
        got = total_path_length(w, "APML", (0.0, n / 30.0))
        worst = max(worst, abs(got - brute) / max(1.0, brute))
    ok, block = _report(
        [
            (
                "sinusoid TPL = 240 mm +/- 1% (4AfT)",
                abs(tpl - 240.0) / 240.0 < 0.01,
                f"tpl={tpl:.3f} mm",
            ),
            ("step-sum equivalence to 1e-12", worst < 1e-12, f"worst rel dev={worst:.2e}"),
        ]
    )
    assert ok, "\n" + block


# ---------------------------------------------------------------------------
# 7. smoothing filter properties


def test_smoother_polynomial_and_linearity():
    rate = 30.0
    t = np.arange(240) / rate
    quad = 3.0 - 2.0 * t + 0.7 * t**2
    rng = np.random.default_rng(17)
    x = rng.normal(0, 1, len(t))
    y = rng.normal(0, 1, len(t))

    def smooth(series):
        traj = SwayTrajectory(
            sample_rate_hz=rate,
            label="f",
            samples=np.column_stack([series, np.zeros_like(series), np.zeros_like(series)]),
            valid=np.ones(len(series), dtype=bool),
        )
        return savitzky_golay(traj, 0.5, 2).axis("AP")

    interior = slice(8, -8)  # window is 15 samples at 30 Hz
    poly_dev = float(np.max(np.abs(smooth(quad)[interior] - quad[interior])))
    lin_dev = float(
        np.max(np.abs(smooth(2.0 * x + 3.0 * y) - (2.0 * smooth(x) + 3.0 * smooth(y))))
    )
    ok, block = _report(
        [
            ("degree-2 polynomial reproduced within 1e-9", poly_dev < 1e-9, f"max={poly_dev:.2e}"),
            ("linearity within 1e-12", lin_dev < 1e-12, f"max={lin_dev:.2e}"),
        ]
    )
    assert ok, "\n" + block


# ---------------------------------------------------------------------------
# 8. warm starting vs random initialization


def test_warm_start_not_worse_than_random_init():
    model = default_target("lumbar")
    warm_errs, random_errs = [], []
    skipped = 0
    for seed in range(10):
        profile = SwayProfile(duration_sec=4.0, seed=seed)
        theta = generate_trajectory(profile)
        obs = render_observations(
            theta, model, DEFAULT_INTRINSICS, NoiseSpec(sigma_px=0.2, seed=100 + seed)
        )
        track = track_sequence(obs, model, DEFAULT_INTRINSICS)
        rng = np.random.default_rng(1000 + seed)
        for i, rep in enumerate(track.reports):
            if rep is None:
                continue
            warm_errs.append(np.linalg.norm(rep.theta.as_array()[3:] - theta[i, 3:]))
            init = KinematicParams(
                rng.uniform(-0.2, 0.2),
                rng.uniform(-0.2, 0.2),
                rng.uniform(-0.2, 0.2),
                rng.uniform(-50.0, 50.0),
                rng.uniform(-50.0, 50.0),
                1000.0 + rng.uniform(-100.0, 100.0),
            )
            try:
                cold = fit_pose(init, model, obs[i], DEFAULT_INTRINSICS)
            except Exception:
                skipped += 1
                continue
            random_errs.append(np.linalg.norm(cold.theta.as_array()[3:] - theta[i, 3:]))
    warm = float(np.median(warm_errs))
    cold = float(np.median(random_errs))
    ok, block = _report(
        [
            (
                "median warm-start translation error <= random init",
                warm <= cold + 1e-6,
                f"warm={warm:.4f} mm, random={cold:.4f} mm over "
                f"{len(warm_errs)}/{len(random_errs)} frames ({skipped} random fits diverged)",
            )
        ]
    )
    assert ok, "\n" + block


# ---------------------------------------------------------------------------
# 9. randomized invariant suites, 1000 cases each


def test_invariant_suite_projection_round_trip():
    rng = np.random.default_rng(90)
    ident = RigidTransform.identity()
    worst = 0.0
    for _ in range(1000):
        intr = CameraIntrinsics(
            fx=rng.uniform(500, 4000),
            fy=rng.uniform(500, 4000),
            x0=rng.uniform(200, 1200),
            y0=rng.uniform(200, 1200),
            skew=rng.uniform(-2.0, 2.0),
        )
        z = rng.uniform(200.0, 2000.0, 5)
        pts = np.column_stack(
            [rng.uniform(-0.4, 0.4, 5) * z, rng.uniform(-0.4, 0.4, 5) * z, z]
        )
        uv = project(intr, ident, pts)
        y = (uv[:, 1] - intr.y0) * z / intr.fy
        x = ((uv[:, 0] - intr.x0) * z - intr.skew * y) / intr.fx
        worst = max(worst, float(np.max(np.abs(np.column_stack([x, y]) - pts[:, :2]))))
    ok, block = _report(
        [("pinhole round-trip within 1e-9 over 1000 cases", worst < 1e-9, f"worst={worst:.2e} mm")]
    )
    assert ok, "\n" + block


def test_invariant_suite_rotation_orthonormality():
    rng = np.random.default_rng(91)
    worst_orth, worst_det = 0.0, 0.0
    for _ in range(1000):
        p = KinematicParams(
            rng.uniform(-np.pi, np.pi),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-np.pi, np.pi),
            0.0,
            0.0,
            1000.0,
        )
        R = motion_matrix(p)[:3, :3]
        worst_orth = max(worst_orth, float(np.max(np.abs(R.T @ R - np.eye(3)))))
        worst_det = max(worst_det, abs(float(np.linalg.det(R)) - 1.0))
    ok, block = _report(
        [
            ("R^T R = I within 1e-12 over 1000 cases", worst_orth < 1e-12, f"worst={worst_orth:.2e}"),
            ("det R = 1 within 1e-12", worst_det < 1e-12, f"worst={worst_det:.2e}"),
        ]
    )
    assert ok, "\n" + block


def test_invariant_suite_nms_soundness():
    from swaykin.features import detect_features

    rng = np.random.default_rng(92)
    for _ in range(1000):
        like = rng.random((20, 20))
        radius = int(rng.integers(1, 4))
        thr = float(rng.uniform(0.2, 0.8) * like.max())
        found = detect_features(like, thr, radius)
        assert all(o.score > thr for o in found)
        pos = np.stack([o.position for o in found]) if found else np.zeros((0, 2))
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                assert np.max(np.abs(pos[i] - pos[j])) > radius
    ok, block = _report(
        [("NMS threshold and spacing hold over 1000 random maps", True, "all sound")]
    )
    assert ok, "\n" + block


def test_invariant_suite_path_length_isometry_monotonicity():
    rng = np.random.default_rng(93)
    worst_iso = 0.0
    for _ in range(1000):
        n = int(rng.integers(20, 80))
        ap = np.cumsum(rng.normal(0, 1, n))
        ml = np.cumsum(rng.normal(0, 1, n))
        phi = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(phi), np.sin(phi)

        def walk(a, m, count=n):
            return SwayTrajectory(
                sample_rate_hz=30.0,
                label="w",
                samples=np.column_stack([a, m, np.zeros(count)]),
                valid=np.ones(count, dtype=bool),
            )

        base = total_path_length(walk(ap, ml), "APML", (0.0, n / 30.0))
        rotated = total_path_length(walk(c * ap - s * ml, s * ap + c * ml), "APML", (0.0, n / 30.0))
        worst_iso = max(worst_iso, abs(rotated - base) / max(1.0, base))
        half = total_path_length(walk(ap, ml), "APML", (0.0, n / 60.0))
        assert half <= base + 1e-12
    ok, block = _report(
        [
            ("planar rotation invariance within 1e-9", worst_iso < 1e-9, f"worst={worst_iso:.2e}"),
            ("path length monotone in window length", True, "all 1000 cases"),
        ]
    )
    assert ok, "\n" + block


def test_invariant_suite_offset_removal_preserves_means():
    rng = np.random.default_rng(94)
    worst = 0.0
    for _ in range(1000):
        data = rng.normal(0, 5, (int(rng.integers(3, 12)), int(rng.integers(2, 6))))
        norm = cousineau_morey(data)
        worst = max(worst, float(np.max(np.abs(norm.mean(axis=0) - data.mean(axis=0)))))
    ok, block = _report(
        [("condition means preserved within 1e-12 over 1000 cases", worst < 1e-12, f"worst={worst:.2e}")]
    )
    assert ok, "\n" + block
