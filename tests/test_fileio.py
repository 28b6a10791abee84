"""File format round-trip tests."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    AgreementReport,
    AmbiguousTargetError,
    CameraIntrinsics,
    FeatureColumns,
    FeatureObservation,
    GeometricTargetModel,
    KinematicParams,
    RigidTransform,
    FitReport,
    PoseTrack,
    SwayTrajectory,
    TplResult,
    default_target,
    motion_matrix,
    track_sequence,
)
from swaykin import fileio


# ---------------------------------------------------------------------------
# PGM


def test_pgm_roundtrip_quantized(tmp_path):
    rng = np.random.default_rng(71)
    img = rng.uniform(0, 1, (33, 47))
    p = tmp_path / "img.pgm"
    fileio.write_pgm(p, img)
    back = fileio.read_pgm(p)
    npt.assert_array_equal(back, np.rint(img * 255) / 255.0)


def test_pgm_float_reader_is_the_uint8_reader_over_255(tmp_path):
    pixels = np.random.default_rng(72).integers(0, 256, (21, 34)).astype(np.uint8)
    p = tmp_path / "u8.pgm"
    p.write_bytes(b"P5\n34 21\n255\n" + pixels.tobytes())
    u8 = fileio.read_pgm_u8(p)
    assert u8.dtype == np.uint8
    npt.assert_array_equal(u8, pixels)
    back = fileio.read_pgm(p)
    assert back.dtype == np.float64
    assert back.tobytes() == (u8.astype(float) / 255.0).tobytes()


def test_pgm_reader_accepts_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(range(6)))
    img = fileio.read_pgm(p)
    assert img.shape == (2, 3)
    npt.assert_allclose(img.ravel(), np.arange(6) / 255.0)


def test_pgm_reader_rejects_ascii_variant(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ValueError):
        fileio.read_pgm(p)


def test_pgm_reader_rejects_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ValueError):
        fileio.read_pgm(p)


@pytest.mark.parametrize("size", [b"0 3", b"2 -1"])
def test_pgm_reader_rejects_empty_or_negative_size(tmp_path, size):
    p = tmp_path / "e.pgm"
    p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(4))
    with pytest.raises(ValueError, match="is empty"):
        fileio.read_pgm_u8(p)


def test_pgm_reader_rejects_16bit(tmp_path):
    p = tmp_path / "w.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError):
        fileio.read_pgm(p)


# ---------------------------------------------------------------------------
# intrinsics / extrinsics / target JSON


def test_intrinsics_roundtrip_exact(tmp_path):
    intr = CameraIntrinsics(fx=4000.123456789, fy=3999.87, x0=1024.5, y0=1023.5, skew=0.25, k1=-0.051, k2=0.0103)
    p = tmp_path / "intr.json"
    fileio.save_intrinsics(p, intr, rms_px=0.087)
    back = fileio.load_intrinsics(p)
    assert back == intr
    assert json.loads(p.read_text())["rms_px"] == 0.087


def test_intrinsics_json_keys(tmp_path):
    p = tmp_path / "intr.json"
    fileio.save_intrinsics(p, CameraIntrinsics(fx=1000, fy=1000, x0=640, y0=512))
    data = json.loads(p.read_text())
    assert set(data) == {"fx", "fy", "s", "x0", "y0", "k1", "k2"}


def test_extrinsics_roundtrip(tmp_path):
    M = motion_matrix(KinematicParams(0.2, -0.1, 0.3, 12.0, -7.0, 450.0))
    pose = RigidTransform(M[:3, :3], M[:3, 3])
    p = tmp_path / "extr.json"
    fileio.save_extrinsics(p, pose)
    back = fileio.load_extrinsics(p)
    npt.assert_array_equal(back.rotation, pose.rotation)
    npt.assert_array_equal(back.translation, pose.translation)


def test_target_roundtrip_with_offset(tmp_path):
    model = default_target("lumbar")
    p = tmp_path / "t.json"
    fileio.save_target(p, model)
    back = fileio.load_target(p)
    assert back.name == model.name
    npt.assert_array_equal(back.points, model.points)
    npt.assert_array_equal(back.virtual_offset, model.virtual_offset)


def test_load_target_validates_symmetry(tmp_path):
    pts = []
    for j in range(4):
        for i in range(4):
            if (i, j) != (0, 0):
                pts.append([i * 20.0, j * 20.0, 0.0])
    bad = GeometricTargetModel("corner-removed", np.array(pts))
    p = tmp_path / "bad.json"
    fileio.save_target(p, bad)
    with pytest.raises(AmbiguousTargetError):
        fileio.load_target(p)


# ---------------------------------------------------------------------------
# features CSV


def test_features_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(72)
    frames = []
    for k in range(5):
        n = int(rng.integers(0, 6))  # frame 0 may be empty
        frames.append(
            [
                FeatureObservation(
                    position=rng.uniform(0, 2000, 2),
                    score=float(rng.uniform(0, 1)),
                    model_index=int(rng.integers(0, 15)),
                )
                for _ in range(n)
            ]
        )
    frames[2] = []  # force an empty middle frame
    p = tmp_path / "f.csv"
    fileio.save_features_csv(p, frames)
    back = fileio.load_features_csv(p)
    assert len(back) == len(frames)
    for a_frame, b_frame in zip(frames, back):
        assert len(a_frame) == len(b_frame)
        for a, b in zip(a_frame, b_frame):
            npt.assert_array_equal(a.position, b.position)  # bitwise float round-trip
            assert a.score == b.score
            assert a.model_index == b.model_index


def test_features_csv_missing_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("frame,model_index,u\n0,0,10.0\n")
    with pytest.raises(ValueError):
        fileio.load_features_csv(p)


# Frames 0, 1 and 3 (frame 2 is empty), with a frame listing two rows.
_CLEAN_ROWS = [
    "0,0,10.5,20.25,1.0",
    "0,1,30.0,40.0,0.5",
    "1,2,50.0,60.0,1.0",
    "3,0,70.0,80.0,0.25",
    "3,1,90.0,100.0,1.0",
]


def _features_file(tmp_path, rows, header="frame,model_index,u,v,score", newline="\n", name="f.csv"):
    p = tmp_path / name
    p.write_bytes("".join(line + newline for line in [header, *rows]).encode())
    return p


def _observed(frames):
    return [[(o.position.tolist(), o.score, o.model_index) for o in obs] for obs in frames]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["u", "v"])
def test_features_csv_refuses_a_position_that_is_not_finite(tmp_path, column, value):
    row = f"1,2,{value},60.0,1.0" if column == "u" else f"1,2,50.0,{value},1.0"
    with pytest.raises(ValueError):
        fileio.load_features_csv(_features_file(tmp_path, [*_CLEAN_ROWS[:2], row]))


@pytest.mark.parametrize("frame", ["1.5", "one", "-1"])
def test_features_csv_refuses_a_frame_that_is_not_a_nonnegative_integer(tmp_path, frame):
    with pytest.raises(ValueError):
        fileio.load_features_csv(_features_file(tmp_path, [*_CLEAN_ROWS, f"{frame},3,5.0,6.0,1.0"]))


def test_features_csv_with_only_its_header_has_no_frames(tmp_path):
    assert fileio.load_features_csv(_features_file(tmp_path, [])) == []


@pytest.mark.parametrize("variant", ["out_of_frame_order", "extra_column", "crlf"])
def test_features_csv_variants_read_as_the_clean_file(tmp_path, variant):
    clean = _observed(fileio.load_features_csv(_features_file(tmp_path, _CLEAN_ROWS, name="clean.csv")))
    assert [len(obs) for obs in clean] == [2, 1, 0, 2]
    if variant == "out_of_frame_order":
        # Frames interleaved; each frame's own rows keep their order.
        rows = [_CLEAN_ROWS[i] for i in (3, 0, 2, 4, 1)]
        p = _features_file(tmp_path, rows)
    elif variant == "extra_column":
        rows = [f"{r.split(',', 1)[0]},x{k},{r.split(',', 1)[1]}" for k, r in enumerate(_CLEAN_ROWS)]
        p = _features_file(tmp_path, rows, header="frame,note,model_index,u,v,score")
    else:
        p = _features_file(tmp_path, _CLEAN_ROWS, newline="\r\n")
    assert _observed(fileio.load_features_csv(p)) == clean


def test_features_csv_empty_model_index_reads_as_none(tmp_path):
    frames = fileio.load_features_csv(_features_file(tmp_path, [*_CLEAN_ROWS, "3,,5.0,6.0,1.0"]))
    assert [o.model_index for o in frames[3]] == [0, 1, None]


def test_feature_columns_hold_the_rows_in_frame_order(tmp_path):
    rows = [_CLEAN_ROWS[i] for i in (3, 0, 2, 4, 1)] + ["4,,5.0,6.0,1.0"]
    cols = fileio.load_feature_columns(_features_file(tmp_path, rows))
    assert cols.n_frames == 5
    npt.assert_array_equal(cols.frame, [0, 0, 1, 3, 3, 4])
    npt.assert_array_equal(cols.model_index, [0, 1, 2, 0, 1, np.nan])
    npt.assert_array_equal(cols.uv, [[10.5, 20.25], [30, 40], [50, 60], [70, 80], [90, 100], [5, 6]])
    npt.assert_array_equal(cols.score, [1.0, 0.5, 1.0, 0.25, 1.0, 1.0])
    # The observation lists are these columns, frame by frame, both ways.
    frames = fileio.load_features_csv(_features_file(tmp_path, rows))
    assert _observed(frames) == _observed([cols.observations(i) for i in range(5)])
    back = FeatureColumns.from_frames(frames)
    for name in ("frame", "model_index", "uv", "score", "n_frames"):
        npt.assert_array_equal(getattr(back, name), getattr(cols, name))
    # Columns out of frame order, or beyond their frame count, are refused.
    for frame, n_frames in (cols.frame[::-1], 5), (cols.frame, 4):
        with pytest.raises(ValueError, match="frame numbers must be in order and below"):
            FeatureColumns(frame, cols.model_index, cols.uv, cols.score, n_frames)


def test_feature_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match=r"equally long; frame, model_index, uv, score have \[5, 5, 4, 5\] rows"):
        FeatureColumns(np.array([0, 0, 0, 0, 1]), np.arange(5.0), np.zeros((4, 2)), np.ones(5), 2)


# ---------------------------------------------------------------------------
# pose track CSV


def test_pose_track_csv_gap_rows(tmp_path):
    from swaykin import CameraIntrinsics, default_target, project

    intr = CameraIntrinsics(fx=4000, fy=4000, x0=1024, y0=1024)
    model = default_target("lumbar")
    theta = KinematicParams(0.01, 0.0, 0.0, 2.0, -1.0, 1000.0)
    M = motion_matrix(theta)
    uv = project(intr, RigidTransform(M[:3, :3], M[:3, 3]), model.points)
    obs = [FeatureObservation(position=q, score=1.0, model_index=i) for i, q in enumerate(uv)]
    frames = [obs, obs[:2], obs]
    track = track_sequence(frames, model, intr)
    p = tmp_path / "pose.csv"
    fileio.save_pose_track_csv(p, track)
    lines = p.read_text().strip().split("\n")
    assert lines[0].startswith("frame,t_sec,status")
    assert len(lines) == 4
    gap = lines[2].split(",")
    assert gap[2] == "gap"
    assert all(field == "" for field in gap[3:])
    fitted = lines[1].split(",")
    assert fitted[2] == "fitted"
    assert float(fitted[8]) == pytest.approx(1000.0, abs=1e-6)


# ---------------------------------------------------------------------------
# theta CSV


def test_theta_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(73)
    theta = rng.normal(0, 1, (40, 6)) + [0, 0, 0, 0, 0, 1000.0]
    p = tmp_path / "theta.csv"
    fileio.save_theta_csv(p, theta, rate_hz=30.0)
    back = np.loadtxt(p, delimiter=",", skiprows=1)
    npt.assert_array_equal(back[:, 0], np.arange(40))
    npt.assert_array_equal(back[:, 2:], theta)
    npt.assert_allclose(np.diff(back[:, 1]), 1 / 30.0, atol=1e-12)


# ---------------------------------------------------------------------------
# trajectory CSV


# A step that is zero (a repeated t_sec) or not a number.
BAD_TIMES = [("0.0", "0.0", "0.0"), ("nan", "nan", "nan")]


def test_trajectory_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(74)
    samples = rng.normal(0, 5, (60, 3))
    valid = rng.uniform(size=60) > 0.1
    samples[~valid] = np.nan
    traj = SwayTrajectory(sample_rate_hz=30.0, label="lumbar", samples=samples, valid=valid, t0=2.0)
    p = tmp_path / "traj.csv"
    fileio.save_trajectory_csv(p, traj)
    back = fileio.load_trajectory_csv(p)
    assert back.label == "lumbar"
    assert back.t0 == pytest.approx(2.0, abs=1e-12)
    assert back.sample_rate_hz == pytest.approx(30.0, rel=1e-9)
    npt.assert_array_equal(back.valid, valid)
    npt.assert_array_equal(back.samples[valid], samples[valid])


def test_trajectory_csv_rejects_nonuniform_time(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        "t_sec,segment,AP_mm,ML_mm,SI_mm,valid\n"
        "0.0,s,1.0,2.0,3.0,1\n"
        "0.0333,s,1.0,2.0,3.0,1\n"
        "0.2,s,1.0,2.0,3.0,1\n"
    )
    with pytest.raises(ValueError):
        fileio.load_trajectory_csv(p)


@pytest.mark.parametrize("times", BAD_TIMES)
def test_trajectory_csv_rejects_a_step_that_is_not_positive(tmp_path, times):
    p = tmp_path / "bad.csv"
    p.write_text("t_sec,segment,AP_mm,ML_mm,SI_mm,valid\n" + "".join(f"{t},s,1.0,2.0,3.0,1\n" for t in times))
    with pytest.raises(ValueError, match="step"):
        fileio.load_trajectory_csv(p)


def test_trajectory_csv_rejects_a_later_nan_time(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t_sec,segment,AP_mm,ML_mm,SI_mm,valid\n" + "".join(f"{t},s,1.0,2.0,3.0,1\n" for t in ("0.0", "0.1", "nan")))
    with pytest.raises(ValueError, match="uniform"):
        fileio.load_trajectory_csv(p)


def test_trajectory_csv_rejects_single_row(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("t_sec,segment,AP_mm,ML_mm,SI_mm,valid\n0.0,s,1.0,2.0,3.0,1\n")
    with pytest.raises(ValueError):
        fileio.load_trajectory_csv(p)


def test_trajectory_csv_refuses_rows_of_more_than_one_segment(tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("t_sec,segment,AP_mm,ML_mm,SI_mm,valid\n" "0.0,lumbar,1.0,2.0,3.0,1\n" "0.1,thoracic,1.0,2.0,3.0,1\n")
    with pytest.raises(ValueError, match=r"more than one segment: \['lumbar', 'thoracic'\]"):
        fileio.load_trajectory_csv(p)


def test_trajectory_csv_roundtrips_a_label_with_a_comma_and_a_quote(tmp_path):
    label = 'left, "upper" trunk'
    traj = SwayTrajectory(sample_rate_hz=30.0, label=label, samples=np.ones((3, 3)), valid=np.ones(3, bool))
    p = tmp_path / "traj.csv"
    fileio.save_trajectory_csv(p, traj)
    assert '"left, ""upper"" trunk"' in p.read_text()
    back = fileio.load_trajectory_csv(p)
    assert back.label == label
    npt.assert_array_equal(back.samples, traj.samples)


# ---------------------------------------------------------------------------
# TPL CSV and agreement JSON


def test_tpl_csv_format(tmp_path):
    rows = [
        TplResult(segment="lumbar", direction="AP", bin_label="early", value_mm=123.456),
        TplResult(segment="lumbar", direction="APML", bin_label="late", value_mm=98.7),
    ]
    p = tmp_path / "tpl.csv"
    fileio.save_tpl_csv(p, rows)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "segment,direction,bin,tpl_mm"
    assert lines[1].split(",")[:3] == ["lumbar", "AP", "early"]
    assert float(lines[1].split(",")[3]) == 123.456


def test_agreement_json_roundtrip(tmp_path):
    rep = AgreementReport(bias_mm=0.012, loa_mm=(-0.5, 0.52), slope=0.998, intercept=0.004, r2=0.993, n=1800)
    p = tmp_path / "agree.json"
    fileio.save_agreement_json(p, rep)
    data = json.loads(p.read_text())
    assert data["bias_mm"] == 0.012
    assert data["loa"] == [-0.5, 0.52]
    assert data["n"] == 1800
    assert data["r2"] == 0.993


# ---------------------------------------------------------------------------
# The bytes each CSV writer leaves: CRLF line ends, Python float reprs, blank
# cells for a gap and for a feature without a model index.


def _crlf(*lines):
    return "".join(line + "\r\n" for line in lines).encode()


def test_features_csv_bytes(tmp_path):
    frames = [
        [FeatureObservation([1.5, 0.1], 1.0, model_index=0), FeatureObservation([2.0, 1e-20], np.float64(0.25))],
        [],
        [FeatureObservation([3.0, 4.0], 0.5, model_index=14)],
    ]
    p = tmp_path / "f.csv"
    fileio.save_features_csv(p, frames)
    assert p.read_bytes() == _crlf(
        "frame,model_index,u,v,score", "0,0,1.5,0.1,1.0", "0,,2.0,1e-20,0.25", "2,14,3.0,4.0,0.5"
    )


def test_pose_track_csv_bytes(tmp_path):
    fit = FitReport(KinematicParams(0.1, 0.0, -0.0, 1.5, -2.0, 1000.0), 0.125, 3, True, np.zeros(6))
    p = tmp_path / "pose.csv"
    fileio.save_pose_track_csv(p, PoseTrack(rate_hz=4.0, reports=[fit, None]))
    assert p.read_bytes() == _crlf(
        "frame,t_sec,status,theta1,theta2,theta3,theta4,theta5,theta6,rms_px,iters",
        "0,0.0,fitted,0.1,0.0,-0.0,1.5,-2.0,1000.0,0.125,3",
        "1,0.25,gap,,,,,,,,",
    )


def test_theta_csv_bytes(tmp_path):
    p = tmp_path / "theta.csv"
    fileio.save_theta_csv(p, [[0.1, 0, 0, 0, 0, 1000], [0.2, 0, 0, 0, 0, 999.5]], rate_hz=4.0)
    assert p.read_bytes() == _crlf(
        "frame,t_sec,theta1,theta2,theta3,theta4,theta5,theta6",
        "0,0.0,0.1,0.0,0.0,0.0,0.0,1000.0",
        "1,0.25,0.2,0.0,0.0,0.0,0.0,999.5",
    )


def test_trajectory_csv_bytes(tmp_path):
    samples = np.array([[1.5, -0.25, 0.1], [np.nan, np.nan, np.nan]])
    traj = SwayTrajectory(sample_rate_hz=4.0, label="lumbar", samples=samples, valid=[True, False], t0=2.0)
    p = tmp_path / "traj.csv"
    fileio.save_trajectory_csv(p, traj)
    assert p.read_bytes() == _crlf(
        "t_sec,segment,AP_mm,ML_mm,SI_mm,valid", "2.0,lumbar,1.5,-0.25,0.1,1", "2.25,lumbar,nan,nan,nan,0"
    )


def test_tpl_csv_bytes(tmp_path):
    p = tmp_path / "tpl.csv"
    fileio.save_tpl_csv(p, [TplResult("lumbar", "APML", "early", 123.456), TplResult("lumbar", "AP", "late", 1e-5)])
    assert p.read_bytes() == _crlf("segment,direction,bin,tpl_mm", "lumbar,APML,early,123.456", "lumbar,AP,late,1e-05")
