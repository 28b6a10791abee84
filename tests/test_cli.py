"""End-to-end command-line workflow tests.

These drive ``swaykin.cli.main`` in-process and assert on exit codes and the
files each subcommand leaves behind.
"""

import json
import math
import shutil

import numpy as np
import numpy.testing as npt
import pytest

from swaykin import (
    CameraIntrinsics,
    FeatureObservation,
    GeometricTargetModel,
    KinematicParams,
    SwayTrajectory,
    cohens_d,
    fileio,
    render_frame,
    total_path_length,
)
from swaykin.cli import main
from swaykin.metrics import StanceBins


def _write_traj(path, ap, rate=30.0, label="seg", t0=0.0, valid=None, ml=None, si=None):
    n = len(ap)
    s = np.column_stack(
        [
            np.asarray(ap, float),
            np.zeros(n) if ml is None else np.asarray(ml, float),
            np.zeros(n) if si is None else np.asarray(si, float),
        ]
    )
    v = np.ones(n, bool) if valid is None else np.asarray(valid, bool)
    fileio.save_trajectory_csv(
        path, SwayTrajectory(sample_rate_hz=rate, label=label, samples=s, valid=v, t0=t0)
    )


# ---------------------------------------------------------------------------
# argument plumbing


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "calibrate" in capsys.readouterr().out


def test_unknown_command_is_usage_error():
    assert main(["transmogrify"]) == 2


@pytest.mark.parametrize("command", [["simulate", "--scenario", "s.json"], ["track", "--config", "c.json"]])
def test_jobs_is_not_an_option(capsys, command):
    assert main([*command, "--out", "o", "--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# calibrate


CAL_INTR = CameraIntrinsics(fx=900, fy=900, x0=320, y0=240)
CAL_VIEWS = [
    (0.0, 0.25, 0.1, -60.0, -45.0, 620.0),
    (0.3, -0.2, 0.0, -70.0, -40.0, 600.0),
    (-0.25, 0.15, 0.2, -55.0, -50.0, 650.0),
    (0.2, 0.3, -0.15, -65.0, -45.0, 580.0),
    (-0.1, -0.3, -0.2, -50.0, -40.0, 640.0),
]


@pytest.fixture(scope="module")
def cal_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cal")
    rows, cols, pitch = 4, 5, 30.0
    jj, ii = np.meshgrid(np.arange(cols, dtype=float), np.arange(rows, dtype=float))
    pts = np.column_stack([pitch * jj.ravel(), pitch * ii.ravel(), np.zeros(rows * cols)])
    model = GeometricTargetModel("board", pts)
    frames = root / "frames"
    frames.mkdir()
    for k, params in enumerate(CAL_VIEWS):
        img = render_frame(KinematicParams(*params), model, intrinsics=CAL_INTR, image_size=(480, 640))
        fileio.write_pgm(frames / f"view_{k}.pgm", img)
    (root / "board.json").write_text(json.dumps({"rows": rows, "cols": cols, "square_size_mm": pitch}))
    return root


def test_calibrate_end_to_end(cal_dir):
    out = cal_dir / "intr.json"
    rc = main(["calibrate", "--frames", str(cal_dir / "frames"), "--board", str(cal_dir / "board.json"), "--out", str(out)])
    assert rc == 0
    intr = fileio.load_intrinsics(out)
    # five rendered views leave k1/k2 weakly constrained over the board's
    # radial range, so focal/centre tolerances are looser than the analytic
    # correspondence tests and the distortion check bounds net displacement
    assert abs(intr.fx - 900) / 900 < 5e-3
    assert abs(intr.fy - 900) / 900 < 5e-3
    assert abs(intr.x0 - 320) < 1.0
    assert abs(intr.y0 - 240) < 1.0
    r2 = 0.22**2
    assert abs(intr.k1 * r2 + intr.k2 * r2**2) * intr.fx < 0.1
    assert json.loads(out.read_text())["rms_px"] < 0.05


def test_calibrate_missing_board(cal_dir, tmp_path):
    rc = main(["calibrate", "--frames", str(cal_dir / "frames"), "--board", str(tmp_path / "none.json"), "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_calibrate_single_view_fails_compute(cal_dir, tmp_path):
    one = tmp_path / "one"
    one.mkdir()
    (one / "v.pgm").write_bytes((cal_dir / "frames" / "view_0.pgm").read_bytes())
    rc = main(["calibrate", "--frames", str(one), "--board", str(cal_dir / "board.json"), "--out", str(tmp_path / "o.json")])
    assert rc == 1


def test_calibrate_bad_board_spec(cal_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": 4, "cols": 5}))  # no square size
    rc = main(["calibrate", "--frames", str(cal_dir / "frames"), "--board", str(bad), "--out", str(tmp_path / "o.json")])
    assert rc == 2


# A float, a string or a bool where an integer or a pitch is due, and a pitch
# that is not finite.
@pytest.mark.parametrize(
    "key, value",
    [("rows", 4.5), ("rows", 4.0), ("cols", "5"), ("cols", True), ("square_size_mm", True),
     ("square_size_mm", "30"), ("square_size_mm", math.nan)],
)
def test_calibrate_refuses_a_board_value_of_the_wrong_type(cal_dir, tmp_path, caplog, key, value):
    board = tmp_path / "board.json"
    board.write_text(json.dumps({"rows": 4, "cols": 5, "square_size_mm": 30.0, key: value}))
    rc = main(["calibrate", "--frames", str(cal_dir / "frames"), "--board", str(board), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert key in caplog.text
    assert not (tmp_path / "o.json").exists()


# ---------------------------------------------------------------------------
# simulate + track (feature-CSV path)


SCENARIO = {
    "duration_sec": 4.0,
    "rate_hz": 30.0,
    "seed": 12,
    "noise": {"sigma_px": 0.0, "dropout": 0.0},
    "targets": ["lumbar"],
}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    rc = main(["simulate", "--scenario", str(root / "scenario.json"), "--out", str(root / "out")])
    assert rc == 0
    return root / "out"


@pytest.fixture(scope="module")
def tracked_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("tracked")
    rc = main(["track", "--config", str(sim_dir / "track_config.json"), "--out", str(out)])
    assert rc == 0
    return out


def test_simulate_outputs(sim_dir):
    for name in (
        "intrinsics.json",
        "extrinsics.json",
        "truth_theta.csv",
        "target_lumbar.json",
        "features_lumbar.csv",
        "trajectory_truth_lumbar.csv",
        "track_config.json",
    ):
        assert (sim_dir / name).is_file(), name
    truth = np.loadtxt(sim_dir / "truth_theta.csv", delimiter=",", skiprows=1)
    assert truth.shape == (120, 8)  # frame, t_sec and the six parameters
    assert 1 / (truth[1, 1] - truth[0, 1]) == pytest.approx(30.0)


def test_simulate_reproducible(sim_dir, tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    rc = main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "out")])
    assert rc == 0
    for p in sorted(sim_dir.iterdir()):
        if p.is_file():
            assert (tmp_path / "out" / p.name).read_bytes() == p.read_bytes(), p.name


def test_simulate_rejects_unknown_target(tmp_path):
    sc = dict(SCENARIO, targets=["ankle"])
    (tmp_path / "s.json").write_text(json.dumps(sc))
    assert main(["simulate", "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path / "o")]) == 2


def test_simulate_rejects_bad_noise(tmp_path):
    sc = dict(SCENARIO, noise={"sigma_px": -1.0})
    (tmp_path / "s.json").write_text(json.dumps(sc))
    assert main(["simulate", "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path / "o")]) == 2


def test_track_outputs(tracked_dir):
    for name in ("pose_lumbar.csv", "trajectory_raw_lumbar.csv", "trajectory_lumbar.csv"):
        assert (tracked_dir / name).is_file(), name


def test_track_noiseless_matches_truth(sim_dir, tracked_dir):
    truth = fileio.load_trajectory_csv(sim_dir / "trajectory_truth_lumbar.csv")
    raw = fileio.load_trajectory_csv(tracked_dir / "trajectory_raw_lumbar.csv")
    assert np.all(raw.valid)
    err = raw.samples - truth.samples
    assert np.sqrt(np.mean(err**2)) < 1e-3


def test_track_reproducible(sim_dir, tracked_dir, tmp_path):
    rc = main(["track", "--config", str(sim_dir / "track_config.json"), "--out", str(tmp_path)])
    assert rc == 0
    for p in sorted(tracked_dir.iterdir()):
        assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name


def test_track_missing_config_key(sim_dir, tmp_path):
    cfg = json.loads((sim_dir / "track_config.json").read_text())
    del cfg["intrinsics"]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["track", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 2


def test_track_missing_features_file(sim_dir, tmp_path):
    cfg = json.loads((sim_dir / "track_config.json").read_text())
    cfg["features"]["lumbar"] = "does_not_exist.csv"
    # config paths resolve against the config's own directory
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    cfg_path = tmp_path / "cfg.json"
    import shutil

    for name in ("intrinsics.json", "extrinsics.json", "target_lumbar.json"):
        shutil.copy(sim_dir / name, tmp_path / name)
    assert main(["track", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_track_null_filter_passes_raw_through(sim_dir, tmp_path):
    cfg = json.loads((sim_dir / "track_config.json").read_text())
    cfg["filter"] = None
    (sim_dir / "cfg_nofilter.json").write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["track", "--config", str(sim_dir / "cfg_nofilter.json"), "--out", str(out)]) == 0
    # gap-free noiseless run: unfiltered output equals the raw trajectory
    assert (out / "trajectory_lumbar.csv").read_bytes() == (out / "trajectory_raw_lumbar.csv").read_bytes()


def test_track_rate_override(sim_dir, tmp_path):
    out = tmp_path / "o"
    rc = main(["track", "--config", str(sim_dir / "track_config.json"), "--rate", "60", "--out", str(out)])
    assert rc == 0
    traj = fileio.load_trajectory_csv(out / "trajectory_lumbar.csv")
    assert traj.sample_rate_hz == pytest.approx(60.0)


def _simulate_short(tmp_path, noise):
    """A 0.3 s, 9-frame recording; returns its directory."""
    sc = dict(SCENARIO, duration_sec=0.3, noise=noise)
    (tmp_path / "scenario.json").write_text(json.dumps(sc))
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "sim")]) == 0
    assert len(np.loadtxt(tmp_path / "sim" / "truth_theta.csv", delimiter=",", skiprows=1)) == 9
    return tmp_path / "sim"


def test_track_short_noisy_recording_tracks(tmp_path):
    sim = _simulate_short(tmp_path, {"sigma_px": 0.2, "dropout": 0.0})
    out = tmp_path / "o"
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "pose_lumbar.csv", "trajectory_lumbar.csv", "trajectory_raw_lumbar.csv"
    ]
    traj = fileio.load_trajectory_csv(out / "trajectory_lumbar.csv")
    assert traj.n_samples == 9 and np.all(traj.valid)


def test_track_untrackable_recording_fails_without_partial_output(tmp_path):
    sim = _simulate_short(tmp_path, {"sigma_px": 0.0, "dropout": 0.0})
    # Three observations per frame, one short of a pose fit: no frame tracks.
    frames = fileio.load_features_csv(sim / "features_lumbar.csv")
    fileio.save_features_csv(sim / "features_lumbar.csv", [obs[:3] for obs in frames])
    out = tmp_path / "o"
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 1
    assert not (out / "pose_lumbar.csv").exists()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("index", [15, -1])
def test_track_refuses_model_index_outside_target(tmp_path, caplog, index):
    sim = _simulate_short(tmp_path, {"sigma_px": 0.2, "dropout": 0.0})
    frames = fileio.load_features_csv(sim / "features_lumbar.csv")
    o = frames[4][0]
    frames[4][0] = FeatureObservation(o.position, o.score, model_index=index)
    fileio.save_features_csv(sim / "features_lumbar.csv", frames)
    out = tmp_path / "o"
    caplog.clear()
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and f"model_index {index} is outside [0, 15)" in errors[0]
    assert list(out.iterdir()) == []


def test_track_refuses_model_index_outside_target_on_short_frame(tmp_path, caplog):
    sim = _simulate_short(tmp_path, {"sigma_px": 0.2, "dropout": 0.0})
    frames = fileio.load_features_csv(sim / "features_lumbar.csv")
    o = frames[3][0]
    frames[3] = [FeatureObservation(o.position, o.score, model_index=99), *frames[3][1:3]]
    fileio.save_features_csv(sim / "features_lumbar.csv", frames)
    out = tmp_path / "o"
    caplog.clear()
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "model_index 99 is outside [0, 15)" in errors[0]
    assert list(out.iterdir()) == []


def test_track_error_names_its_segment(tmp_path, caplog):
    sc = dict(SCENARIO, duration_sec=0.3, targets=["lumbar", "shoulder"])
    (tmp_path / "scenario.json").write_text(json.dumps(sc))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(sim)]) == 0
    frames = fileio.load_features_csv(sim / "features_shoulder.csv")
    o = frames[4][0]
    frames[4][0] = FeatureObservation(o.position, o.score, model_index=99)
    fileio.save_features_csv(sim / "features_shoulder.csv", frames)
    caplog.clear()
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(tmp_path / "o")]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0].startswith("segment 'shoulder': ") and "model_index 99 is outside" in errors[0]


def test_track_failed_segment_does_not_stop_the_others(tmp_path, caplog):
    sc = dict(SCENARIO, duration_sec=0.3, targets=["lumbar", "shoulder"])
    (tmp_path / "scenario.json").write_text(json.dumps(sc))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(sim)]) == 0
    frames = fileio.load_features_csv(sim / "features_lumbar.csv")
    o = frames[4][0]
    frames[4][0] = FeatureObservation(o.position, o.score, model_index=99)
    fileio.save_features_csv(sim / "features_lumbar.csv", frames)
    out = tmp_path / "o"
    caplog.clear()
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("segment 'lumbar': ")
    assert sorted(p.name for p in out.iterdir()) == [
        "pose_shoulder.csv", "trajectory_raw_shoulder.csv", "trajectory_shoulder.csv"
    ]


def test_track_refuses_negative_frame_number(tmp_path, caplog):
    sim = _simulate_short(tmp_path, {"sigma_px": 0.2, "dropout": 0.0})
    with open(sim / "features_lumbar.csv", "a") as f:
        f.write("-1,0,100.0,100.0,1.0\n")
    out = tmp_path / "o"
    caplog.clear()
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "frame numbers must be >= 0, got -1" in errors[0]
    assert list(out.iterdir()) == []


def test_track_refuses_a_frame_that_lists_a_model_index_twice(tmp_path, caplog):
    sc = dict(SCENARIO, duration_sec=0.3, targets=["lumbar", "shoulder"], noise={"sigma_px": 0.2, "dropout": 0.0})
    (tmp_path / "scenario.json").write_text(json.dumps(sc))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(sim)]) == 0
    frames = fileio.load_features_csv(sim / "features_lumbar.csv")
    o = frames[5][3]
    frames[5].append(FeatureObservation(o.position + [40.0, 0.0], o.score, o.model_index))
    fileio.save_features_csv(sim / "features_lumbar.csv", frames)
    out = tmp_path / "o"
    caplog.clear()
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"segment 'lumbar': frame 5 lists model_index {o.model_index} twice"]
    assert sorted(p.name for p in out.iterdir()) == [
        "pose_shoulder.csv", "trajectory_raw_shoulder.csv", "trajectory_shoulder.csv"
    ]


@pytest.mark.parametrize("row", ["2,0,nan,100.0,1.0", "2,0,100.0,inf,1.0"], ids=["u", "v"])
def test_track_refuses_a_position_that_is_not_finite(tmp_path, caplog, row):
    sim = _simulate_short(tmp_path, {"sigma_px": 0.2, "dropout": 0.0})
    with open(sim / "features_lumbar.csv", "a") as f:
        f.write(row + "\n")
    out = tmp_path / "o"
    caplog.clear()
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("segment 'lumbar': features file ")
    assert list(out.iterdir()) == []


def test_track_refuses_an_empty_model_index_at_tracking(tmp_path, caplog):
    sim = _simulate_short(tmp_path, {"sigma_px": 0.2, "dropout": 0.0})
    frames = fileio.load_features_csv(sim / "features_lumbar.csv")
    o = frames[2][1]
    frames[2][1] = FeatureObservation(o.position, o.score)
    fileio.save_features_csv(sim / "features_lumbar.csv", frames)
    out = tmp_path / "o"
    caplog.clear()
    assert main(["track", "--config", str(sim / "track_config.json"), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["segment 'lumbar': all observations must carry a model_index"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "setting",
    [
        {"filter": {"window_sec": 0.5, "order": 2}},
        {"filter": {}},
        {"detector": {"threshold_fraction": 0.5}},
        {"detector": {}},
    ],
)
def test_track_rejects_filter_and_detector_settings(sim_dir, tmp_path, caplog, setting):
    cfg = dict(json.loads((sim_dir / "track_config.json").read_text()), **setting)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["track", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
    assert "the pose smoother is the filter" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    [
        {"rate_hz": math.nan},
        {"rate_hz": math.inf},
        {"rate_hz": "30"},
        {"max_gap_sec": math.nan},
        {"max_gap_sec": -0.2},
        {"max_gap_sec": "0.2"},
    ],
)
def test_track_rejects_bad_rate_and_gap(sim_dir, tmp_path, caplog, setting):
    # A copy of the whole simulation, so that only the setting is wrong.
    sim = shutil.copytree(sim_dir, tmp_path / "sim")
    cfg = dict(json.loads((sim / "track_config.json").read_text()), **setting)
    (sim / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["track", "--config", str(sim / "cfg.json"), "--out", str(out)]) == 2
    assert f"{next(iter(setting))} must be" in caplog.text
    assert not out.exists()


# ---------------------------------------------------------------------------
# track (rendered-frames path)


@pytest.fixture(scope="module")
def frames_sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fsim")
    scenario = {
        "duration_sec": 1.0,
        "rate_hz": 10.0,
        "seed": 3,
        "noise": {"sigma_px": 0.0, "dropout": 0.0},
        "intrinsics": {"fx": 2000, "fy": 2000, "x0": 256, "y0": 256},
        "image_size": [512, 512],
        "targets": ["lumbar"],
    }
    (root / "scenario.json").write_text(json.dumps(scenario))
    rc = main(
        ["simulate", "--scenario", str(root / "scenario.json"), "--out", str(root / "out"), "--render-frames"]
    )
    assert rc == 0
    return root / "out"


def test_simulate_rejects_target_outside_image(tmp_path, caplog):
    # The default intrinsics put the principal point at (1024, 1024), far
    # outside a 256x256 image: every frame would be blank.
    sc = {"duration_sec": 0.3, "rate_hz": 30.0, "image_size": [256, 256], "targets": ["lumbar"]}
    (tmp_path / "s.json").write_text(json.dumps(sc))
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(tmp_path / "s.json"), "--out", str(out), "--render-frames"]) == 2
    assert "target 'lumbar'" in caplog.text and "[256, 256]" in caplog.text
    assert not list(tmp_path.glob("**/frames_*"))


@pytest.mark.parametrize("image_size", [5, [512.5, 512], [512], [512, 512, 1], [0, 512], [True, 512], "512"])
def test_simulate_refuses_an_image_size_that_is_not_two_positive_integers(tmp_path, caplog, image_size):
    sc = {"duration_sec": 0.3, "rate_hz": 30.0, "image_size": image_size, "targets": ["lumbar"]}
    (tmp_path / "s.json").write_text(json.dumps(sc))
    assert main(["simulate", "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path / "o")]) == 2
    assert "image_size" in caplog.text


def test_simulate_renders_frames(frames_sim_dir):
    frames = sorted((frames_sim_dir / "frames_lumbar").glob("*.pgm"))
    assert len(frames) == 10
    img = fileio.read_pgm(frames[0])
    assert img.shape == (512, 512)
    assert img.min() < 0.2 and img.max() > 0.8  # saddles actually drawn


def test_track_from_rendered_frames(frames_sim_dir, tmp_path, monkeypatch):
    out = tmp_path / "o"
    monkeypatch.chdir(frames_sim_dir)
    rc = main(
        ["track", "--config", str(frames_sim_dir / "track_config.json"), "--frames", "frames_lumbar", "--out", str(out)]
    )
    assert rc == 0
    truth = fileio.load_trajectory_csv(frames_sim_dir / "trajectory_truth_lumbar.csv")
    raw = fileio.load_trajectory_csv(out / "trajectory_raw_lumbar.csv")
    assert np.all(raw.valid)
    err = raw.samples - truth.samples
    # detector quantization noise, scaled by the depth leverage on AP
    assert np.sqrt(np.mean(err[:, 0] ** 2)) < 0.5
    assert np.sqrt(np.mean(err[:, 1:] ** 2)) < 0.05


def test_track_empty_frames_dir(frames_sim_dir, tmp_path, monkeypatch):
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(tmp_path)
    rc = main(
        ["track", "--config", str(frames_sim_dir / "track_config.json"), "--frames", "empty", "--out", str(tmp_path / "o")]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# analyze


def test_analyze_stationary_all_zero(tmp_path):
    tdir = tmp_path / "traj"
    tdir.mkdir()
    for name in ("p01", "p02"):
        _write_traj(tdir / f"trajectory_{name}.csv", np.full(650, 4.2), rate=10.0, label=name)
    out = tmp_path / "out"
    assert main(["analyze", "--traj", str(tdir), "--out", str(out)]) == 0
    lines = (out / "tpl.csv").read_text().strip().split("\n")
    assert lines[0] == "segment,direction,bin,tpl_mm"
    assert len(lines) == 1 + 2 * 6 * 3
    for line in lines[1:]:
        assert float(line.split(",")[3]) == 0.0


def test_analyze_sinusoid_path_length(tmp_path):
    tdir = tmp_path / "traj"
    tdir.mkdir()
    t = np.arange(6000) / 100.0
    _write_traj(tdir / "trajectory_s.csv", 10.0 * np.sin(2 * np.pi * 0.3 * t), rate=100.0, label="s")
    out = tmp_path / "out"
    assert main(["analyze", "--traj", str(tdir), "--out", str(out)]) == 0
    got = {}
    for line in (out / "tpl.csv").read_text().strip().split("\n")[1:]:
        seg, direction, label, value = line.split(",")
        got[(direction, label)] = float(value)
    # 4 * amplitude * frequency * bin length
    for label in ("early", "mid", "late"):
        assert got[("AP", label)] == pytest.approx(240.0, rel=0.01)
        assert got[("ML", label)] == 0.0


def test_analyze_compare_effect_sizes(tmp_path):
    rng = np.random.default_rng(91)
    dirs = {}
    for cond, scale in (("a", 1.0), ("b", 2.0)):
        d = tmp_path / cond
        d.mkdir()
        dirs[cond] = d
        for k in range(4):
            ap, ml, si = (np.cumsum(rng.normal(0, scale, 1800)) for _ in range(3))
            _write_traj(d / f"trajectory_p{k}.csv", ap, ml=ml, si=si, rate=30.0, label=f"p{k}")
    out = tmp_path / "out"
    rc = main(["analyze", "--traj", str(dirs["a"]), "--compare", str(dirs["b"]), "--out", str(out)])
    assert rc == 0
    lines = (out / "cohens_d.csv").read_text().strip().split("\n")
    assert lines[0] == "direction,bin,d,n_a,n_b"
    assert len(lines) == 1 + 6 * 3
    table = {}
    for line in lines[1:]:
        direction, label, d, n_a, n_b = line.split(",")
        assert (n_a, n_b) == ("4", "4")
        table[(direction, label)] = float(d)

    # spot-check one cell against a direct computation
    bins = StanceBins()
    vals = {}
    for cond, d in dirs.items():
        vals[cond] = [
            total_path_length(fileio.load_trajectory_csv(p), "AP", bins.intervals[0])
            for p in sorted(d.glob("trajectory_*.csv"))
        ]
    expect = cohens_d(np.array(vals["a"]), np.array(vals["b"]))
    assert table[("AP", "early")] == pytest.approx(expect, abs=1e-12)


def test_analyze_compare_swapped_negates_every_d(tmp_path):
    # Three subjects against four: swapping the directories swaps n_a and
    # n_b and negates every d, bit for bit.
    rng = np.random.default_rng(92)
    dirs = {}
    for cond, (scale, n) in (("a", (1.0, 3)), ("b", (1.5, 4))):
        dirs[cond] = tmp_path / cond
        dirs[cond].mkdir()
        for k in range(n):
            ap, ml, si = (np.cumsum(rng.normal(0, scale, 1800)) for _ in range(3))
            _write_traj(dirs[cond] / f"trajectory_p{k}.csv", ap, ml=ml, si=si, rate=30.0, label=f"p{k}")
    tables = []
    for first, second in (("a", "b"), ("b", "a")):
        out = tmp_path / f"out_{first}"
        assert main(["analyze", "--traj", str(dirs[first]), "--compare", str(dirs[second]), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "cohens_d.csv").read_text().splitlines()[1:]]
        tables.append({(direction, b): (float(d), n_a, n_b) for direction, b, d, n_a, n_b in rows})
    forward, backward = tables
    assert len(forward) == 6 * 3 and forward.keys() == backward.keys()
    for cell, (d, n_a, n_b) in forward.items():
        assert (n_a, n_b) == ("3", "4") and d != 0.0
        assert backward[cell] == (-d, n_b, n_a)


def test_analyze_compare_writes_cohens_d_csv_bytes(tmp_path):
    # Each subject moves `step` mm along every axis per sample: at 2 Hz and
    # bins of 1 s, a path length is 2 (1 in the last bin) steps' length.
    dirs = {}
    for cond, steps in (("a", (1.0, 7.0)), ("b", (1.0, 9.0))):
        dirs[cond] = tmp_path / cond
        dirs[cond].mkdir()
        for k, step in enumerate(steps):
            x = step * np.arange(6)
            _write_traj(dirs[cond] / f"trajectory_p{k}.csv", x, ml=x, si=x, rate=2.0, label=f"p{k}")
    out = tmp_path / "out"
    rc = main(["analyze", "--traj", str(dirs["a"]), "--compare", str(dirs["b"]), "--bins", "0,1,2,3", "--out", str(out)])
    assert rc == 0
    # d is 1/5 in every cell; the diagonal steps of two axes round below it.
    diagonal = "0.19999999999999998"
    rows = [f"{d},{b},{v},2,2" for d, v in (("AP", "0.2"), ("APML", diagonal), ("APSI", diagonal), ("ML", "0.2"),
                                          ("MLSI", diagonal), ("SI", "0.2")) for b in ("early", "mid", "late")]
    assert (out / "cohens_d.csv").read_bytes() == "".join(f"{r}\r\n" for r in ["direction,bin,d,n_a,n_b", *rows]).encode()


def test_analyze_compare_skips_a_cell_whose_pooled_sd_is_zero(tmp_path, caplog):
    # SI never moves, so every SI path length is 0 in both conditions: those
    # cells are skipped with one warning each, and the others are written.
    dirs = {}
    for cond, steps in (("a", (1.0, 7.0)), ("b", (1.0, 9.0))):
        dirs[cond] = tmp_path / cond
        dirs[cond].mkdir()
        for k, step in enumerate(steps):
            x = step * np.arange(6)
            _write_traj(dirs[cond] / f"trajectory_p{k}.csv", x, ml=x, si=np.zeros(6), rate=2.0, label=f"p{k}")
    out = tmp_path / "out"
    rc = main(["analyze", "--traj", str(dirs["a"]), "--compare", str(dirs["b"]), "--bins", "0,1,2,3", "--out", str(out)])
    assert rc == 0
    lines = (out / "cohens_d.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"AP", "APML", "APSI", "ML", "MLSI"}
    assert len(lines) == 1 + 5 * 3
    zero = [r.getMessage() for r in caplog.records if "pooled standard deviation is zero" in r.getMessage()]
    assert [m.split(":")[0] for m in zero] == ["SI/early", "SI/mid", "SI/late"]


def test_analyze_rejects_bad_bins(tmp_path):
    tdir = tmp_path / "traj"
    tdir.mkdir()
    _write_traj(tdir / "trajectory_x.csv", np.zeros(100))
    assert main(["analyze", "--traj", str(tdir), "--bins", "0,20,40", "--out", str(tmp_path / "o")]) == 2
    assert main(["analyze", "--traj", str(tdir), "--bins", "0,zz,40,60", "--out", str(tmp_path / "o")]) == 2


def test_analyze_missing_dir(tmp_path):
    assert main(["analyze", "--traj", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2


def test_analyze_ignores_raw_trajectories(tmp_path):
    tdir = tmp_path / "traj"
    tdir.mkdir()
    _write_traj(tdir / "trajectory_raw_x.csv", np.zeros(100))
    assert main(["analyze", "--traj", str(tdir), "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# agree


def test_agree_self_is_perfect(tmp_path):
    t = np.arange(300) / 30.0
    p = tmp_path / "a.csv"
    _write_traj(p, 5.0 * np.sin(2 * np.pi * 0.3 * t), label="a")
    out = tmp_path / "agree.json"
    assert main(["agree", "--a", str(p), "--b", str(p), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["bias_mm"] == 0.0
    assert rep["loa"] == [0.0, 0.0]
    assert rep["slope"] == pytest.approx(1.0, abs=1e-12)
    assert rep["r2"] == pytest.approx(1.0, abs=1e-12)


def test_agree_tracked_vs_truth(sim_dir, tracked_dir, tmp_path):
    out = tmp_path / "agree.json"
    rc = main(
        ["agree", "--a", str(sim_dir / "trajectory_truth_lumbar.csv"), "--b", str(tracked_dir / "trajectory_lumbar.csv"), "--out", str(out)]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert abs(rep["bias_mm"]) < 0.01
    assert rep["loa"][0] > -0.2 and rep["loa"][1] < 0.2
    assert rep["slope"] == pytest.approx(1.0, abs=0.01)
    assert rep["r2"] > 0.999


def test_agree_axis_flag(tmp_path):
    t = np.arange(300) / 30.0
    p = tmp_path / "a.csv"
    _write_traj(p, np.zeros_like(t), si=2.0 * np.sin(2 * np.pi * 0.4 * t), label="a")
    out = tmp_path / "agree.json"
    assert main(["agree", "--a", str(p), "--b", str(p), "--axis", "SI", "--out", str(out)]) == 0
    # AP axis has zero variance, so selecting it must fail the regression
    assert main(["agree", "--a", str(p), "--b", str(p), "--axis", "AP", "--out", str(out)]) == 1


def test_agree_mismatched_duration_trims(tmp_path, caplog):
    t_long = np.arange(600) / 30.0
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_traj(a, np.sin(t_long), label="a")
    _write_traj(b, np.sin(t_long[:400]), label="b")
    out = tmp_path / "agree.json"
    assert main(["agree", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 400


def test_agree_t0_mismatch_is_config_error(tmp_path):
    t = np.arange(100) / 30.0
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_traj(a, np.sin(t), label="a", t0=0.0)
    _write_traj(b, np.sin(t), label="b", t0=1.0)
    assert main(["agree", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_agree_rejects_non_finite_rate(tmp_path, caplog, rate):
    p = tmp_path / "a.csv"
    _write_traj(p, np.sin(np.arange(100) / 30.0), label="a")
    out = tmp_path / "agree.json"
    assert main(["agree", "--a", str(p), "--b", str(p), "--rate", rate, "--out", str(out)]) == 2
    assert "--rate must be" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("t_sec", ["0.0", "nan"])
def test_agree_refuses_a_timebase_that_does_not_advance(tmp_path, caplog, t_sec):
    p = tmp_path / "trajectory_a.csv"
    p.write_text("t_sec,segment,AP_mm,ML_mm,SI_mm,valid\n" + f"{t_sec},a,1.0,0.0,0.0,1\n" * 20)
    out = tmp_path / "agree.json"
    assert main(["agree", "--a", str(p), "--b", str(p), "--out", str(out)]) == 2
    assert "t_sec step" in caplog.text
    assert not out.exists()


def test_agree_disjoint_validity_fails_compute(tmp_path):
    n = 200
    valid_a = np.zeros(n, bool)
    valid_a[: n // 2] = True
    valid_b = ~valid_a
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_traj(a, np.sin(np.arange(n) / 10.0), valid=valid_a, label="a")
    _write_traj(b, np.sin(np.arange(n) / 10.0), valid=valid_b, label="b")
    assert main(["agree", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "o.json")]) == 1
