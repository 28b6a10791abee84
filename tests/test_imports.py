"""What the package exports, and which scipy modules a command loads.

A command imports only what it calls: ``import swaykin.cli`` and the
``analyze`` and ``agree`` commands need no scipy, and ``track``, on feature
CSVs or on frames, loads no scipy package: the smoother loads scipy's LAPACK
extension from its file and keeps it out of ``sys.modules``. Each case runs
in a fresh interpreter, so modules that other tests imported cannot hide a
top-level import.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import swaykin
from swaykin import SwayTrajectory, fileio
from swaykin.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the CLI, runs each command of argv[2] (a JSON list of argument
# lists) and writes, to argv[3], the scipy modules loaded after the import
# and after each command.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import swaykin, swaykin.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
steps = [scipy_modules()]
for argv in json.loads(sys.argv[2]):
    if swaykin.cli.main(argv) != 0:
        raise SystemExit(f"command failed: {argv}")
    steps.append(scipy_modules())
with open(sys.argv[3], "w") as f:
    f.write(json.dumps(steps))
"""


def _scipy_modules_after(tmp_path, *commands):
    report = tmp_path / "modules.json"
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), json.dumps(commands), str(report)],
        check=True, timeout=120, capture_output=True,
    )
    return json.loads(report.read_text())


def _write_traj(path, label):
    t = np.arange(300) / 30.0
    samples = np.column_stack([5.0 * np.sin(2 * np.pi * 0.3 * t), np.zeros((300, 2))])
    fileio.save_trajectory_csv(
        path, SwayTrajectory(sample_rate_hz=30.0, label=label, samples=samples, valid=np.ones(300, bool))
    )


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert _scipy_modules_after(tmp_path) == [[]]


def test_analyze_and_agree_load_no_scipy(tmp_path):
    tdir = tmp_path / "traj"
    tdir.mkdir()
    for label in ("p01", "p02"):
        _write_traj(tdir / f"trajectory_{label}.csv", label)
    a = tdir / "trajectory_p01.csv"
    steps = _scipy_modules_after(
        tmp_path,
        ["analyze", "--traj", str(tdir), "--out", str(tmp_path / "out")],
        ["agree", "--a", str(a), "--b", str(a), "--out", str(tmp_path / "agree.json")],
    )
    assert steps == [[], [], []]


def test_feature_csv_track_loads_only_scipy_linalg(tmp_path):
    # With noise, so the smoother runs. It loads LAPACK without scipy.linalg
    # and leaves no scipy module behind.
    scenario = {
        "duration_sec": 2.0,
        "rate_hz": 30.0,
        "seed": 3,
        "noise": {"sigma_px": 0.2, "dropout": 0.0},
        "targets": ["lumbar"],
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "sim")]) == 0
    steps = _scipy_modules_after(
        tmp_path, ["track", "--config", str(tmp_path / "sim" / "track_config.json"), "--out", str(tmp_path / "out")]
    )
    assert steps == [[], []]


# Loads the smoother's LAPACK, then imports scipy.linalg, and writes to argv[2]
# the scipy modules left by the load, whether scipy.linalg has its _flapack
# attribute, and whether scipy.linalg.lapack exports the same dpbsv.
_LAPACK_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from swaykin import pose
lapack = pose._lapack()
left = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import scipy.linalg
with open(sys.argv[2], "w") as f:
    f.write(json.dumps([left, hasattr(scipy.linalg, "_flapack"), scipy.linalg.lapack.dpbsv is lapack.dpbsv]))
"""


def test_smoother_lapack_leaves_scipy_linalg_to_import_as_usual(tmp_path):
    report = tmp_path / "lapack.json"
    subprocess.run(
        [sys.executable, "-c", _LAPACK_PROBE, str(SRC), str(report)], check=True, timeout=120, capture_output=True
    )
    assert json.loads(report.read_text()) == [[], True, True]


# Runs one command of argv[2] (a JSON argument list) and writes, to argv[3],
# whether the thread pool's module is loaded and how many threads are alive.
_THREAD_PROBE = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
import swaykin.cli
if swaykin.cli.main(json.loads(sys.argv[2])) != 0:
    raise SystemExit("command failed")
with open(sys.argv[3], "w") as f:
    f.write(json.dumps(["concurrent.futures.thread" in sys.modules, threading.active_count()]))
"""


def test_feature_csv_track_starts_no_thread_pool(tmp_path):
    # The image path's row-band threads start only inside an image call, and
    # their ThreadPoolExecutor lives in concurrent.futures.thread.
    scenario = {"duration_sec": 1.0, "rate_hz": 30.0, "seed": 3, "noise": {"sigma_px": 0.2, "dropout": 0.0}, "targets": ["lumbar"]}
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "sim")]) == 0
    argv = ["track", "--config", str(tmp_path / "sim" / "track_config.json"), "--out", str(tmp_path / "out")]
    report = tmp_path / "threads.json"
    subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, str(SRC), json.dumps(argv), str(report)],
        check=True, timeout=120, capture_output=True,
    )
    assert json.loads(report.read_text()) == [False, 1]


def test_frames_track_leaves_no_thread_running(tmp_path):
    # Each image call joins its row-band threads before it returns. k1 makes
    # the frames path undistort as well as detect.
    scenario = {
        "duration_sec": 0.3,
        "rate_hz": 10.0,
        "seed": 3,
        "noise": {"sigma_px": 0.0, "dropout": 0.0},
        "intrinsics": {"fx": 2000, "fy": 2000, "x0": 160, "y0": 160, "k1": -0.05},
        "image_size": [320, 320],
        "targets": ["lumbar"],
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(sim), "--render-frames"]) == 0
    argv = ["track", "--config", str(sim / "track_config.json"), "--frames", str(sim / "frames_lumbar")]
    argv += ["--out", str(tmp_path / "out")]
    report = tmp_path / "threads.json"
    subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, str(SRC), json.dumps(argv), str(report)],
        check=True, timeout=120, capture_output=True,
    )
    assert json.loads(report.read_text()) == [True, 1]


def test_frames_track_loads_no_scipy_spatial(tmp_path):
    # Acquiring the target on frames labels its junctions without a convex
    # hull, and the detector and the remap filter in numpy.
    scenario = {
        "duration_sec": 0.2,
        "rate_hz": 10.0,
        "seed": 3,
        "noise": {"sigma_px": 0.0, "dropout": 0.0},
        "intrinsics": {"fx": 2000, "fy": 2000, "x0": 160, "y0": 160},
        "image_size": [320, 320],
        "targets": ["lumbar"],
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(sim), "--render-frames"]) == 0
    argv = ["track", "--config", str(sim / "track_config.json"), "--frames", str(sim / "frames_lumbar")]
    steps = _scipy_modules_after(tmp_path, argv + ["--out", str(tmp_path / "out")])
    for name in ("scipy.ndimage", "scipy.optimize", "scipy.spatial"):
        assert not [m for m in steps[1] if m == name or m.startswith(name + ".")], name


def test_all_is_what_the_package_imports():
    tree = ast.parse((SRC / "swaykin" / "__init__.py").read_text())
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(swaykin.__all__) == sorted(imported)
