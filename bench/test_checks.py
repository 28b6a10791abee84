"""The benchmark's checks reject wrong outputs and accept right ones.

Run from the root of the repository:

    python3 -m pytest bench/test_checks.py -q

A small two-condition workload (two 5 s recordings, two targets each) goes
through ``swaykin.cli.main`` once; each test then alters one output and
expects the check that covers it to refuse it.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402

RECORDINGS = tuple(
    scenes.Recording(f"t{cond}", sway, sway + 50, 5.0, amp, ("lumbar", "shoulder"), 0.2, 0.01, distorted=True, condition=cond)
    for cond, sway, amp in (("A", 3, 10.0), ("B", 4, 16.0))
)
WORKLOAD = scenes.Workload("small", RECORDINGS, scenes._thirds(5.0), paper_agreement=True)


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """Inputs, truth and one round of outputs of the small workload."""
    from swaykin import cli

    work = tmp_path_factory.mktemp("work")
    scenes.write_inputs(WORKLOAD, work / "inputs")
    scenes.write_truth(WORKLOAD, work / "truth")
    cmds = run.chain(WORKLOAD, work / "inputs", work / "out", work / "truth")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(c.argv) for c in cmds]
    assert codes == [0] * len(cmds)
    return work, cmds, codes


@pytest.fixture
def work(chain_dir, tmp_path):
    """A private copy of the outputs, free to alter."""
    src, cmds, codes = chain_dir
    shutil.copytree(src, tmp_path / "w")
    w = tmp_path / "w"
    cmds = run.chain(WORKLOAD, w / "inputs", w / "out", w / "truth")
    return w, cmds, codes


def verify(w: Path, cmds, codes) -> tuple[dict, dict]:
    counts = run.observation_counts(WORKLOAD, w / "inputs")
    failed = run.failed_segments(WORKLOAD, cmds, codes, w / "out", counts)
    return failed, run.verify(WORKLOAD, cmds, codes, w / "out", failed)


def rewrite_csv(path: Path, column: str, change) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    rows = [line.split(",") for line in lines[1:]]
    change(rows, col)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def test_right_outputs_pass(work):
    failed, acc = verify(*work)
    assert failed == {}
    assert 0 < acc["ap_loa_halfwidth_mm"] < 0.52
    assert 0 < acc["tpl_rel_err"] < 0.1


def test_trajectory_shifted_by_1mm_is_refused(work):
    w = work[0]

    def shift(rows, col):
        for r in rows:
            r[col] = repr(float(r[col]) + 1.0)

    rewrite_csv(w / "out" / "A" / "trajectory_tA_lumbar.csv", "AP_mm", shift)
    with pytest.raises(checks.CheckError, match="agree_tA_lumbar|limits of agreement|bias"):
        verify(*work)


def test_altered_tpl_cell_is_refused(work):
    w = work[0]

    def bump(rows, col):
        rows[4][col] = repr(float(rows[4][col]) * (1 + 1e-6))

    rewrite_csv(w / "out" / "stats" / "tpl.csv", "tpl_mm", bump)
    with pytest.raises(checks.CheckError, match="tpl.csv"):
        verify(*work)


def test_missing_tpl_cell_is_refused(work):
    w = work[0]
    rewrite_csv(w / "out" / "stats" / "tpl.csv", "tpl_mm", lambda rows, col: rows.pop(0))
    with pytest.raises(checks.CheckError, match="tpl.csv"):
        verify(*work)


def test_altered_cohens_d_is_refused(work):
    w = work[0]

    def negate(rows, col):
        rows[0][col] = repr(-float(rows[0][col]))

    rewrite_csv(w / "out" / "stats" / "cohens_d.csv", "d", negate)
    with pytest.raises(checks.CheckError, match="cohens_d.csv"):
        verify(*work)


@pytest.mark.parametrize("key,index", [("bias_mm", None), ("loa", 1), ("slope", None), ("r2", None), ("n", None)])
def test_altered_agreement_report_is_refused(work, key, index):
    path = work[0] / "out" / "stats" / "agree_tB_lumbar.json"
    doc = json.loads(path.read_text())
    if index is None:
        doc[key] = doc[key] + (1 if key == "n" else 1e-6)
    else:
        doc[key][index] += 1e-6
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match="agree_tB_lumbar"):
        verify(*work)


def test_trajectory_missing_a_row_is_refused(work):
    w = work[0]
    rewrite_csv(w / "out" / "B" / "trajectory_tB_shoulder.csv", "t_sec", lambda rows, col: rows.pop())
    with pytest.raises(checks.CheckError, match="rows for"):
        verify(*work)


def test_gap_on_a_fittable_frame_fails_the_segment(work):
    w = work[0]

    def gap(rows, col):
        rows[7][col] = "gap"
        rows[7][col + 1 :] = [""] * (len(rows[7]) - col - 1)

    rewrite_csv(w / "out" / "A" / "pose_tA_shoulder.csv", "status", gap)
    failed, _ = verify(*work)
    assert list(failed) == ["tA_shoulder"]
    assert "gaps" in failed["tA_shoulder"]


def test_unsmoothed_depth_fails_the_segment(work):
    w = work[0]
    rng = np.random.default_rng(0)

    def jitter(rows, col):
        for r in rows:
            r[col] = repr(float(r[col]) + float(rng.normal(0.0, 1.0)))

    rewrite_csv(w / "out" / "B" / "pose_tB_lumbar.csv", "theta6", jitter)
    failed, _ = verify(*work)
    assert list(failed) == ["tB_lumbar"]
    assert "per-frame fits" in failed["tB_lumbar"]


def test_paper_agreement_refuses_bias_and_spread():
    rng = np.random.default_rng(1)
    d = [rng.normal(0.0, 0.1, 900) for _ in range(4)]
    checks.check_paper_agreement(d, "AP", 30.0)
    with pytest.raises(checks.CheckError, match="limits of agreement"):
        checks.check_paper_agreement([x + 1.0 for x in d], "AP", 30.0)
    with pytest.raises(checks.CheckError, match="standard errors"):
        checks.check_paper_agreement([x + 0.1 for x in d], "AP", 30.0)
    with pytest.raises(checks.CheckError, match="limits of agreement"):
        checks.check_paper_agreement([3 * x for x in d], "AP", 30.0)


def test_detections_off_their_junction_are_refused():
    from swaykin.features import FeatureObservation

    rec = RECORDINGS[0]
    px = scenes.pixels(scenes.poses(rec), "lumbar", rec.center_px)[:3]
    frames = [[FeatureObservation(p + 0.01, 1.0, i) for i, p in enumerate(row)] for row in px]
    checks.check_detections(frames, px)
    shifted = [list(f) for f in frames]
    shifted[1][5] = FeatureObservation(px[1, 5] + [0.5, 0.0], 1.0, 5)
    with pytest.raises(checks.CheckError, match="frame 1 junction 5"):
        checks.check_detections(shifted, px)
    with pytest.raises(checks.CheckError, match="matched junctions"):
        checks.check_detections([frames[0], frames[1][:-1], frames[2]], px)


def test_truth_matches_the_programs_pose_to_sway_mapping():
    """The benchmark's own rigid-body math agrees with the program's on the
    same poses, so truth and tracked sway are in the same frame."""
    from swaykin import anatomy, camera, pose, target

    theta = scenes.poses(RECORDINGS[1])[::10]
    base = camera.RigidTransform(scenes.rotation(scenes.BASE_POSE[:3]), scenes.BASE_POSE[3:])
    frame = anatomy.AnatomicalFrame.from_transform(base)
    for tname in ("lumbar", "shoulder"):
        p = np.stack([target.virtual_point(pose.KinematicParams.from_array(t), scenes.tracked_point(tname)) for t in theta])
        program = anatomy.anatomical_from_board(anatomy.to_anatomical(frame, p))
        np.testing.assert_allclose(scenes.sway(theta, tname), program, atol=1e-9)
