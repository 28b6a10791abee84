"""Benchmark of the swaykin chain: track -> analyze -> agree.

Run from the root of the repository:

    python3 bench/run.py --workload features_dense --seed 1 --seconds 30 --trace 0

It makes the workload's inputs from the seed, then drives the program as a
user does, one ``python -m swaykin.cli`` process per command with ``src/``
on the path, for as many whole rounds of the same commands as fit in
``--seconds`` (at least one). It checks every output against computations of
its own and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics. With ``--trace 1`` it
runs one round in this process through ``swaykin.cli.main`` instead, with
every public function of the table in README.md traced, and prints the
per-layer metrics. Exit code 2 means the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_REPEATS = 3
# Every command must end within this, so that a run ends within 180 s.
RUN_DEADLINE_S = 170.0
IMPORT_SAMPLES = 3

import checks  # noqa: E402
import scenes  # noqa: E402
import tracing  # noqa: E402


@dataclass
class Command:
    kind: str  # track, analyze or agree
    argv: list[str]
    recording: scenes.Recording | None = None


def chain(w: scenes.Workload, inputs: Path, out: Path, truth: Path) -> list[Command]:
    """One round: a ``track`` per recording into its condition's directory,
    one ``analyze`` (with ``--compare`` when there are two conditions) and an
    ``agree`` on AP for each lumbar segment against its true trajectory."""
    cmds = [
        Command("track", ["track", "--config", str(inputs / r.name / "track_config.json"), "--out", str(out / r.condition)], r)
        for r in w.recordings
    ]
    conds = w.conditions
    analyze = ["analyze", "--traj", str(out / conds[0])]
    if len(conds) == 2:
        analyze += ["--compare", str(out / conds[1])]
    analyze += ["--bins", ",".join(repr(b) for b in w.bins_s), "--out", str(out / "stats")]
    cmds.append(Command("analyze", analyze))
    for r in w.recordings:
        if "lumbar" in r.targets:
            seg = r.segment("lumbar")
            cmds.append(
                Command(
                    "agree",
                    ["agree", "--a", str(truth / f"trajectory_{seg}.csv"), "--b", str(out / r.condition / f"trajectory_{seg}.csv"),
                     "--axis", "AP", "--rate", repr(r.rate_hz), "--out", str(out / "stats" / f"agree_{seg}.json")],
                )
            )
    return cmds


def observation_counts(w: scenes.Workload, inputs: Path) -> dict[str, np.ndarray]:
    """Observations per frame of each segment, as the program receives them."""
    counts = {}
    for r in w.recordings:
        for t in r.targets:
            seg = r.segment(t)
            if r.frames:
                counts[seg] = np.full(r.n_frames, len(scenes.target_points(t)))
            else:
                frame = np.loadtxt(inputs / r.name / f"features_{seg}.csv", delimiter=",", skiprows=1, usecols=0, ndmin=1)
                counts[seg] = np.bincount(frame.astype(int), minlength=r.n_frames)
    return counts


def failed_segments(w: scenes.Workload, cmds: list[Command], codes: list[int], out: Path, counts: dict) -> dict[str, str]:
    """Segment -> reason, for each operation of a round that failed."""
    failed = {}
    for cmd, code in zip(cmds, codes):
        if cmd.kind != "track":
            continue
        r = cmd.recording
        theta = scenes.poses(r)
        for t in r.targets:
            seg = r.segment(t)
            if code != 0:
                failed[seg] = f"swaykin track exited {code}"
                continue
            why = checks.segment_failure(out / r.condition / f"pose_{seg}.csv", counts[seg], theta[:, 5], r.sigma_px)
            if why:
                failed[seg] = why
    return failed


def verify(w: scenes.Workload, cmds: list[Command], codes: list[int], out: Path, failed: dict[str, str]) -> dict[str, float]:
    """Check a round's outputs and return the accuracy metrics.

    Accuracy covers every segment that ``swaykin track`` wrote, failed or
    not, since a user gets those trajectories; the paper's agreement bounds
    are checked on the segments that did not fail.
    """
    for cmd, code in zip(cmds, codes):
        checks.require(cmd.kind == "track" or code == 0, f"swaykin {cmd.kind} exited {code}")
    written = {c.recording.name for c, code in zip(cmds, codes) if c.kind == "track" and code == 0}
    diffs: dict[str, list] = {"AP": [], "ML": []}
    good: dict[str, list] = {"AP": [], "ML": []}
    tracked_cells: dict[str, dict] = {c: {} for c in w.conditions}
    truth_cells: dict[str, dict] = {c: {} for c in w.conditions}
    tpl_err = tpl_true = 0.0
    for r in w.recordings:
        theta = scenes.poses(r)
        for t in r.targets:
            seg = r.segment(t)
            true = scenes.sway(theta, t)
            true_cells = checks.path_lengths(true, np.ones(len(true), bool), w.bins_s, r.rate_hz)
            truth_cells[r.condition].update({(seg, *k): v for k, v in true_cells.items()})
            if r.name not in written:
                continue
            _, raw_valid = checks.read_trajectory(out / r.condition / f"trajectory_raw_{seg}.csv", seg, r.n_frames, r.rate_hz)
            samples, valid = checks.read_trajectory(out / r.condition / f"trajectory_{seg}.csv", seg, r.n_frames, r.rate_hz)
            checks.require(np.all(valid[raw_valid]), f"trajectory_{seg}.csv: a fitted frame lost its sample")
            cells = checks.path_lengths(samples, valid, w.bins_s, r.rate_hz)
            tracked_cells[r.condition].update({(seg, *k): v for k, v in cells.items()})
            for (direction, label), v in cells.items():
                if direction == "AP":
                    tpl_err += abs(v - true_cells[(direction, label)])
                    tpl_true += true_cells[(direction, label)]
            for axis, col in (("AP", 0), ("ML", 1)):
                d = samples[valid, col] - true[valid, col]
                diffs[axis].append(d)
                if seg not in failed:
                    good[axis].append(d)
            if t == "lumbar":
                checks.check_agreement(out / "stats" / f"agree_{seg}.json", true[:, 0], samples[:, 0], valid)
    checks.require(tpl_true > 0, "no segment was tracked")

    conds = w.conditions
    checks.check_tpl(out / "stats" / "tpl.csv", tracked_cells[conds[0]])
    if len(conds) == 2:
        checks.check_cohens_d(out / "stats" / "cohens_d.csv", tracked_cells[conds[0]], tracked_cells[conds[1]])
        # The true AP path lengths must tell the conditions apart the way
        # their sway amplitudes do.
        amp = {r.condition: r.ap_amplitude_mm for r in w.recordings}
        for label in checks.BIN_LABELS:
            a, b = (np.array([v for (_, d, bn), v in truth_cells[c].items() if (d, bn) == ("AP", label)]) for c in conds)
            checks.require(
                np.sign(checks.cohens_d(a, b)) == np.sign(amp[conds[1]] - amp[conds[0]]),
                f"true AP path length, bin {label}: Cohen's d has the wrong sign",
            )
    if w.paper_agreement:
        for axis in ("AP", "ML"):
            if good[axis]:
                checks.check_paper_agreement(good[axis], axis, w.recordings[0].rate_hz)
    return {
        "ap_loa_halfwidth_mm": 1.96 * float(np.std(np.concatenate(diffs["AP"]), ddof=1)),
        "ml_loa_halfwidth_mm": 1.96 * float(np.std(np.concatenate(diffs["ML"]), ddof=1)),
        "tpl_rel_err": tpl_err / tpl_true,
    }


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_kb(pid: int) -> int:
    """High-water resident set of a running process (0 once it has exited).

    The kernel's rusage of a child also holds the RSS of the parent it was
    forked from, which here would be the benchmark's own; VmHWM counts only
    what the program used after it started."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_command(cmd: Command, env: dict, logs: Path, timeout: float) -> tuple[int, float, int]:
    """Run one ``swaykin`` command in its own interpreter; (exit code, wall
    s, peak RSS kB)."""
    argv = [sys.executable, "-m", "swaykin.cli", *cmd.argv]
    with open(logs / "stdout.txt", "a") as so, open(logs / "stderr.txt", "a") as se:
        se.write(f"$ swaykin {' '.join(cmd.argv)}\n")
        se.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=so, stderr=se)
        peak = 0
        try:
            while proc.poll() is None:
                peak = max(peak, peak_rss_kb(proc.pid))
                if time.perf_counter() - t0 > timeout:
                    proc.kill()
                time.sleep(0.01)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return proc.returncode, time.perf_counter() - t0, peak


def timed(w: scenes.Workload, work: Path, seconds: float, started: float) -> tuple[dict, list[dict[str, str]], list, list]:
    """Whole rounds of the chain, each command in its own process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    inputs, truth = work / "inputs", work / "truth"
    counts = observation_counts(w, inputs)
    rounds, fails = [], []
    peak_kb = 0
    t_begin = time.perf_counter()
    while True:
        out = fresh(work / "out")
        cmds = chain(w, inputs, out, truth)
        codes, walls = [], []
        for cmd in cmds:
            code, wall, rss_kb = run_command(cmd, env, work, RUN_DEADLINE_S - (time.perf_counter() - started))
            peak_kb = max(peak_kb, rss_kb)
            codes.append(code)
            walls.append(wall)
        rounds.append((cmds, codes, walls))
        fails.append(failed_segments(w, cmds, codes, out, counts))
        elapsed = time.perf_counter() - t_begin
        round_s = elapsed / len(rounds)
        if elapsed + round_s > seconds or time.perf_counter() - started + round_s > RUN_DEADLINE_S - 30.0:
            break
    frames = [sum(c.recording.n_frames * len(c.recording.targets) for c in cmds if c.kind == "track") for cmds, _, _ in rounds]
    metrics = {
        "chain_s": statistics.median(sum(walls) for _, _, walls in rounds),
        "track_fps": statistics.median(
            n / sum(wl for c, wl in zip(cmds, walls) if c.kind == "track") for n, (cmds, _, walls) in zip(frames, rounds)
        ),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    cmds, codes, _ = rounds[-1]
    return metrics, fails, cmds, codes


# ---------------------------------------------------------------------------
# Traced run

CHAIN_LAYERS = {
    "pose": ("track_sequence", "fit_pose", "initialize_first_frame"),
    "camera": ("undistort_point", "undistort_frame"),
    "features": ("detect_refined", "corner_likelihood", "detect_features", "refine_subpixel", "bootstrap_correspondence", "match_features"),
    "fileio": ("read_pgm", "load_features_csv", "load_target", "load_trajectory_csv"),
    "target": ("validate_asymmetry", "virtual_point"),
    "anatomy": ("interpolate_gaps", "savitzky_golay", "resample_linear"),
    "metrics": ("total_path_length", "cohens_d", "bland_altman"),
}
SETUP_LAYERS = {"synth": ("render_observations", "render_frame"), "fileio": ("write_pgm",)}
END_TO_END_UNITS = {
    "setup_s": "s", "chain_s": "s", "track_fps": "frames/s", "peak_rss_mb": "MB",
    "ap_loa_halfwidth_mm": "mm", "ml_loa_halfwidth_mm": "mm", "tpl_rel_err": "ratio",
}

def import_seconds(env: dict) -> float:
    """Median wall time of ``import swaykin.cli`` in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import swaykin.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced(w: scenes.Workload, work: Path) -> tuple[dict, dict[str, str], list, list, tracing.Tracer]:
    """One set-up and one round in this process, every layer traced."""
    from swaykin import cli, fileio

    modules = {name: importlib.import_module(f"swaykin.{name}") for name in CHAIN_LAYERS.keys() | SETUP_LAYERS.keys()}
    tr = tracing.Tracer(keep_results=frozenset({"pose.fit_pose", "pose.track_sequence", "features.detect_features"}))

    inputs, truth = fresh(work / "inputs"), work / "truth"
    for mod, names in SETUP_LAYERS.items():
        for n in names:
            tr.wrap(modules[mod], n)
    with tr.span("setup"):
        scenes.write_inputs(w, inputs)
    tr.unwrap_all()
    scenes.write_truth(w, truth)

    for mod, names in CHAIN_LAYERS.items():
        for n in names:
            tr.wrap(modules[mod], n)
    for n in sorted(vars(fileio)):
        if n.startswith("save_"):
            tr.wrap(fileio, n)
    out = fresh(work / "out")
    cmds = chain(w, inputs, out, truth)
    codes = []
    try:
        with open(work / "stdout.txt", "w") as log, contextlib.redirect_stdout(log):
            for cmd in cmds:
                with tr.span(f"cli.{cmd.kind}"):
                    try:
                        code = cli.main(cmd.argv)
                    except Exception:
                        traceback.print_exc()
                        code = 1
                codes.append(code)
    finally:
        tr.unwrap_all()
    fails = failed_segments(w, cmds, codes, out, observation_counts(w, inputs))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    s = tr.summary()

    def total(name: str, key: str = "total_s") -> float:
        return float(s.get(name, {}).get(key, 0.0))

    fits = [rep for _, rep in tr.results("pose.fit_pose")]
    m = {
        "pose.track_sequence_s": total("pose.track_sequence"),
        "pose.fit_pose_s": total("pose.fit_pose"),
        "pose.fit_pose_calls": total("pose.fit_pose", "calls"),
        "pose.lm_iterations": float(sum(r.iterations for r in fits)),
        "pose.converged_fits": float(sum(bool(r.converged) for r in fits)),
        "pose.initialize_first_frame_s": total("pose.initialize_first_frame"),
        "pose.smoother_s": total("pose.track_sequence", "self_s"),
        "camera.undistort_point_s": total("camera.undistort_point"),
        "camera.undistort_point_calls": total("camera.undistort_point", "calls"),
        "camera.undistort_frame_s": total("camera.undistort_frame"),
        "features.corner_likelihood_s": total("features.corner_likelihood"),
        "features.detect_features_s": total("features.detect_features"),
        "features.detections": float(sum(len(d) for _, d in tr.results("features.detect_features"))),
        "features.refine_subpixel_s": total("features.refine_subpixel"),
        "features.refine_subpixel_calls": total("features.refine_subpixel", "calls"),
        "features.bootstrap_correspondence_s": total("features.bootstrap_correspondence"),
        "features.bootstrap_correspondence_calls": total("features.bootstrap_correspondence", "calls"),
        "features.bootstrap_correspondence_failed": total("features.bootstrap_correspondence", "failed"),
        "features.match_features_s": total("features.match_features"),
        "fileio.read_pgm_s": total("fileio.read_pgm"),
        "fileio.load_features_csv_s": total("fileio.load_features_csv"),
        "fileio.load_target_s": total("fileio.load_target"),
        "fileio.load_target_self_s": total("fileio.load_target", "self_s"),
        "fileio.save_s": sum(v["total_s"] for k, v in s.items() if k.startswith("fileio.save_")),
        "fileio.load_trajectory_csv_s": total("fileio.load_trajectory_csv"),
        "fileio.write_pgm_s": total("fileio.write_pgm"),
        "target.validate_asymmetry_s": total("target.validate_asymmetry"),
        "target.validate_asymmetry_calls": total("target.validate_asymmetry", "calls"),
        "target.virtual_point_s": total("target.virtual_point"),
        "target.virtual_point_calls": total("target.virtual_point", "calls"),
        "anatomy.interpolate_gaps_s": total("anatomy.interpolate_gaps"),
        "anatomy.savitzky_golay_s": total("anatomy.savitzky_golay"),
        "anatomy.resample_linear_s": total("anatomy.resample_linear"),
        "metrics.total_path_length_s": total("metrics.total_path_length"),
        "metrics.total_path_length_calls": total("metrics.total_path_length", "calls"),
        "metrics.cohens_d_s": total("metrics.cohens_d"),
        "metrics.bland_altman_s": total("metrics.bland_altman"),
        "cli.import_s": import_seconds(env),
        "cli.invocations": float(len(cmds)),
        "synth.render_observations_s": total("synth.render_observations"),
        "synth.render_frame_s": total("synth.render_frame"),
    }
    for kind in ("track", "analyze", "agree"):
        m[f"cli.{kind}_s"] = total(f"cli.{kind}")
        m[f"cli.{kind}_self_s"] = total(f"cli.{kind}", "self_s")
    return m, fails, cmds, codes, tr


def verify_detections(w: scenes.Workload, tr: tracing.Tracer) -> None:
    """Image path: the matched detections each frames segment's
    track_sequence call received, in the order the segments were tracked."""
    calls = tr.results("pose.track_sequence")
    segments = [(r, t) for r in w.recordings for t in r.targets]
    checks.require(len(calls) == len(segments), f"{len(calls)} track_sequence calls for {len(segments)} segments")
    for (r, t), (args, _) in zip(segments, calls):
        if r.frames:
            checks.check_detections(args[0], scenes.pixels(scenes.poses(r), t, r.center_px))


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()
    # Turn a termination request into SystemExit, so that run_command kills
    # and reaps the command it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "swaykin" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'swaykin'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swaykin.cli  # noqa: F401  (imported before set-up is timed)

    w = scenes.workload(args.workload, args.seed)
    work = fresh(WORK / w.name)
    if args.trace:
        metrics, fail, cmds, codes, tr = traced(w, work)
        fails = [fail]
    else:
        setup = []
        for _ in range(SETUP_REPEATS):
            inputs = fresh(work / "inputs")
            t0 = time.perf_counter()
            scenes.write_inputs(w, inputs)
            setup.append(time.perf_counter() - t0)
        scenes.write_truth(w, work / "truth")
        metrics, fails, cmds, codes = timed(w, work, args.seconds, started)
        metrics["setup_s"] = statistics.median(setup)
    correct = True
    try:
        accuracy = verify(w, cmds, codes, work / "out", fails[-1])
        if args.trace:
            verify_detections(w, tr)
    except checks.CheckError as e:
        print(f"bench: check failed: {e}", file=sys.stderr)
        correct = False
        accuracy = {}
    for seg, why in sorted(fails[-1].items()):
        print(f"bench: operation {seg} failed: {why}", file=sys.stderr)
    if args.trace:
        tr.write(work / "spans.csv")
        summary = tr.summary()
        for name in sorted(summary):
            row = summary[name]
            print(f"{name:40s} {row['calls']:8.0f} calls {row['total_s']:9.3f} s total {row['self_s']:9.3f} s self", file=sys.stderr)
        units = {n: ("s" if n.endswith("_s") else "count") for n in metrics}
    else:
        metrics.update(accuracy)
        units = END_TO_END_UNITS
    ops = sum(len(r.targets) for r in w.recordings)
    result = {
        "correct": correct,
        "attempted": ops * len(fails),
        "failed": sum(len(f) for f in fails),
        "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
