"""Batch command-line front end.

Subcommands wire the library into the standard workflows: ``calibrate``
(checkerboard views to intrinsics), ``simulate`` (synthetic scenario to
features/frames plus ground truth), ``track`` (frames or feature CSVs to
anatomical sway trajectories), ``analyze`` (trajectories to path-length
tables, optionally with an effect-size comparison), and ``agree``
(Bland-Altman report for two trajectory files).

Exit codes: 0 success, 1 computational failure, 2 usage or config error.
Every command is deterministic given its config and seeds.
"""
from __future__ import annotations

import argparse
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from swaykin import anatomy, camera, features, fileio, metrics, pose, synth, target

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

DEFAULT_FILTER = {"window_sec": 0.5, "order": 2}
DEFAULT_MAX_GAP_SEC = 0.2


class ConfigError(RuntimeError):
    """Bad or missing configuration; maps to exit code 2."""


# Algorithmic failures on well-formed input; map to exit code 1.
_COMPUTE_ERRORS = (
    camera.CalibrationError,
    camera.DegenerateGeometryError,
    camera.BehindCameraError,
    camera.DistortionInversionError,
    pose.TrackingError,
    pose.GimbalLockError,
    target.AmbiguousTargetError,
    features.LatticeMatchError,
    features.InsufficientCorrespondenceError,
    features.NoGradientError,
    ValueError,
)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _load_json(path: str | Path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: expected a JSON object")
    return doc


def _resolve(base: Path, value: str) -> Path:
    """Resolve a config-referenced path relative to the config's directory."""
    p = Path(value)
    return p if p.is_absolute() else base / p


def _load_data(loader, path: Path, what: str):
    """Run a fileio loader, converting parse problems into config errors.

    Target-geometry rejection stays computational: the file parsed fine, the
    math refused it.
    """
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return loader(path)
    except target.AmbiguousTargetError:
        raise
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{what} file {path}: {e}") from e


def _require(cfg: dict, key: str, what: str):
    if key not in cfg:
        raise ConfigError(f"{what} is missing required key '{key}'")
    return cfg[key]


def _positive_rate(value) -> float:
    rate = float(value)
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate}")
    return rate


def _parallel_map(fn, items, jobs: int) -> list:
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(fn, items))
    return [fn(it) for it in items]


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def cmd_calibrate(args: argparse.Namespace) -> int:
    board = _load_json(args.board)
    try:
        rows = int(_require(board, "rows", "board descriptor"))
        cols = int(_require(board, "cols", "board descriptor"))
        pitch = float(_require(board, "square_size_mm", "board descriptor"))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"board descriptor {args.board}: {e}") from e
    if rows < 2 or cols < 2 or pitch <= 0:
        raise ConfigError("board needs rows >= 2, cols >= 2 and positive square_size_mm")

    frames_dir = Path(args.frames)
    if not frames_dir.is_dir():
        raise ConfigError(f"frames directory not found: {frames_dir}")
    paths = sorted(frames_dir.glob("*.pgm"))
    if not paths:
        raise ConfigError(f"no .pgm frames in {frames_dir}")

    # Row-major node order matching order_checkerboard_corners.
    jj, ii = np.meshgrid(np.arange(cols, dtype=float), np.arange(rows, dtype=float))
    board_xy = pitch * np.column_stack([jj.ravel(), ii.ravel()])

    views = []
    for p in paths:
        img = _load_data(fileio.read_pgm, p, "frame")
        dets = features.detect_refined(img)
        if len(dets) != rows * cols:
            raise camera.CalibrationError(
                f"view {p.name}: detected {len(dets)} corners, expected {rows * cols}"
            )
        pts = np.stack([d.position for d in dets])
        views.append(features.order_checkerboard_corners(pts, rows, cols))
        logger.info("view %s: %d corners", p.name, len(dets))

    result = camera.calibrate(views, board_xy)
    fileio.save_intrinsics(args.out, result.intrinsics, rms_px=result.rms_px)
    print(
        f"calibrated from {len(views)} views: fx={result.intrinsics.fx:.2f} "
        f"fy={result.intrinsics.fy:.2f} RMS={result.rms_px:.4f} px -> {args.out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _profile_from_scenario(sc: dict) -> synth.SwayProfile:
    kwargs = {}
    for key in (
        "duration_sec",
        "rate_hz",
        "translation_amplitude_mm",
        "translation_freq_hz",
        "rotation_amplitude_rad",
        "rotation_freq_hz",
        "seed",
    ):
        if key in sc:
            value = sc[key]
            kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return synth.SwayProfile(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"scenario profile: {e}") from e


def _intrinsics_from_scenario(sc: dict, base: Path) -> camera.CameraIntrinsics:
    spec = sc.get("intrinsics")
    if spec is None:
        return synth.DEFAULT_INTRINSICS
    if isinstance(spec, str):
        return _load_data(fileio.load_intrinsics, _resolve(base, spec), "intrinsics")
    try:
        return camera.CameraIntrinsics(**spec)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"scenario intrinsics: {e}") from e


def _targets_from_scenario(sc: dict, base: Path) -> list[tuple[str, target.GeometricTargetModel]]:
    out = []
    for entry in sc.get("targets", ["lumbar"]):
        if isinstance(entry, str):
            try:
                out.append((entry, target.default_target(entry)))
            except (KeyError, ValueError) as e:
                raise ConfigError(f"scenario target '{entry}': {e}") from e
        else:
            name = _require(entry, "segment", "scenario target entry")
            model = _load_data(
                fileio.load_target,
                _resolve(base, _require(entry, "file", "scenario target entry")),
                "target",
            )
            out.append((name, model))
    if not out:
        raise ConfigError("scenario lists no targets")
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    sc = _load_json(args.scenario)
    base = Path(args.scenario).parent
    profile = _profile_from_scenario(sc)
    try:
        noise = synth.NoiseSpec(**sc.get("noise", {}))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"scenario noise: {e}") from e
    intr = _intrinsics_from_scenario(sc, base)
    targets = _targets_from_scenario(sc, base)
    if "base_pose" in sc:
        try:
            base_pose = pose.KinematicParams(*sc["base_pose"])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"scenario base_pose: {e}") from e
    else:
        base_pose = synth.DEFAULT_BASE_POSE
    image_size = tuple(sc.get("image_size", synth.DEFAULT_IMAGE_SIZE))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    theta = synth.generate_trajectory(profile, base_pose)
    M0 = pose.motion_matrix(base_pose)
    board_T = camera.RigidTransform(M0[:3, :3], M0[:3, 3])
    frame = anatomy.AnatomicalFrame.from_transform(board_T)

    fileio.save_intrinsics(out / "intrinsics.json", intr)
    fileio.save_extrinsics(out / "extrinsics.json", board_T)
    fileio.save_theta_csv(out / "truth_theta.csv", theta, profile.rate_hz)

    track_cfg: dict = {
        "rate_hz": profile.rate_hz,
        "intrinsics": "intrinsics.json",
        "extrinsics": "extrinsics.json",
        "targets": [],
        "features": {},
    }

    def run_target(item: tuple[int, str, target.GeometricTargetModel]) -> str:
        i, name, model = item
        fileio.save_target(out / f"target_{name}.json", model)
        # Independent corruption stream per target.
        tnoise = synth.NoiseSpec(noise.sigma_px, noise.dropout, noise.seed + i)
        obs = synth.render_observations(theta, model, intr, tnoise)
        fileio.save_features_csv(out / f"features_{name}.csv", obs)

        sway = anatomy.sway_from_poses(theta, model.virtual_offset, frame)
        truth = anatomy.SwayTrajectory(
            sample_rate_hz=profile.rate_hz,
            label=name,
            samples=sway,
            valid=np.ones(len(sway), dtype=bool),
        )
        fileio.save_trajectory_csv(out / f"trajectory_truth_{name}.csv", truth)

        if args.render_frames:
            fdir = out / f"frames_{name}"
            fdir.mkdir(exist_ok=True)
            for k, row in enumerate(theta):
                img = synth.render_frame(
                    pose.KinematicParams.from_array(row), model, intr, image_size
                )
                fileio.write_pgm(fdir / f"frame_{k:06d}.pgm", img)
        return name

    items = [(i, name, model) for i, (name, model) in enumerate(targets)]
    names = _parallel_map(run_target, items, args.jobs)
    for name in names:
        track_cfg["targets"].append({"segment": name, "file": f"target_{name}.json"})
        track_cfg["features"][name] = f"features_{name}.csv"
        if args.render_frames:
            track_cfg.setdefault("frames", {})[name] = f"frames_{name}"
    (out / "track_config.json").write_text(json.dumps(track_cfg, indent=2) + "\n")

    print(
        f"simulated {profile.n_frames} frames at {profile.rate_hz:g} Hz for "
        f"{len(targets)} target(s) -> {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def _ingest_features_csv(path: Path, intr: camera.CameraIntrinsics) -> list[list[features.FeatureObservation]]:
    frames = _load_data(fileio.load_features_csv, path, "features")
    if not intr.has_distortion or not any(frames):
        return frames
    # The whole recording in one call, handed back frame by frame.
    ideal = iter(camera.undistort_point(intr, np.stack([o.position for obs in frames for o in obs])))
    return [
        [features.FeatureObservation(next(ideal), o.score, o.model_index) for o in obs]
        for obs in frames
    ]


def _ingest_frames_dir(
    dirpath: Path,
    model: target.GeometricTargetModel,
    intr: camera.CameraIntrinsics,
    detector: dict,
) -> list[list[features.FeatureObservation]]:
    """Read a directory's PGM frames in name order, one at a time, into
    :func:`features.detect_sequence`."""
    if not dirpath.is_dir():
        raise ConfigError(f"frames directory not found: {dirpath}")
    paths = sorted(dirpath.glob("*.pgm"))
    if not paths:
        raise ConfigError(f"no .pgm frames in {dirpath}")
    frames = ((f"{dirpath.name}/{p.name}", _load_data(fileio.read_pgm, p, "frame")) for p in paths)
    return features.detect_sequence(frames, model.points, intr, **detector)


def _trajectory_from_track(
    track: pose.PoseTrack,
    model: target.GeometricTargetModel,
    frame: anatomy.AnatomicalFrame,
    segment: str,
) -> anatomy.SwayTrajectory:
    valid = np.array([rep is not None for rep in track.reports], dtype=bool)
    theta = np.array([rep.theta.as_array() for rep in track.reports if rep is not None])
    samples = np.zeros((track.n_frames, 3))
    samples[valid] = anatomy.sway_from_poses(theta, model.virtual_offset, frame)
    return anatomy.SwayTrajectory(
        sample_rate_hz=track.rate_hz, label=segment, samples=samples, valid=valid
    )


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    if args.frames is not None:  # flags win over config, including its features mapping
        cfg["frames"] = args.frames
        cfg.pop("features", None)
        base_frames = Path.cwd()
    else:
        base_frames = base
    if args.rate is not None:
        cfg["rate_hz"] = args.rate

    rate = _positive_rate(cfg.get("rate_hz", 30.0))
    intr = _load_data(
        fileio.load_intrinsics, _resolve(base, _require(cfg, "intrinsics", "track config")), "intrinsics"
    )
    if "extrinsics" in cfg:
        board_T = _load_data(fileio.load_extrinsics, _resolve(base, cfg["extrinsics"]), "extrinsics")
    else:
        logger.warning("no anatomical extrinsics configured; using the camera frame")
        board_T = camera.RigidTransform.identity()
    frame = anatomy.AnatomicalFrame.from_transform(board_T)

    entries = _require(cfg, "targets", "track config")
    if not entries:
        raise ConfigError("track config lists no targets")
    targets = []
    for entry in entries:
        seg = _require(entry, "segment", "target entry")
        model = _load_data(
            fileio.load_target, _resolve(base, _require(entry, "file", "target entry")), "target"
        )
        targets.append((seg, model))

    feat_cfg = cfg.get("features", {})
    frames_cfg = cfg.get("frames", {})
    if isinstance(frames_cfg, str):
        if len(targets) != 1:
            raise ConfigError("a single frames directory needs exactly one target")
        frames_cfg = {targets[0][0]: frames_cfg}

    filt = cfg.get("filter", DEFAULT_FILTER)
    if filt is not None:
        try:
            window_sec = float(filt.get("window_sec", DEFAULT_FILTER["window_sec"]))
            order = int(filt.get("order", DEFAULT_FILTER["order"]))
        except (TypeError, ValueError, AttributeError) as e:
            raise ConfigError(f"track config filter: {e}") from e
    max_gap = float(cfg.get("max_gap_sec", DEFAULT_MAX_GAP_SEC))
    detector = cfg.get("detector", {})
    if set(detector) - {"threshold_fraction", "nms_radius", "refine_radius"}:
        raise ConfigError("detector config accepts threshold_fraction, nms_radius, refine_radius")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def run_segment(item: tuple[str, target.GeometricTargetModel]) -> str:
        seg, model = item
        if seg in feat_cfg:
            obs_frames = _ingest_features_csv(_resolve(base, feat_cfg[seg]), intr)
        elif seg in frames_cfg:
            obs_frames = _ingest_frames_dir(
                _resolve(base_frames, frames_cfg[seg]), model, intr, detector
            )
        else:
            raise ConfigError(f"segment '{seg}' has neither a features CSV nor a frames directory")

        track = pose.track_sequence(obs_frames, model, intr, rate_hz=rate)
        raw = _trajectory_from_track(track, model, frame, seg)
        traj = anatomy.interpolate_gaps(raw, max_gap)
        if filt is not None:
            traj = anatomy.savitzky_golay(traj, window_sec=window_sec, order=order)
        # Written only once all three are computed: a failed segment leaves none.
        fileio.save_pose_track_csv(out / f"pose_{seg}.csv", track)
        fileio.save_trajectory_csv(out / f"trajectory_raw_{seg}.csv", raw)
        fileio.save_trajectory_csv(out / f"trajectory_{seg}.csv", traj)

        fitted = sum(1 for s in track.statuses if s == "fitted")
        gaps = track.n_frames - fitted
        mean_rms = float(
            np.mean([r.rms_residual_px for r in track.reports if r is not None])
        )
        return (
            f"segment {seg}: {fitted}/{track.n_frames} frames fitted, {gaps} gaps, "
            f"mean RMS {mean_rms:.3f} px"
        )

    for line in _parallel_map(run_segment, targets, args.jobs):
        print(line)
    print(f"trajectories -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _parse_bins(text: str) -> metrics.StanceBins:
    try:
        edges = tuple(float(x) for x in text.split(","))
    except ValueError as e:
        raise ConfigError(f"--bins expects comma-separated numbers, got '{text}'") from e
    if len(edges) != 4:
        raise ConfigError("--bins takes exactly 4 edges (three stance intervals)")
    try:
        return metrics.StanceBins(edges=edges)
    except ValueError as e:
        raise ConfigError(f"--bins: {e}") from e


def _trajectory_files(dirpath: Path) -> list[Path]:
    if not dirpath.is_dir():
        raise ConfigError(f"trajectory directory not found: {dirpath}")
    paths = [
        p
        for p in sorted(dirpath.glob("trajectory_*.csv"))
        if not p.name.startswith("trajectory_raw_")
    ]
    if not paths:
        raise ConfigError(f"no trajectory_*.csv files in {dirpath}")
    return paths


def _tpl_table(
    paths: list[Path], bins: metrics.StanceBins
) -> tuple[list[metrics.TplResult], dict[tuple[str, str], dict[Path, float]]]:
    """Path lengths for every file x direction x bin.

    Also returns a (direction, bin) -> {file: value} view for comparisons.
    Bins without enough valid samples are skipped with a warning.
    """
    rows: list[metrics.TplResult] = []
    by_cell: dict[tuple[str, str], dict[Path, float]] = {}
    for path in paths:
        traj = _load_data(fileio.load_trajectory_csv, path, "trajectory")
        for interval, label in zip(bins.intervals, bins.labels):
            for direction in sorted(metrics.DIRECTIONS):
                try:
                    value = metrics.total_path_length(traj, direction, interval)
                except ValueError as e:
                    logger.warning("%s %s %s: %s", path.name, direction, label, e)
                    continue
                rows.append(
                    metrics.TplResult(
                        segment=traj.label,
                        direction=direction,
                        bin_label=label,
                        value_mm=value,
                    )
                )
                by_cell.setdefault((direction, label), {})[path] = value
    return rows, by_cell


def cmd_analyze(args: argparse.Namespace) -> int:
    bins = _parse_bins(args.bins)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    paths = _trajectory_files(Path(args.traj))
    rows, cells_a = _tpl_table(paths, bins)
    if not rows:
        raise ValueError("no bin produced a path length; trajectories too sparse")
    fileio.save_tpl_csv(out / "tpl.csv", rows)
    print(f"{len(rows)} path-length rows from {len(paths)} trajectory file(s) -> {out / 'tpl.csv'}")

    if args.compare is not None:
        paths_b = _trajectory_files(Path(args.compare))
        _, cells_b = _tpl_table(paths_b, bins)
        report_path = out / "cohens_d.csv"
        lines = ["direction,bin,d,n_a,n_b"]
        for direction in sorted(metrics.DIRECTIONS):
            for label in bins.labels:
                a = cells_a.get((direction, label), {})
                b = cells_b.get((direction, label), {})
                if len(a) < 2 or len(b) < 2:
                    logger.warning(
                        "%s/%s: need two trajectories per condition, have %d vs %d",
                        direction, label, len(a), len(b),
                    )
                    continue
                d = metrics.cohens_d(np.array(list(a.values())), np.array(list(b.values())))
                lines.append(f"{direction},{label},{repr(d)},{len(a)},{len(b)}")
        report_path.write_text("\n".join(lines) + "\n")
        print(f"effect sizes -> {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# agree
# ---------------------------------------------------------------------------


def cmd_agree(args: argparse.Namespace) -> int:
    rate = _positive_rate(args.rate)
    traj_a = _load_data(fileio.load_trajectory_csv, Path(args.a), "trajectory")
    traj_b = _load_data(fileio.load_trajectory_csv, Path(args.b), "trajectory")
    if abs(traj_a.t0 - traj_b.t0) > 1e-9:
        raise ConfigError(
            f"trajectories start at different times ({traj_a.t0} vs {traj_b.t0})"
        )
    ra = anatomy.resample_linear(traj_a, rate)
    rb = anatomy.resample_linear(traj_b, rate)
    n = min(ra.n_samples, rb.n_samples)
    if ra.n_samples != rb.n_samples:
        logger.warning(
            "durations differ (%.3f s vs %.3f s); trimming to the %.3f s overlap",
            ra.n_samples / rate, rb.n_samples / rate, n / rate,
        )
    col = anatomy.AXIS_INDEX[args.axis]
    mask = ra.valid[:n] & rb.valid[:n]
    a = ra.samples[:n, col][mask]
    b = rb.samples[:n, col][mask]
    report = metrics.bland_altman(a, b)
    fileio.save_agreement_json(args.out, report)
    print(
        f"{args.axis} agreement over {report.n} samples: bias {report.bias_mm:.4f} mm, "
        f"LoA [{report.loa_mm[0]:.4f}, {report.loa_mm[1]:.4f}] mm, "
        f"slope {report.slope:.4f}, r^2 {report.r2:.4f} -> {args.out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swaykin",
        description="Monocular fiducial-based postural sway toolkit.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="estimate camera intrinsics from checkerboard frames")
    p.add_argument("--frames", required=True, help="directory of .pgm checkerboard views")
    p.add_argument("--board", required=True, help="board descriptor JSON (rows, cols, square_size_mm)")
    p.add_argument("--out", required=True, help="output intrinsics JSON")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="generate a synthetic scenario with ground truth")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--render-frames", action="store_true", help="also rasterize .pgm frames")
    p.add_argument("--jobs", type=int, default=1, help="parallel targets")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="recover anatomical sway trajectories")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--frames", help="override the config's frames directory")
    p.add_argument("--rate", type=float, help="override the config's sample rate (Hz)")
    p.add_argument("--jobs", type=int, default=1, help="parallel targets")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("analyze", help="path-length table, optionally vs a second condition")
    p.add_argument("--traj", required=True, help="directory of trajectory CSVs")
    p.add_argument("--compare", help="second condition directory for effect sizes")
    p.add_argument("--bins", default="0,20,40,60", help="stance bin edges in seconds")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("agree", help="Bland-Altman agreement between two trajectories")
    p.add_argument("--a", required=True, help="first trajectory CSV")
    p.add_argument("--b", required=True, help="second trajectory CSV")
    p.add_argument("--rate", type=float, default=30.0, help="common resampling rate (Hz)")
    p.add_argument("--axis", choices=sorted(anatomy.AXIS_INDEX), default="AP")
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_agree)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as e:
        logger.error("%s", e)
        return EXIT_USAGE
    except OSError as e:
        logger.error("%s", e)
        return EXIT_USAGE
    except _COMPUTE_ERRORS as e:
        logger.error("%s", e)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
