"""File formats: PGM frames, JSON descriptors, and pipeline CSVs."""
from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from swaykin.anatomy import SwayTrajectory
from swaykin.camera import CameraIntrinsics, RigidTransform
from swaykin.features import FeatureColumns, FeatureObservation
from swaykin.metrics import AgreementReport, TplResult
from swaykin.pose import PoseTrack
from swaykin.target import GeometricTargetModel, validate_asymmetry


def _fmt(x) -> str:
    # repr of a Python float round-trips exactly; numpy scalars do not.
    return repr(float(x))


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM into a float image in [0, 1], :func:`read_pgm_u8` / 255."""
    return np.divide(read_pgm_u8(path), 255.0)


def read_pgm_u8(path: str | Path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM's pixels as a read-only (height, width)
    uint8 array, without converting them."""
    data = Path(path).read_bytes()
    # Header: magic, width, height, maxval, separated by whitespace/comments.
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        c = data[i : i + 1]
        if c == b"#":
            i = data.index(b"\n", i)
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PGM size {width}x{height} is empty")
    if len(data) - (i + 1) < width * height:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8, count=width * height, offset=i + 1).reshape(height, width)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a float image in [0, 1] as binary (P5) 8-bit PGM."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {img.shape}")
    q = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(q.tobytes())


def save_intrinsics(path: str | Path, intrinsics: CameraIntrinsics, rms_px: float | None = None) -> None:
    doc = {
        "fx": intrinsics.fx,
        "fy": intrinsics.fy,
        "s": intrinsics.skew,
        "x0": intrinsics.x0,
        "y0": intrinsics.y0,
        "k1": intrinsics.k1,
        "k2": intrinsics.k2,
    }
    if rms_px is not None:
        doc["rms_px"] = rms_px
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_intrinsics(path: str | Path) -> CameraIntrinsics:
    doc = json.loads(Path(path).read_text())
    return CameraIntrinsics(
        fx=doc["fx"],
        fy=doc["fy"],
        x0=doc["x0"],
        y0=doc["y0"],
        skew=doc.get("s", 0.0),
        k1=doc.get("k1", 0.0),
        k2=doc.get("k2", 0.0),
    )


def save_target(path: str | Path, model: GeometricTargetModel) -> None:
    doc = {"name": model.name, "points_mm": model.points.tolist()}
    if model.virtual_offset is not None:
        doc["virtual_offset_mm"] = model.virtual_offset.tolist()
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_target(path: str | Path) -> GeometricTargetModel:
    """Load a target model and check its rotational asymmetry."""
    doc = json.loads(Path(path).read_text())
    model = GeometricTargetModel(
        name=doc["name"],
        points=np.array(doc["points_mm"], dtype=float),
        virtual_offset=(
            np.array(doc["virtual_offset_mm"], dtype=float)
            if "virtual_offset_mm" in doc
            else None
        ),
    )
    validate_asymmetry(model)
    return model


def save_extrinsics(path: str | Path, pose: RigidTransform) -> None:
    doc = {"rotation": pose.rotation.tolist(), "translation_mm": pose.translation.tolist()}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_extrinsics(path: str | Path) -> RigidTransform:
    doc = json.loads(Path(path).read_text())
    return RigidTransform(
        np.array(doc["rotation"], dtype=float), np.array(doc["translation_mm"], dtype=float)
    )


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``header``, then ``rows``, in the csv module's dialect: CRLF line
    ends, a cell quoted only when it must be."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path: str | Path, fields: list[tuple[str, type]], converters: dict) -> np.ndarray:
    """Read the columns ``fields`` (name, dtype) of a CSV into a structured
    array, a record per row in file order. The header names the columns, in
    any order; others are ignored. Cells may be quoted. ``converters`` maps a
    field's name to its cell parser. A text field must be ``object``: a
    ``str`` one reads a quoted cell as ``''``."""
    names = [n for n, _ in fields]
    with open(path) as f:
        header = next(csv.reader([f.readline()]))
        if not set(names).issubset(header):
            raise ValueError(f"{path}: expected columns {sorted(names)}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(
                f, delimiter=",", quotechar='"', usecols=[header.index(n) for n in names], ndmin=1, dtype=fields,
                converters={header.index(n): c for n, c in converters.items()},
            )


def save_features_csv(path: str | Path, frames: list[list[FeatureObservation]]) -> None:
    """Write per-frame observations as `frame,model_index,u,v,score` rows."""
    _write_csv(path, ["frame", "model_index", "u", "v", "score"], (
        [k, "" if o.model_index is None else o.model_index, _fmt(o.position[0]), _fmt(o.position[1]),
         _fmt(o.score)] for k, obs in enumerate(frames) for o in obs
    ))


def load_feature_columns(path: str | Path) -> FeatureColumns:
    """Read a feature CSV into columns, its rows in frame order.

    Frames are the contiguous range 0..max(frame), so a frame with no rows is
    empty (a dropout-induced gap); rows of one frame keep their order in the
    file. A frame number or model index that is not an integer is refused, as
    :class:`FeatureColumns` refuses a negative frame number and a position
    that is not finite. An empty model index reads as NaN.
    """
    fields = [("frame", np.int64)] + [(n, float) for n in ("model_index", "u", "v", "score")]
    rows = _read_csv(path, fields, {"model_index": lambda s: int(s) if s else math.nan})
    rows = rows[np.argsort(rows["frame"], kind="stable")]
    n_frames = int(rows["frame"][-1]) + 1 if len(rows) else 0
    uv = np.column_stack([rows["u"], rows["v"]])
    return FeatureColumns(rows["frame"], rows["model_index"], uv, rows["score"], n_frames)


def load_features_csv(path: str | Path) -> list[list[FeatureObservation]]:
    """Read a feature CSV back into per-frame observation lists: the rows of
    :func:`load_feature_columns`, frame by frame."""
    cols = load_feature_columns(path)
    return [cols.observations(i) for i in range(cols.n_frames)]


_THETAS = [f"theta{i}" for i in range(1, 7)]


def save_pose_track_csv(path: str | Path, track: PoseTrack) -> None:
    """Write `frame,t_sec,status,theta1..theta6,rms_px,iters` rows."""
    _write_csv(path, ["frame", "t_sec", "status", *_THETAS, "rms_px", "iters"], (
        [k, _fmt(k / track.rate_hz), status] + (
            [""] * 8 if report is None
            else [_fmt(v) for v in report.theta.as_array()] + [_fmt(report.rms_residual_px), report.iterations]
        )
        for k, (report, status) in enumerate(zip(track.reports, track.statuses))
    ))


def save_theta_csv(path: str | Path, theta_seq: np.ndarray, rate_hz: float) -> None:
    """Write a ground-truth parameter sequence as `frame,t_sec,theta1..theta6`."""
    seq = np.asarray(theta_seq, dtype=float)
    rows = ([k, _fmt(k / rate_hz)] + [_fmt(v) for v in row] for k, row in enumerate(seq))
    _write_csv(path, ["frame", "t_sec", *_THETAS], rows)


def _time_step(path: str | Path, t_sec: np.ndarray) -> float:
    """The step (s) between a file's first two samples, of which there must
    be two; it must be finite and positive."""
    if len(t_sec) < 2:
        raise ValueError(f"{path}: need at least 2 rows")
    step = float(t_sec[1] - t_sec[0])
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"{path}: t_sec step {step} is not finite and positive")
    return step


def save_trajectory_csv(path: str | Path, traj: SwayTrajectory) -> None:
    """Write `t_sec,segment,AP_mm,ML_mm,SI_mm,valid` rows."""
    _write_csv(path, ["t_sec", "segment", "AP_mm", "ML_mm", "SI_mm", "valid"], (
        [_fmt(t), traj.label] + [_fmt(v) for v in row] + [int(ok)]
        for t, row, ok in zip(traj.times, traj.samples, traj.valid)
    ))


def load_trajectory_csv(path: str | Path) -> SwayTrajectory:
    """Read a trajectory whose rows name one segment, on a uniform timebase."""
    axes = ["AP_mm", "ML_mm", "SI_mm"]
    fields = [("t_sec", float), ("segment", object)] + [(n, float) for n in axes] + [("valid", np.int64)]
    rows = _read_csv(path, fields, {})
    step = _time_step(path, rows["t_sec"])
    if not np.all(np.abs(np.diff(rows["t_sec"]) - step) <= 1e-6):
        raise ValueError(f"{path}: timebase is not uniform")
    labels = sorted(set(rows["segment"]))
    if len(labels) > 1:
        raise ValueError(f"{path}: rows name more than one segment: {labels}")
    return SwayTrajectory(
        sample_rate_hz=1.0 / step,
        label=labels[0],
        samples=np.column_stack([rows[n] for n in axes]),
        valid=rows["valid"] != 0,
        t0=float(rows["t_sec"][0]),
    )


def save_tpl_csv(path: str | Path, results: list[TplResult]) -> None:
    """Write `segment,direction,bin,tpl_mm` rows."""
    rows = ([r.segment, r.direction, r.bin_label, _fmt(r.value_mm)] for r in results)
    _write_csv(path, ["segment", "direction", "bin", "tpl_mm"], rows)


def save_cohens_d_csv(path: str | Path, cells: list[tuple[str, str, float, int, int]]) -> None:
    """Write a `direction,bin,d,n_a,n_b` row for each such tuple of ``cells``."""
    rows = ([direction, label, _fmt(d), n_a, n_b] for direction, label, d, n_a, n_b in cells)
    _write_csv(path, ["direction", "bin", "d", "n_a", "n_b"], rows)


def save_agreement_json(path: str | Path, report: AgreementReport) -> None:
    doc = {
        "bias_mm": float(report.bias_mm),
        "loa": [float(report.loa_mm[0]), float(report.loa_mm[1])],
        "slope": float(report.slope),
        "intercept": float(report.intercept),
        "r2": float(report.r2),
        "n": int(report.n),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
