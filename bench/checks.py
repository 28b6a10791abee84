"""Checks of the program's outputs, computed apart from the program.

Every check recomputes a result from the files it came from with a few
lines of numpy, or tests a property the method must have. None compares
against a stored copy of an earlier output. A failed check raises
:class:`CheckError`; a failed operation (one segment's track) is reported
by :func:`segment_failure`.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

DIRECTIONS = {"AP": (0,), "ML": (1,), "SI": (2,), "APML": (0, 1), "APSI": (0, 2), "MLSI": (1, 2)}
BIN_LABELS = ("early", "mid", "late")
MIN_OBSERVATIONS = 4
# A segment whose pose smoother settled has a depth error SD near 1-2 mm per
# px of feature noise; one that kept its per-frame fits has 8-9 mm per px.
FALLBACK_DEPTH_SD_MM_PER_PX = 4.0
PAPER_LOA_MM = 0.52
BIAS_BLOCK_S = 5.0
BIAS_SE_FACTOR = 4.0
# Matched detections on the rendered frames (sensor noise 0.02) lie 0.04 px
# RMS and at most 0.09 px from the true junctions; a quarter pixel is a fault.
DETECTION_TOL_PX = 0.25
REL_TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_table(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    require(len(rows) >= 1, f"{path.name}: empty file")
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def floats(values: list[str]) -> np.ndarray:
    return np.array([float(v) if v != "" else math.nan for v in values])


def close(a: float, b: float, what: str) -> None:
    require(
        abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b)),
        f"{what}: program gives {a!r}, recomputed {b!r}",
    )


# ---------------------------------------------------------------------------
# Per segment


def segment_failure(
    pose_csv: Path, n_obs: np.ndarray, true_depth: np.ndarray, sigma_px: float
) -> str | None:
    """Why one segment's track failed, or None.

    It fails when a frame with at least 4 observations came back as a gap,
    or when its depth error (pose theta6 against the true depth) is as large
    as per-frame fits give: the pose smoother kept them instead of smoothing.
    The second test needs feature noise to scale its bound, so it applies to
    feature recordings only.
    """
    table = read_table(pose_csv)
    require(len(table["frame"]) == len(n_obs), f"{pose_csv.name}: {len(table['frame'])} rows for {len(n_obs)} frames")
    fitted = np.array([s == "fitted" for s in table["status"]])
    lost = np.nonzero(~fitted & (n_obs >= MIN_OBSERVATIONS))[0]
    if len(lost):
        return f"{len(lost)} frame(s) with >= {MIN_OBSERVATIONS} observations are gaps (first {lost[0]})"
    if sigma_px > 0:
        err = floats(table["theta6"])[fitted] - true_depth[fitted]
        sd = float(np.std(err))
        if sd > FALLBACK_DEPTH_SD_MM_PER_PX * sigma_px:
            return f"depth error SD {sd:.3f} mm exceeds {FALLBACK_DEPTH_SD_MM_PER_PX * sigma_px:.2f} mm: per-frame fits kept"
    return None


def read_trajectory(path: Path, segment: str, n_frames: int, rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """(samples (n, 3) AP/ML/SI, valid) of a trajectory CSV, after checking
    its label, length and timebase."""
    t = read_table(path)
    require(len(t["t_sec"]) == n_frames, f"{path.name}: {len(t['t_sec'])} rows for {n_frames} frames")
    require(set(t["segment"]) == {segment}, f"{path.name}: segment labels {sorted(set(t['segment']))}")
    times = floats(t["t_sec"])
    require(np.allclose(times, np.arange(n_frames) / rate_hz, atol=1e-9), f"{path.name}: timebase is not {rate_hz:g} Hz from 0")
    samples = np.column_stack([floats(t[c]) for c in ("AP_mm", "ML_mm", "SI_mm")])
    valid = np.array([v == "1" for v in t["valid"]])
    require(np.all(np.isfinite(samples[valid])), f"{path.name}: non-finite valid sample")
    return samples, valid


# ---------------------------------------------------------------------------
# Statistics recomputed


def path_lengths(samples: np.ndarray, valid: np.ndarray, bins: tuple[float, ...], rate_hz: float) -> dict[tuple[str, str], float]:
    """Total path length per (direction, bin): the sum of steps between
    consecutive valid samples whose first sample's time lies in the bin.
    Bins with fewer than 2 valid samples have no entry."""
    t = np.arange(len(samples)) / rate_hz
    out = {}
    for label, lo, hi in zip(BIN_LABELS, bins[:-1], bins[1:]):
        in_bin = (t >= lo) & (t < hi)
        if np.sum(in_bin & valid) < 2:
            continue
        step_ok = valid[:-1] & valid[1:] & in_bin[:-1]
        for direction, cols in DIRECTIONS.items():
            steps = np.sqrt(np.sum(np.diff(samples[:, list(cols)], axis=0) ** 2, axis=1))
            out[(direction, label)] = float(np.sum(steps[step_ok]))
    return out


def check_tpl(tpl_csv: Path, expected: dict[tuple[str, str, str], float]) -> None:
    """Every tpl.csv cell against ``expected`` (segment, direction, bin) ->
    mm, with no cell missing or extra."""
    t = read_table(tpl_csv)
    got = {}
    for seg, d, b, v in zip(t["segment"], t["direction"], t["bin"], t["tpl_mm"]):
        require((seg, d, b) not in got, f"tpl.csv: duplicate cell {seg} {d} {b}")
        got[(seg, d, b)] = float(v)
    require(set(got) == set(expected), f"tpl.csv: cells {sorted(set(got) ^ set(expected))[:4]} differ")
    for key, v in got.items():
        close(v, expected[key], f"tpl.csv {key}")


def cohens_d(a: np.ndarray, b: np.ndarray) -> float:
    """(mean b - mean a) / pooled SD."""
    pooled = ((len(a) - 1) * np.var(a, ddof=1) + (len(b) - 1) * np.var(b, ddof=1)) / (len(a) + len(b) - 2)
    return float((np.mean(b) - np.mean(a)) / math.sqrt(pooled))


def check_cohens_d(d_csv: Path, cells_a: dict, cells_b: dict) -> None:
    """cohens_d.csv against the d of each (direction, bin) recomputed from
    the path lengths of the two conditions' segments."""
    t = read_table(d_csv)
    got = {(d, b): (float(v), int(na), int(nb)) for d, b, v, na, nb in zip(t["direction"], t["bin"], t["d"], t["n_a"], t["n_b"])}
    require(len(got) == len(t["d"]), "cohens_d.csv: duplicate cell")
    expected = {}
    for direction in DIRECTIONS:
        for label in BIN_LABELS:
            a = np.array([v for (seg, d, b), v in cells_a.items() if d == direction and b == label])
            b_ = np.array([v for (seg, d, b), v in cells_b.items() if d == direction and b == label])
            if len(a) >= 2 and len(b_) >= 2:
                expected[(direction, label)] = (cohens_d(a, b_), len(a), len(b_))
    require(set(got) == set(expected), f"cohens_d.csv: cells {sorted(set(got) ^ set(expected))[:4]} differ")
    for key, (d, na, nb) in got.items():
        close(d, expected[key][0], f"cohens_d.csv {key}")
        require((na, nb) == expected[key][1:], f"cohens_d.csv {key}: counts {(na, nb)}")


def check_agreement(report_json: Path, truth: np.ndarray, tracked: np.ndarray, valid: np.ndarray) -> None:
    """An ``agree`` report (truth as a, tracked as b) against Bland-Altman
    and the b-on-a regression recomputed over the valid samples. Both
    series start at t = 0 and are resampled at their own rate, which
    leaves them as they are."""
    doc = json.loads(report_json.read_text())
    a, b = truth[valid], tracked[valid]
    d = b - a
    bias, sd = float(np.mean(d)), float(np.std(d, ddof=1))
    slope = float(np.mean((a - a.mean()) * (b - b.mean())) / np.var(a))
    intercept = float(b.mean() - slope * a.mean())
    r2 = 1.0 - float(np.sum((b - slope * a - intercept) ** 2) / np.sum((b - b.mean()) ** 2))
    require(doc["n"] == len(a), f"{report_json.name}: n {doc['n']} for {len(a)} valid samples")
    close(doc["bias_mm"], bias, f"{report_json.name} bias")
    close(doc["loa"][0], bias - 1.96 * sd, f"{report_json.name} lower LoA")
    close(doc["loa"][1], bias + 1.96 * sd, f"{report_json.name} upper LoA")
    close(doc["slope"], slope, f"{report_json.name} slope")
    close(doc["intercept"], intercept, f"{report_json.name} intercept")
    close(doc["r2"], r2, f"{report_json.name} r2")


# ---------------------------------------------------------------------------
# Properties of the method


def check_paper_agreement(diffs: list[np.ndarray], axis: str, rate_hz: float) -> None:
    """Tracked minus true sway along one axis, over the segments that did
    not fail: the 95 % limits of agreement lie within the paper's +-0.52 mm,
    and the bias within 4 standard errors, taken from 5 s block means
    because the smoothed errors are correlated in time."""
    d = np.concatenate(diffs)
    bias, sd = float(np.mean(d)), float(np.std(d, ddof=1))
    lo, hi = bias - 1.96 * sd, bias + 1.96 * sd
    require(
        -PAPER_LOA_MM <= lo and hi <= PAPER_LOA_MM,
        f"{axis} limits of agreement ({lo:.3f}, {hi:.3f}) mm exceed +-{PAPER_LOA_MM} mm",
    )
    block = int(BIAS_BLOCK_S * rate_hz)
    means = np.concatenate([x[: len(x) // block * block].reshape(-1, block).mean(axis=1) for x in diffs])
    if len(means) >= 4:
        se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
        require(
            abs(bias) <= BIAS_SE_FACTOR * se,
            f"{axis} bias {bias:.4f} mm exceeds {BIAS_SE_FACTOR} standard errors ({se:.4f} mm)",
        )


def check_detections(frames_obs: list, true_px: np.ndarray) -> None:
    """Each frame's matched detections, as handed to the pose fit, against
    the benchmark's own pinhole projection of the true pose: every junction
    is matched once and lies within DETECTION_TOL_PX of its projection."""
    require(len(frames_obs) == len(true_px), f"{len(frames_obs)} frames of detections for {len(true_px)} frames")
    for k, obs in enumerate(frames_obs):
        idx = sorted(o.model_index for o in obs)
        require(idx == list(range(true_px.shape[1])), f"frame {k}: matched junctions {idx}")
        for o in obs:
            err = float(np.linalg.norm(np.asarray(o.position) - true_px[k, o.model_index]))
            require(err <= DETECTION_TOL_PX, f"frame {k} junction {o.model_index}: {err:.3f} px from its projection")
