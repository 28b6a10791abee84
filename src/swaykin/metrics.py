"""Sway summary metrics and between-system agreement statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from swaykin.anatomy import SwayTrajectory


# Axis-column pairs selected by each direction keyword.
DIRECTIONS = {
    "AP": (0,),
    "ML": (1,),
    "SI": (2,),
    "APML": (0, 1),
    "APSI": (0, 2),
    "MLSI": (1, 2),
}


@dataclass(frozen=True)
class StanceBins:
    """Three ordered, contiguous, half-open stance-time intervals."""

    edges: tuple[float, float, float, float] = (0.0, 20.0, 40.0, 60.0)
    labels: ClassVar[tuple[str, str, str]] = ("early", "mid", "late")

    def __post_init__(self) -> None:
        if len(self.edges) != 4 or any(
            b <= a for a, b in zip(self.edges, self.edges[1:])
        ):
            raise ValueError(f"bin edges must be 4 increasing values, got {self.edges}")

    @property
    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.edges[:-1], self.edges[1:]))


@dataclass(frozen=True)
class TplResult:
    segment: str
    direction: str
    bin_label: str
    value_mm: float


@dataclass(frozen=True)
class AgreementReport:
    """Bland-Altman bias and limits plus b-on-a regression."""

    bias_mm: float
    loa_mm: tuple[float, float]
    slope: float
    intercept: float
    r2: float
    n: int

    def __post_init__(self) -> None:
        if not self.loa_mm[0] <= self.bias_mm <= self.loa_mm[1]:
            raise ValueError("limits of agreement must bracket the bias")


def total_path_length(
    traj: SwayTrajectory, direction: str, interval: tuple[float, float]
) -> float:
    """Sum of consecutive-sample step lengths along the selected axes.

    A step counts when both samples are valid and consecutive and its left
    sample's time falls in the half-open ``interval``; steps across tracking
    gaps are excluded. Single-axis directions reduce to summed absolute
    increments.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {sorted(DIRECTIONS)}, got '{direction}'")
    lo, hi = interval
    t = traj.times
    in_bin = (t >= lo) & (t < hi)
    if int(np.sum(in_bin & traj.valid)) < 2:
        raise ValueError(
            f"need at least 2 valid samples in [{lo}, {hi}) to compute a path length"
        )
    cols = list(DIRECTIONS[direction])
    xy = traj.samples[:, cols]
    ok = traj.valid[:-1] & traj.valid[1:] & in_bin[:-1]
    steps = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    return float(np.sum(steps[ok]))


def cousineau_morey(values: np.ndarray) -> np.ndarray:
    """Remove between-participant offsets from a participant x condition matrix.

    x'_ij = x_ij - mean_i + grand_mean. Per-condition means are preserved;
    the between-participant variance of row means goes to zero. See
    :func:`cousineau_morey_sem` for the variance-corrected SEMs.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"expected a (participants, >=2 conditions) matrix, got {x.shape}")
    if np.any(~np.isfinite(x)):
        raise ValueError("matrix has missing or non-finite cells")
    return x - x.mean(axis=1, keepdims=True) + x.mean()


def cousineau_morey_sem(values: np.ndarray) -> np.ndarray:
    """Per-condition SEMs of the normalized data, scaled by the
    bias-correction factor sqrt(C / (C - 1)) for C conditions."""
    x = cousineau_morey(values)
    n, c = x.shape
    factor = math.sqrt(c / (c - 1))
    return factor * x.std(axis=0, ddof=1) / math.sqrt(n)


def cohens_d(a: np.ndarray, b: np.ndarray) -> float:
    """Standardized mean difference (mean_b - mean_a) / pooled SD.

    Uses the pooled-variance formula ((n_a-1)s_a^2 + (n_b-1)s_b^2) /
    (n_a+n_b-2), which reduces to sqrt((s_a^2+s_b^2)/2) for equal sizes.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 values")
    va, vb = np.var(a, ddof=1), np.var(b, ddof=1)
    pooled = math.sqrt(((len(a) - 1) * va + (len(b) - 1) * vb) / (len(a) + len(b) - 2))
    if pooled == 0.0:
        raise ValueError("pooled standard deviation is zero; effect size undefined")
    return float((b.mean() - a.mean()) / pooled)


def bland_altman(a: np.ndarray, b: np.ndarray) -> AgreementReport:
    """Agreement between paired measurement series on a common timebase.

    Differences are b - a: bias is their mean, limits of agreement are
    bias +- 1.96 sample SD. The regression is ordinary least squares of b on
    a (slope, intercept, r^2).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if len(a) != len(b):
        raise ValueError(f"paired series differ in length: {len(a)} vs {len(b)}")
    if len(a) < 3:
        raise ValueError(f"need at least 3 pairs, got {len(a)}")
    d = b - a
    bias = float(d.mean())
    sd = float(d.std(ddof=1))
    var_a = float(np.var(a))
    if var_a == 0.0:
        raise ValueError("first series has zero variance; regression undefined")
    cov = float(np.mean((a - a.mean()) * (b - b.mean())))
    slope = cov / var_a
    intercept = float(b.mean() - slope * a.mean())
    ss_res = float(np.sum((b - (slope * a + intercept)) ** 2))
    ss_tot = float(np.sum((b - b.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return AgreementReport(
        bias_mm=bias,
        loa_mm=(bias - 1.96 * sd, bias + 1.96 * sd),
        slope=slope,
        intercept=intercept,
        r2=r2,
        n=len(a),
    )
