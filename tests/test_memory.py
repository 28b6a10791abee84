"""Memory held per observation and per frame on the feature-CSV route, and
by the detector on a whole frame.

Each feature-CSV bound is the tracemalloc peak measured when the route first
took columns from the file to the solver, plus 25 %. The per-observation
lists that it replaced peaked at 610 B per observation at ingest and 7,323 B
per frame in ``track_sequence`` on this run.
"""

import os
import tracemalloc

import numpy as np
import pytest
# Puts scipy.linalg._flapack in sys.modules, where pose._lapack() finds it,
# so that loading the extension is not a cost of the traced run.
import scipy.linalg  # noqa: F401

from swaykin import (
    CameraIntrinsics,
    KinematicParams,
    NoiseSpec,
    SwayProfile,
    cli,
    corner_likelihood,
    default_target,
    detect_features,
    fileio,
    pose,
    refine_subpixel,
    synth,
)
from swaykin.features import NMS_RADIUS, THRESHOLD_FRACTION, FeatureObservation

# Measured 155 B per observation and 5,549 B per frame, plus 25 %.
INGEST_BYTES_PER_OBSERVATION = 193
TRACK_BYTES_PER_FRAME = 6936

INTR = CameraIntrinsics(fx=4000, fy=4000, x0=1024, y0=1024, k1=-0.08, k2=0.01)

# Peaks of the detector's two whole-frame calls on the 2048² frame below,
# two row bands at a time (one per core on two cores). Each bound is the
# peak of the scipy.ndimage filters that the numpy ones replaced, measured on
# this frame with scipy.ndimage already imported: 62.98 MB, of which the map
# is 33.55 MB, and 9.47 MB.
LIKELIHOOD_PEAK_BYTES = 62_980_000
PEAKS_PEAK_BYTES = 9_470_000
# Peak of refining the 8,382 peaks of a noisy mid-grey 2048² frame:
# measured 9.93 MB, plus 25 %. Refined all at once they peaked at 70 MB.
REFINE_PEAK_BYTES = 12_410_000


def _peak_since(start: int) -> int:
    return tracemalloc.get_traced_memory()[1] - start


@pytest.fixture
def lumbar_run(tmp_path):
    """A 60 s, 1,800-frame lumbar recording through a distorted camera."""
    model = default_target("lumbar")
    theta = synth.generate_trajectory(SwayProfile(duration_sec=60.0, rate_hz=30.0, seed=7))
    frames = synth.render_observations(theta, model, INTR, NoiseSpec(0.2, 0.01, 11))
    path = tmp_path / "features_lumbar.csv"
    fileio.save_features_csv(path, frames)
    return path, model, len(frames), sum(map(len, frames))


def test_features_route_memory_per_observation_and_per_frame(lumbar_run, monkeypatch):
    path, model, n_frames, n_obs = lumbar_run
    made = [0]  # FeatureObservations constructed
    post_init = FeatureObservation.__post_init__

    def counted(self):
        made[0] += 1
        post_init(self)

    initialize = pose.initialize_first_frame
    at_init = []

    def initialize_counted(*args, **kwargs):
        out = initialize(*args, **kwargs)
        at_init.append(made[0])
        return out

    monkeypatch.setattr(FeatureObservation, "__post_init__", counted)
    monkeypatch.setattr(pose, "initialize_first_frame", initialize_counted)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cols = cli._ingest_features_csv(path, INTR)
        ingest = _peak_since(start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        track = pose.track_sequence(cols, model, INTR)
        tracking = _peak_since(start)
    finally:
        tracemalloc.stop()
    assert track.statuses.count("fitted") == n_frames
    assert ingest / n_obs <= INGEST_BYTES_PER_OBSERVATION
    assert tracking / n_frames <= TRACK_BYTES_PER_FRAME
    # Observations are made for the first frame's initialization and no more.
    assert at_init == made and made[0] <= len(model.points)


def test_whole_frame_detector_memory(monkeypatch):
    # A frame whose target the coarse pass misses is detected whole. The
    # peaks grow with the bands that run at once, so two cores are fixed.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    theta = KinematicParams(0.02, -0.015, 0.03, 5.0, -10.0, 1000.0)
    frame = synth.render_frame(theta, default_target("lumbar"), INTR, (2048, 2048))
    frame += np.random.default_rng(5).normal(0.0, 0.02, frame.shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        like = corner_likelihood(frame)
        likelihood = _peak_since(start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        peaks = detect_features(like, THRESHOLD_FRACTION * float(like.max()), NMS_RADIUS)
        nms = _peak_since(start)
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 15
    assert likelihood <= LIKELIHOOD_PEAK_BYTES
    assert nms <= PEAKS_PEAK_BYTES


def test_refinement_memory_is_bounded_by_its_blocks():
    # A frame of noise alone, as when the target is out of view: every
    # peak above the threshold is refined, though none is a junction.
    frame = 0.5 + np.random.default_rng(3).normal(0.0, 0.02, (2048, 2048))
    like = corner_likelihood(frame)
    coarse = [p.position for p in detect_features(like, THRESHOLD_FRACTION * float(like.max()), NMS_RADIUS)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        refine_subpixel(frame, coarse)
        refinement = _peak_since(start)
    finally:
        tracemalloc.stop()
    assert len(coarse) > 8000
    assert refinement <= REFINE_PEAK_BYTES
