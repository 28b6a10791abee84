"""Whole-frame image work in horizontal row bands, one thread per core.

numpy's ufuncs release the interpreter lock inside their loops, so the bands
of one frame run in parallel. Each band writes its own rows of one
preallocated output and reads what it needs of the input, so the result does
not depend on how the rows are cut. Each call starts its own threads and
joins them before it returns: code that does no image work starts no thread,
and no thread outlives the call.
"""
from __future__ import annotations

import os
from collections.abc import Callable

# Rows per band: 32 bands on a 2048-row frame and 6 on a tracked frame's
# window, to share out evenly over the cores, each with temporaries of 1 MB.
_BAND_ROWS = 64


def over_rows(height: int, work: Callable[[int, int], None]) -> None:
    """Call ``work(v0, v1)`` on each band of rows ``v0 <= v < v1`` of
    ``height`` rows, across the cores; return when every band is done, or
    raise the first band's error."""
    from concurrent.futures import ThreadPoolExecutor

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    starts = range(0, height, _BAND_ROWS)
    with ThreadPoolExecutor(cores or 1, thread_name_prefix="swaykin-rows") as pool:
        list(pool.map(work, starts, [min(v + _BAND_ROWS, height) for v in starts]))
