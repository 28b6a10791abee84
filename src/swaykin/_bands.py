"""Whole-frame image work in horizontal row bands, one thread per core.

scipy.ndimage and numpy release the interpreter lock inside their loops, so
the bands of one frame run in parallel. Each band writes its own rows of one
preallocated output and reads what it needs of the input, so the result does
not depend on how the rows are cut. The pool is made on the first call: code
that does no image work starts no thread.
"""
from __future__ import annotations

import os
import threading
from collections.abc import Callable

# Rows per band: sixteen bands on a 2048-row frame, to share out evenly
# over the cores, each with temporaries of a few MB.
_BAND_ROWS = 128

_pool = None
_pool_lock = threading.Lock()


def over_rows(height: int, work: Callable[[int, int], None]) -> None:
    """Call ``work(v0, v1)`` on each band of rows ``v0 <= v < v1`` of
    ``height`` rows, across the cores; return when every band is done, or
    raise the first band's error. ``work`` must not call this function:
    it would wait on the workers it occupies."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            _pool = ThreadPoolExecutor(cores or 1, thread_name_prefix="swaykin-rows")
    starts = range(0, height, _BAND_ROWS)
    list(_pool.map(work, starts, [min(v + _BAND_ROWS, height) for v in starts]))


def _forget_pool() -> None:
    """A forked child has none of its parent's threads, so it makes its own
    pool; without this its first call would wait forever."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
