"""Spans around the program's public functions, recorded from outside.

:meth:`Tracer.wrap` replaces a function in every ``swaykin`` module that
holds it (``fileio`` imports ``validate_asymmetry`` by name, for example), so
each call is caught where the program looks the function up. A span records
its name, start, end and the span that caused it. Spans stay in memory until
the run ends; self time is a span's duration minus that of its children.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    result: object = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)
    # Names whose arguments and return values are kept, for counts made
    # from results and checks made on inputs.
    keep_results: frozenset[str] = frozenset()

    @contextmanager
    def span(self, name: str):
        i = len(self.spans)
        s = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self.spans.append(s)
        self._stack.append(i)
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if s.parent >= 0:
                self.spans[s.parent].child_s += s.end - s.start

    def wrap(self, module, name: str) -> None:
        """Trace ``module.name`` wherever a ``swaykin`` module refers to it."""
        original = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        keep = label in self.keep_results

        def traced(*args, **kwargs):
            with self.span(label) as s:
                out = original(*args, **kwargs)
                if keep:
                    s.result = (args, out)
                return out

        traced.__wrapped__ = original
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("swaykin"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))

    def unwrap_all(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def results(self, name: str) -> list[tuple[tuple, object]]:
        """(positional arguments, return value) of each call of ``name``
        that returned."""
        return [s.result for s in self.spans if s.name == name and not s.failed]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls, total and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["failed"] += int(s.failed)
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - s.child_s
        return dict(out)

    def write(self, path: Path) -> None:
        """All spans as CSV rows: index, name, start, end, parent, failed."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            f.write("index,name,start_s,end_s,parent,failed\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i},{s.name},{s.start - t0:.7f},{s.end - t0:.7f},{s.parent},{int(s.failed)}\n")
