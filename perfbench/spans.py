"""In-memory spans recorded at layer boundaries, from outside the program.

The benchmark does not change ``src/``.  For a traced run it replaces a
layer's public function or method with a wrapper that records one span
per call: name, start, end, the span that caused it (the caller's open
span) and the trace it belongs to (the outermost open span).  Spans stay
in memory until the run ends and are then written out as gzipped JSON
lines.  A layer's self time is its spans' durations minus the time their
child spans cover.

The recorder keeps one stack, so it assumes the wrapped calls happen on
one thread: true of every workload's load generator, and of the job
chunks the traced run replays in the benchmark process.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "LayerTotals"]

#: ``(args, result) -> amount`` added to a span name's work count.
CountFn = Callable[[tuple, Any], float]


class LayerTotals:
    """Per-span-name self time (ns), inclusive time (ns) and call count."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: ``(child name, parent name) -> [inclusive ns, calls]``
        self.by_parent: dict[tuple[str, str], list[int]] = defaultdict(
            lambda: [0, 0]
        )

    def self_us(self, name: str, per: float) -> float:
        return self.self_ns[name] / 1e3 / per if per else 0.0


class Tracer:
    """Installs span-recording wrappers and keeps their spans."""

    def __init__(self) -> None:
        # Parallel columns, one row per span: the per-span cost stays a
        # few appends, and the garbage collector has no span objects to
        # scan as their number grows.
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.traces = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def traced(self, name: str, fn: Callable,
               count: CountFn | None = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, traces = self.parents, self.traces
        stack, counts = self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            traces.append(stack[0] if stack else index)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                counts[name] += count(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def wrap(self, owner: object, attr: str, name: str,
             count: CountFn | None = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` (a module function, a method, or a classmethod)."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: object = classmethod(
                self.traced(name, original.__func__, count)
            )
        else:
            replacement = self.traced(name, original, count)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute (spans are kept)."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def totals(self) -> LayerTotals:
        """Self and inclusive time per span name over all recorded spans."""
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_ns = [0] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += durations[index]
        out = LayerTotals()
        for index, name in enumerate(names):
            duration = durations[index]
            parent = parents[index]
            out.self_ns[name] += duration - child_ns[index]
            out.total_ns[name] += duration
            out.calls[name] += 1
            entry = out.by_parent[(name, names[parent] if parent >= 0 else "")]
            entry[0] += duration
            entry[1] += 1
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzipped)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for index, name in enumerate(self.names):
                fh.write(json.dumps(
                    {"id": index, "name": name, "start_ns": self.starts[index],
                     "end_ns": self.ends[index], "parent": self.parents[index],
                     "trace": self.traces[index]},
                    separators=(",", ":"),
                ))
                fh.write("\n")
