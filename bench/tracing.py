"""Span and counter tracing for the benchmark's traced run.

Layer functions are wrapped at the attribute each caller looks up (a
module global, a class attribute or a property), so nothing in
``streamfec`` is edited.  Every call of a wrapped function records one
span: name, start, end, parent span and run id.  Spans are kept in
compact in-memory arrays and written out once, when the run ends.

A span is only opened for the outermost call of a given name, so a
layer that calls itself (for example ``parse_descriptor`` building a
``DeScoCodec``) is timed once.  ``GF.mul`` and ``GF.inv`` run millions
of times per iteration; they get call counters only, and only in the
separate probe iteration, so they do not distort the span timings.
"""

from __future__ import annotations

import math
import statistics
import tracemalloc
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List


def _patch(owner, attr: str, make: Callable[[Callable], Callable]):
    """Replace ``owner.attr`` with ``make(original)``; return an undo thunk.

    Properties are rewrapped through their getter.
    """
    original = vars(owner)[attr]
    if isinstance(original, property):
        replacement = property(make(original.fget))
    else:
        replacement = make(original)
    setattr(owner, attr, replacement)
    return lambda: setattr(owner, attr, original)


@contextmanager
def patched(patches):
    undo = [_patch(owner, attr, make) for owner, attr, make in patches]
    try:
        yield
    finally:
        for restore in reversed(undo):
            restore()


class Tracer:
    """In-memory span store plus per-run counters."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self._open: List[int] = []
        self.run_id = 0
        self.counts: Dict[int, Counter] = defaultdict(Counter)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._name_ids[name]

    def span(self, name: str, on_return=None) -> Callable[[Callable], Callable]:
        """Wrapper factory: time every outermost call as span ``name``.

        ``on_return(counter, args, result)`` may add per-run counts.
        """
        nid = self._name_id(name)

        def make(fn):
            def traced(*args, **kwargs):
                if self._open[nid]:
                    return fn(*args, **kwargs)
                sid = len(self.span_name)
                self.span_name.append(nid)
                self.span_parent.append(self._stack[-1] if self._stack else -1)
                self.span_run.append(self.run_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self._stack.append(sid)
                self._open[nid] += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._open[nid] -= 1
                    self._stack.pop()
                    self.span_start[sid] = start
                    self.span_end[sid] = end
                if on_return is not None:
                    on_return(self.counts[self.run_id], args, result)
                return result
            return traced
        return make

    def _durations(self) -> List[float]:
        return [e - s for s, e in zip(self.span_start, self.span_end)]

    def per_run(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """{run: {name: {"total", "self", "calls"}}} from the recorded spans.

        Self time is a span's duration minus the time its direct child
        spans cover; spans nest strictly on one thread, so that is the
        sum of the children's durations.
        """
        dur = self._durations()
        child = [0.0] * len(dur)
        for sid, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[sid]
        out: Dict[int, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0}))
        for sid, nid in enumerate(self.span_name):
            rec = out[self.span_run[sid]][self.names[nid]]
            rec["total"] += dur[sid]
            rec["self"] += dur[sid] - child[sid]
            rec["calls"] += 1
        return out

    def durations_of(self, name: str) -> List[float]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        dur = self._durations()
        return [dur[sid] for sid, n in enumerate(self.span_name) if n == nid]

    def write(self, path: str) -> None:
        """Write every span as CSV: run, id, parent, name, start_us, end_us."""
        start, end = self.span_start, self.span_end
        t0 = min(start, default=0.0)
        with open(path, "w") as fh:
            fh.write("run,span,parent,name,start_us,end_us\n")
            for sid, nid in enumerate(self.span_name):
                fh.write(f"{self.span_run[sid]},{sid},{self.span_parent[sid]},"
                         f"{self.names[nid]},{(start[sid] - t0) * 1e6:.1f},"
                         f"{(end[sid] - t0) * 1e6:.1f}\n")


def counter(counts: Counter, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory that only counts calls (for very hot functions)."""
    def make(fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted
    return make


class PeakMemory:
    """Largest tracemalloc peak over calls of one function.

    Tracing starts at entry, so the peak counts only memory the call
    itself allocated and still held at its high point.
    """

    def __init__(self):
        self.peak_bytes = 0

    def wrap(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes = max(self.peak_bytes, peak)
        return measured


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
