"""In-memory span recording around the public entry points of each layer.

A :class:`Tracer` patches entry points from the outside (nothing in the
program changes) and records one span per call: id, name, layer, start,
end, parent id and iteration id.  Spans stay in memory and are written
once, at the end of the run.  A layer's self time is the summed duration
of its spans minus the parts covered by their child spans.

Backend ops are seen through the ``Backend.observers`` hook: the observer
fires after the op with its duration, so the span is recorded after the
fact and any span that opened inside it (the cluster's ``run_scan``) is
re-parented under it.
"""
from __future__ import annotations

import functools
import json
import time
from pathlib import Path

LAYERS = ("core", "machine", "backends", "cluster", "serve", "algorithms")

#: spans written per trace file (the in-memory record is never capped)
WRITE_CAP = 200_000

_ID, _NAME, _LAYER, _START, _END, _PARENT, _ITER = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.iteration = 0
        self._stack: list = []
        self._patches: list = []
        self._observed: list = []
        self._clock = time.perf_counter
        self._epoch = self._clock()

    # ----------------------------- recording ---------------------------- #

    def open(self, name: str, layer: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else None
        span = [len(self.spans), name, layer, self._clock() - self._epoch,
                None, parent, self.iteration]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[_END] = self._clock() - self._epoch
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def _on_backend_op(self, event) -> None:
        end = self._clock() - self._epoch
        start = end - event.seconds
        parent = self._stack[-1][_ID] if self._stack else None
        sid = len(self.spans)
        # spans opened inside the op (run_scan, exchange) were parented to
        # the enclosing span (Machine.execute, which does nothing else
        # around Backend.run); they belong under the op
        first = parent + 1 if parent is not None else 0
        for span in self.spans[first:]:
            if span[_PARENT] == parent:
                span[_PARENT] = sid
                start = min(start, span[_START])
        self.spans.append([sid, f"{event.backend}.{event.op}", "backends",
                           start, end, parent, self.iteration])

    # ------------------------------ wiring ------------------------------ #

    def wrap(self, owner, attr: str, layer: str, name: str = "") -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        by a span-recording wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        label = name or attr

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(label, layer, original, *args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def observe(self, backend) -> None:
        backend.observers.append(self._on_backend_op)
        self._observed.append(backend)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for backend in self._observed:
            backend.observers.remove(self._on_backend_op)
        self._observed.clear()

    # ------------------------------ results ----------------------------- #

    def self_seconds(self) -> dict:
        """Self time per layer, in seconds, over every closed span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_END] is not None and span[_PARENT] is not None:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        out: dict = {}
        for span in self.spans:
            if span[_END] is None:
                continue
            own = span[_END] - span[_START] - child_time[span[_ID]]
            out[span[_LAYER]] = out.get(span[_LAYER], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = self.spans[:WRITE_CAP]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "layer", "start_s", "end_s",
                                  "parent", "iteration"],
                       "total_spans": len(self.spans),
                       "spans": rows}, fh, separators=(",", ":"))


def report_self_times(result, self_seconds: dict) -> None:
    """Self time of every layer, in ms, as per-layer metrics."""
    for layer in LAYERS:
        result.put(f"trace.{layer}.self_ms",
                   self_seconds.get(layer, 0.0) * 1e3, "ms")


def report_overhead(result, tracer: Tracer, untraced: float,
                    traced: float, path: Path) -> None:
    """The tracing overhead (``untraced``/``traced`` are the same headline
    number measured without and with the tracer attached) and the span
    count; writes the spans to ``path``."""
    tracer.write(path)
    result.put("trace.overhead_pct", (traced - untraced) / untraced * 100,
               "%")
    result.put("trace.spans", len(tracer.spans), "count")
