"""Hierarchical spans: where the steps, the time and the memory went.

A :class:`Profiler` attaches to a :class:`~repro.machine.Machine` at its
two existing observation points — the step counter's listener hook and
the execution backend's per-op observer hook — and attributes everything
that flows through them to the innermost open **span**::

    m = Machine("scan")
    with profile(m) as p:
        with p.span("sort"):
            split_radix_sort(m.vector(data))
        with p.span("merge"):
            halving_merge(...)
    for s, depth in p.root.walk():
        print("  " * depth, s.name, s.steps, s.wall_seconds)

Each span records, exclusively of its children: program-step charges
broken down by primitive kind, primitive invocation counts, wall-clock
time, backend op counts / op wall time / result bytes, and the peak
temporary-byte estimate reported by the backend
(:meth:`repro.backends.Backend.temp_bytes`).  The attached backend's
identity is stamped on the profiler, so a report always says *which*
engine produced its numbers.

Library code can mark phases without ever seeing a profiler:
:func:`span` (module-level) and the :func:`traced` decorator look up the
innermost active profiler and are exact no-ops when none is attached —
instrumentation is free when nobody is watching, and never touches step
charges or results either way (the cost-transparency suite in
``tests/test_backends.py`` pins this).
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

__all__ = [
    "Profiler",
    "Span",
    "current_profiler",
    "profile",
    "span",
    "traced",
]


@dataclass
class Span:
    """One labeled region of execution and everything charged inside it.

    All stored figures are **exclusive** of children (``self_*``);
    inclusive totals walk the subtree on demand, so nesting never double
    counts.
    """

    name: str
    parent: Optional["Span"] = field(default=None, repr=False)
    children: list["Span"] = field(default_factory=list, repr=False)
    #: step charges by primitive kind, exclusive of child spans
    self_by_kind: dict[str, int] = field(default_factory=dict)
    #: primitive invocations charged directly in this span
    self_ops: int = 0
    #: seconds since the profiler's epoch (None until entered/exited)
    t_start: Optional[float] = None
    t_end: Optional[float] = None
    #: backend ops executed directly in this span
    backend_ops: int = 0
    #: wall seconds spent inside backend primitives in this span
    backend_seconds: float = 0.0
    #: bytes of primitive results materialized in this span
    out_bytes: int = 0
    #: largest single-op temporary-byte estimate seen in this span
    peak_temp_bytes: int = 0

    # ------------------------------------------------------------------ #

    @property
    def self_steps(self) -> int:
        return sum(self.self_by_kind.values())

    @property
    def steps(self) -> int:
        """Inclusive program steps: this span plus all descendants."""
        return self.self_steps + sum(c.steps for c in self.children)

    @property
    def ops(self) -> int:
        """Inclusive primitive invocations."""
        return self.self_ops + sum(c.ops for c in self.children)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration (0.0 while still open)."""
        if self.t_start is None or self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def by_kind(self) -> dict[str, int]:
        """Inclusive step charges by primitive kind."""
        out = dict(self.self_by_kind)
        for c in self.children:
            for k, v in c.by_kind().items():
                out[k] = out.get(k, 0) + v
        return out

    def walk(self) -> Iterator[tuple["Span", int]]:
        """Depth-first ``(span, depth)`` over this span and descendants."""
        stack: list[tuple[Span, int]] = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))

    def to_dict(self) -> dict:
        """JSON-ready rendering (recursive; used by the exporters)."""
        return {
            "name": self.name,
            "steps": self.steps,
            "self_steps": self.self_steps,
            "ops": self.ops,
            "by_kind": dict(sorted(self.by_kind().items())),
            "t_start": self.t_start,
            "t_end": self.t_end,
            "wall_seconds": self.wall_seconds,
            "backend_ops": self.backend_ops,
            "backend_seconds": self.backend_seconds,
            "out_bytes": self.out_bytes,
            "peak_temp_bytes": self.peak_temp_bytes,
            "children": [c.to_dict() for c in self.children],
        }


#: innermost-last stack of attached profilers (module-level spans and the
#: ``traced`` decorator route here; plain lists — no threading in scope)
_ACTIVE: list["Profiler"] = []


def current_profiler() -> Optional["Profiler"]:
    """The innermost attached profiler, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


class Profiler:
    """Records spans, charges and backend ops for one machine.

    Use via :func:`profile` (attach for a block) or construct detached
    and call :meth:`attach` / :meth:`detach` explicitly.  Attaching is
    purely observational: listeners are appended to the machine's
    existing hooks and removed on detach, so steps and results are
    bit-identical with or without a profiler.
    """

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._epoch = clock()
        self.root = Span("(root)", t_start=0.0)
        self._stack: list[Span] = [self.root]
        self.machine = None
        #: name of the attached machine's backend ("?" before attach)
        self.backend_name: str = "?"

    # ------------------------------ wiring ----------------------------- #

    def attach(self, machine) -> None:
        if self.machine is not None:
            raise RuntimeError("profiler is already attached")
        self.machine = machine
        self.backend_name = machine.backend.name
        machine.counter.listeners.append(self._on_charge)
        machine.backend.observers.append(self._on_backend_op)
        _ACTIVE.append(self)

    def detach(self) -> None:
        if self.machine is None:
            return
        self.machine.counter.listeners.remove(self._on_charge)
        self.machine.backend.observers.remove(self._on_backend_op)
        _ACTIVE.remove(self)
        self.machine = None
        if self.root.t_end is None:
            self.root.t_end = self._now()

    def _now(self) -> float:
        return self._clock() - self._epoch

    # ----------------------------- recording --------------------------- #

    def _on_charge(self, kind: str, cost: int) -> None:
        cur = self._stack[-1]
        cur.self_by_kind[kind] = cur.self_by_kind.get(kind, 0) + cost
        cur.self_ops += 1

    def _on_backend_op(self, event) -> None:
        cur = self._stack[-1]
        cur.backend_ops += 1
        cur.backend_seconds += event.seconds
        cur.out_bytes += event.out_bytes
        if event.temp_bytes > cur.peak_temp_bytes:
            cur.peak_temp_bytes = event.temp_bytes

    # ------------------------------- spans ------------------------------ #

    @contextmanager
    def span(self, name: str):
        """Open a child span of the current span for the block."""
        s = Span(name, parent=self._stack[-1], t_start=self._now())
        self._stack[-1].children.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.t_end = self._now()
            self._stack.pop()

    @property
    def current_span(self) -> Span:
        return self._stack[-1]

    # ----------------------------- summaries ---------------------------- #

    @property
    def total_steps(self) -> int:
        return self.root.steps

    def by_kind(self) -> dict[str, int]:
        return self.root.by_kind()

    def close(self) -> None:
        """Stamp the root span's end time (idempotent)."""
        if self.root.t_end is None:
            self.root.t_end = self._now()


@contextmanager
def profile(machine):
    """Attach a fresh :class:`Profiler` to ``machine`` for the block."""
    p = Profiler()
    p.attach(machine)
    try:
        yield p
    finally:
        p.detach()


@contextmanager
def span(name: str):
    """Label a phase against the innermost active profiler, if any.

    Library and algorithm code uses this form: with no profiler attached
    it opens nothing and costs (almost) nothing, so algorithms can stay
    permanently instrumented.
    """
    p = current_profiler()
    if p is None:
        yield None
    else:
        with p.span(name) as s:
            yield s


def traced(name: Optional[str] = None):
    """Decorator form of :func:`span`: the whole call is one span, named
    after the function unless ``name`` is given."""
    def decorate(fn: Callable) -> Callable:
        label = name or fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
