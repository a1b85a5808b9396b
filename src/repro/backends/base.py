"""The execution-backend protocol: *how* primitives compute.

The paper's central claim is about a **cost model** — what a primitive
charges (one program step) is a property of the machine model, not of the
substrate that happens to execute it.  This module makes that separation
structural: a :class:`Backend` computes raw results on raw NumPy arrays and
knows nothing about machines, models, steps or faults; the
:class:`~repro.machine.Machine` owns the charging and routes every
computation through its single dispatch point
(:meth:`repro.machine.Machine.execute`), where fault injection also
attaches.  Swapping the backend changes how vectors are executed —
all-at-once NumPy, fixed-size chunks with carry propagation, or a
pure-Python reference loop — while every step count stays bit-identical,
because charges never flow through a backend.

Semantics contract (shared by every implementation; the differential suite
in ``tests/test_backends.py`` enforces it):

* every method returns a **fresh** array (or a view of an immutable input)
  and never mutates its operands;
* scans are **exclusive**: ``out[i]`` combines elements ``0 .. i-1`` and
  ``out[0]`` is the operator's identity;
* ``max_scan`` clamps every output to at least ``identity`` (the paper's
  unsigned-integer convention), while the *segmented* extreme scans place
  ``identity`` only at segment heads — exactly the semantics of
  :mod:`repro.core.scans` / :mod:`repro.core.segmented` before the
  backend split;
* segmented operations require ``seg_flags[0]`` to be ``True`` (validated
  upstream by :func:`repro.core.segmented.check_segment_flags`).
"""
from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from ..observe.metrics import registry

__all__ = ["Backend", "OpEvent"]


@dataclass(frozen=True)
class OpEvent:
    """One executed primitive, as reported to backend observers.

    ``seconds`` is the op's wall-clock duration; ``out_bytes`` the size of
    the materialized result; ``temp_bytes`` the backend's estimate of its
    own peak working storage for the op (see :meth:`Backend.temp_bytes` —
    this is where the blocked backend's chunk-bounded temporaries become
    visible to a profiler).
    """

    op: str
    seconds: float
    out_bytes: int
    temp_bytes: int
    backend: str


def _result_bytes(out) -> int:
    """Bytes materialized by a primitive's result (0 for scalars)."""
    return int(out.nbytes) if isinstance(out, np.ndarray) else 0


class Backend(ABC):
    """Executes vector primitives on raw arrays; charges nothing."""

    #: registry name (``Machine(backend="<name>")`` / ``REPRO_BACKEND``)
    name: ClassVar[str] = "abstract"

    #: human-readable spec syntax shown by registry errors; empty means
    #: the bare name is the whole syntax (no arguments accepted)
    spec_syntax: ClassVar[str] = ""

    #: observers attached to this instance (see :attr:`observers`); the
    #: empty class default is what :meth:`run` reads until one attaches
    _observers: ClassVar = ()

    #: whether this engine executes lazy expression DAGs
    #: (:mod:`repro.core.lazy`) through a chunked ``fused_pipeline``; on
    #: every other engine elementwise ops run eagerly whatever the
    #: machine's ``fusion`` setting (see ``Machine.fusion_enabled``)
    fuses: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # this engine's ``backend.<name>.ops`` counter in the process-wide
        # registry (:mod:`repro.observe.metrics`), resolved once per class
        cls._ops = registry.counter(f"backend.{cls.name}.ops")

    @classmethod
    def from_spec(cls, arg: str) -> "Backend":
        """Build an instance from the spec's argument part (the text after
        ``name:``).  The base implementation accepts no argument; backends
        with parameters (blocked chunk size, distributed worker count)
        override this to parse theirs."""
        if arg:
            raise ValueError(f"backend {cls.name!r} takes no {arg!r} argument")
        return cls()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    # ------------------------------------------------------------------ #
    # Observability (repro.observe): per-op timing / memory hooks
    # ------------------------------------------------------------------ #

    @property
    def observers(self) -> list:
        """Callables receiving an :class:`OpEvent` after every primitive
        run through :meth:`run`.  Lazily created so subclasses need no
        ``__init__`` cooperation; empty means zero per-op overhead."""
        observers = self.__dict__.get("_observers")
        if observers is None:
            observers = self._observers = []
        return observers

    def run(self, op: str, *args, **kwargs):
        """Execute one primitive by name, counting it and notifying
        observers.

        This is the machine's entry point
        (:meth:`repro.machine.Machine.execute` delegates here).  With no
        observers attached it is a bare dispatch — one instance-dict
        lookup, one ``backend.<name>.ops`` add and the method call — so
        instrumentation stays strictly opt-in.  Observers are looked up on
        every call, so one attached at any time sees every later op.
        """
        if self._observers:
            return self._run_observed(op, args, kwargs)
        self._ops.value += 1
        return getattr(self, op)(*args, **kwargs)

    def _run_observed(self, op: str, args: tuple, kwargs: dict):
        """:meth:`run` with observers attached: time the op, count it,
        then hand every observer one :class:`OpEvent`."""
        t0 = time.perf_counter()
        out = getattr(self, op)(*args, **kwargs)
        seconds = time.perf_counter() - t0
        self._ops.value += 1
        out_bytes = _result_bytes(out)
        event = OpEvent(op=op, seconds=seconds, out_bytes=out_bytes,
                        temp_bytes=self.temp_bytes(op, out_bytes),
                        backend=self.name)
        for observer in self._observers:
            observer(event)
        return out

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """Estimated peak working storage for one op, in bytes.

        The base estimate is whole-vector: a temporary the size of the
        result.  Backends whose execution strategy bounds temporaries
        differently (chunked, per-element) override this — it is the
        memory half of the per-op observability hook, deliberately an
        *estimate*: exact allocator truth needs ``tracemalloc``, which
        costs far too much to leave attached.
        """
        return out_bytes

    # ------------------------------------------------------------------ #
    # Elementwise
    # ------------------------------------------------------------------ #

    @abstractmethod
    def elementwise(self, fn: Callable, *operands) -> np.ndarray:
        """Apply a vectorized elementwise function.

        ``operands`` mix 1-D arrays of one common length with scalar
        constants (immediates held in the instruction word); ``fn`` is a
        NumPy ufunc or a composition of ufuncs with no cross-element data
        flow, so a backend may evaluate it on any partition of the index
        space.
        """

    @abstractmethod
    def adjacent_ne(self, values: np.ndarray) -> np.ndarray:
        """``out[i] = values[i] != values[i-1]`` with ``out[0] = True``
        (one unit shift plus one compare — the neighbor-change idiom)."""

    # ------------------------------------------------------------------ #
    # The two primitive scans
    # ------------------------------------------------------------------ #

    @abstractmethod
    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        """Exclusive ``+-scan``; ``out[0] = 0``."""

    @abstractmethod
    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        """Exclusive ``max-scan``; every output is at least ``identity``."""

    # ------------------------------------------------------------------ #
    # Communication
    # ------------------------------------------------------------------ #

    @abstractmethod
    def permute(self, values: np.ndarray, index: np.ndarray, length: int,
                default) -> np.ndarray:
        """Exclusive scatter: ``out[index[i]] = values[i]``; unwritten
        cells hold ``default``.  Indices are pre-validated unique."""

    @abstractmethod
    def gather(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Parallel read: ``out[i] = values[index[i]]``."""

    @abstractmethod
    def combine_write(self, values: np.ndarray, index: np.ndarray,
                      length: int, op: str, default) -> np.ndarray:
        """Scatter with colliding destinations combined by ``op``
        (``"min"``, ``"max"``, ``"sum"`` or ``"any"`` = last writer wins);
        untouched cells hold ``default``."""

    @abstractmethod
    def pack(self, values: np.ndarray, flags: np.ndarray,
             index: np.ndarray, count: int) -> np.ndarray:
        """Write each flagged element to ``out[index[i]]`` in a fresh
        ``count``-element vector (``index`` = ``enumerate(flags)``)."""

    @abstractmethod
    def shift(self, values: np.ndarray, k: int, fill) -> np.ndarray:
        """Shift ``k`` places toward higher indices (``k < 0`` lower);
        vacated cells hold ``fill``."""

    @abstractmethod
    def reverse(self, values: np.ndarray) -> np.ndarray:
        """The vector in reverse processor order."""

    # ------------------------------------------------------------------ #
    # Broadcast / reduce
    # ------------------------------------------------------------------ #

    @abstractmethod
    def full(self, length: int, value, dtype) -> np.ndarray:
        """``value`` broadcast to every one of ``length`` cells."""

    @abstractmethod
    def reduce(self, values: np.ndarray, op: str):
        """All elements combined to one scalar; ``op`` is ``"sum"``,
        ``"max"``, ``"min"``, ``"any"`` or ``"all"``.  ``values`` is
        non-empty (callers special-case the empty reduction's identity)."""

    # ------------------------------------------------------------------ #
    # Segmented operations (Section 2.3 / 3.4)
    # ------------------------------------------------------------------ #

    @abstractmethod
    def segment_ids(self, seg_flags: np.ndarray) -> np.ndarray:
        """0-based segment number of each element (int64)."""

    @abstractmethod
    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        """Exclusive ``+-scan`` restarting at every segment head."""

    @abstractmethod
    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        """Exclusive per-segment running max (or min); segment heads
        receive ``identity``."""

    @abstractmethod
    def seg_copy(self, values: np.ndarray,
                 seg_flags: np.ndarray) -> np.ndarray:
        """Each segment's first element copied across its segment."""

    @abstractmethod
    def seg_back_copy(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        """Each segment's last element copied across its segment."""

    @abstractmethod
    def seg_distribute(self, values: np.ndarray, seg_flags: np.ndarray,
                       op: str) -> np.ndarray:
        """Per-segment reduction delivered to every element of the
        segment; ``op`` is ``"sum"``, ``"max"``, ``"min"``, ``"or"`` or
        ``"and"``."""
