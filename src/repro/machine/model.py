"""Simulated P-RAM machines with explicit program-step cost models.

The paper's central move is a *cost-model* change: take an EREW P-RAM and add
two scan operations (``+-scan`` and ``max-scan``) as primitives costing one
program step, the same as a parallel memory reference.  Python gives us no
physical P-RAM, so this module provides the closest executable equivalent: a
:class:`Machine` that *computes* every vector primitive with vectorized NumPy
(for wall-clock speed) while *charging* program steps according to the model
it simulates.  Step counts — the quantity all of the paper's Table 1 and
Table 5 results are stated in — are therefore measured exactly, not timed.

Five models are provided (see :mod:`repro.machine.capabilities`): ``erew``,
``crew``, ``crcw`` (with the paper's combining-write extension), ``scan``
(EREW + unit-time scans), and ``binary-forking`` — the
Blelloch–Fineman–Gu–Sun successor to the P-RAM, where every primitive is
launched by a binary fork/join tree whose ``2⌈lg p⌉`` span is charged on
top of the block work and recorded spawn-for-sync in a
:class:`~repro.machine.counters.ForkCounters` ledger.  The same algorithm
code runs unchanged on any of them; only the charges differ.  Machines may also be constructed with fewer
processors than vector elements (``num_processors=p``), in which case each
processor simulates a contiguous block of ``ceil(n/p)`` elements exactly as in
the paper's Figure 10, and ``work = p * steps`` gives the processor-step
complexity of Table 5.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from operator import attrgetter
from typing import Optional, Union

import numpy as np

from ..backends import Backend, resolve_backend
from ..observe.metrics import registry as _metrics
from .capabilities import CAPABILITIES, Capabilities
from .counters import FaultCounters, ForkCounters, StepCounter, StepSnapshot

__all__ = ["Machine", "CapabilityError"]

def _fixed(name: str, doc: str) -> property:
    """A read-only public view of the private attribute ``name``, read in
    C (``attrgetter``), so reading it costs no Python frame."""
    return property(attrgetter(name), doc=doc)


class CapabilityError(RuntimeError):
    """An algorithm used a primitive the machine model does not provide.

    For example, a gather with duplicate indices is a concurrent read and is
    illegal on an EREW or scan-model machine, and an unconstrained scatter is
    a concurrent write, legal only on CRCW (or when the machine was created
    with ``allow_concurrent_write=True``, as the paper's line-drawing routine
    requires even in the scan model).
    """


class Machine:
    """A simulated P-RAM with a per-model program-step cost model.

    Parameters
    ----------
    model:
        One of ``"erew"``, ``"crew"``, ``"crcw"``, ``"scan"``,
        ``"binary-forking"``.
    num_processors:
        If given, simulate only ``p`` physical processors: an ``n``-element
        primitive charges ``ceil(n/p)`` sub-steps for its elementwise part
        (Figure 10's long-vector simulation).  If ``None`` (default) the
        machine always has as many processors as vector elements.
    allow_concurrent_write:
        Permit the "simplest form of concurrent write" (arbitrary winner /
        combining) on non-CRCW models, recording its use in
        ``concurrent_writes_used``.  The paper explicitly invokes this for
        placing line-drawing pixels on the grid.
    seed:
        Seed for the machine's ``numpy.random.Generator`` used by the
        probabilistic algorithms (quicksort pivots, MST coin flips, MIS).
    reliability:
        A :class:`repro.faults.ReliabilityPolicy`, or ``True`` for the
        default policy.  When set, the primitive scans are *checked*:
        every ``plus_scan`` / ``max_scan`` is cross-verified against an
        independent Section 3.4 construction, retried on mismatch, and —
        once retries are exhausted — the machine degrades to the EREW
        ``2⌈lg n⌉`` tree-scan costing (see :mod:`repro.faults.checked`).
        ``None`` (default) leaves scans unchecked and uncharged for
        verification — step counts are bit-identical to a plain machine.
    fault_injector:
        A :class:`repro.faults.FaultInjector` that corrupts primitive
        outputs (scan / elementwise / permute) on its schedule.  ``None``
        (default) disables injection with zero overhead.
    backend:
        The execution backend computing every primitive's result: a name
        (``"numpy"``, ``"blocked"``, ``"blocked:<chunk>"``,
        ``"native"``, ``"native:<threads>[:<block>]"``,
        ``"distributed"``, ``"distributed:<workers>[:<min_n>]"``,
        ``"reference"``), a :class:`repro.backends.Backend` instance, or
        ``None`` (default) to honor the ``REPRO_BACKEND`` environment
        variable before falling back to vectorized NumPy.  The backend
        changes only *how* results are computed; charges, capabilities
        and fault handling are backend-independent (see
        :mod:`repro.backends`).
    fusion:
        Whether elementwise vector operations may build lazy expression
        DAGs fused into single ``fused_pipeline`` primitives at observable
        boundaries (see :mod:`repro.core.lazy` and ``docs/fusion.md``);
        on by default.  The setting only takes effect on a backend that
        fuses (one whose chunked executor consumes the DAG: ``blocked``
        and ``native``); every other backend runs elementwise ops
        eagerly either way.  Step charges are bit-identical in all
        cases — fusion changes execution, never the cost model.  Fusion
        is suspended automatically while a ``fault_injector`` is
        attached (injection targets individual eager primitives).

    Examples
    --------
    >>> m = Machine("scan")
    >>> v = m.vector([2, 1, 2, 3, 5, 8, 13, 21])
    >>> from repro.core import scans
    >>> scans.plus_scan(v).to_list()
    [0, 2, 3, 5, 8, 13, 21, 34]
    >>> m.steps
    1
    """

    def __init__(
        self,
        model: str = "scan",
        *,
        num_processors: Optional[int] = None,
        allow_concurrent_write: bool = False,
        seed: Optional[int] = None,
        reliability=None,
        fault_injector=None,
        backend: Optional[Union[str, Backend]] = None,
        fusion: bool = True,
    ) -> None:
        if model not in CAPABILITIES:
            raise ValueError(
                f"unknown machine model {model!r}; expected one of {sorted(CAPABILITIES)}"
            )
        if num_processors is not None and num_processors < 1:
            raise ValueError(f"num_processors must be >= 1, got {num_processors}")
        # the configuration is fixed here, and the charges' constants are
        # derived from it once, so its public names are read-only
        self._model = model
        self._capabilities: Capabilities = CAPABILITIES[model]
        self._backend: Backend = resolve_backend(backend)
        self._fusion = bool(fusion)
        self._num_processors = num_processors
        # the processor count the charges compute with: unbounded is
        # larger than any vector (see the charging section)
        self._P = num_processors or sys.maxsize
        self._allow_concurrent_write = allow_concurrent_write
        self._fault_injector = fault_injector
        # fusion is suspended while an injector is attached: its schedule
        # addresses individual eager primitives
        self._fusion_enabled = (self._fusion and self._backend.fuses
                                and fault_injector is None)
        self.counter = StepCounter()
        #: spawn/sync/revoke ledger (only the binary-forking model moves
        #: the spawn/sync columns; revokes are model-independent)
        self.fork_counters = ForkCounters()
        self.concurrent_writes_used = 0
        self.peak_elements = 0
        self.rng = np.random.default_rng(seed)
        if reliability is True:
            from ..faults.plan import ReliabilityPolicy

            reliability = ReliabilityPolicy()
        #: reliability policy for checked scans (None = unchecked)
        self.reliability = reliability
        #: fault ledger; shared with the injector's when one is attached
        self.fault_counters: FaultCounters = (
            fault_injector.counters if fault_injector is not None
            else FaultCounters()
        )
        #: set when checked scans exhaust retries: every later scan is
        #: served by the EREW fallback (see ``fail_scan_unit``)
        self.scan_unit_failed = False
        # re-entrancy latch: True while a checked scan runs its raw
        # primitive / verifier (the checker cannot check itself)
        self._suppress_scan_check = False
        # process-wide metrics (repro.observe): handles cached here so the
        # charging hot path pays one attribute access, not a name lookup
        _metrics.counter("machine.instances").inc()
        self._metric_scan_invocations = _metrics.counter("scan.invocations")
        self._metric_scan_n = _metrics.histogram("scan.n")
        self._metric_fused_pipelines = _metrics.counter("fusion.pipelines")
        self._metric_fused_steps = _metrics.counter("fusion.fused_steps")

    # ------------------------------------------------------------------ #
    # Configuration (read-only: fixed at construction)
    # ------------------------------------------------------------------ #

    model = _fixed("_model", "The model name (``\"scan\"``, ``\"erew\"``, ...).")
    capabilities = _fixed("_capabilities",
                          "The model's :class:`Capabilities` row.")
    num_processors = _fixed("_num_processors",
                            "Physical processors ``p``; ``None`` = one per "
                            "element.")
    allow_concurrent_write = _fixed("_allow_concurrent_write",
                                    "Whether combining writes are allowed "
                                    "off the CRCW model.")
    backend = _fixed("_backend", "The execution backend computing every "
                     "primitive (see ``execute``).")
    fusion = _fixed("_fusion", "The lazy-fusion setting (see "
                    "``fusion_enabled`` for the gate).")
    fault_injector = _fixed("_fault_injector", "The fault injector "
                            "corrupting primitive outputs, or ``None``.")
    fusion_enabled = _fixed("_fusion_enabled", """\
Whether elementwise ops defer into lazy DAGs: the machine's ``fusion``
setting, on a backend that fuses (``Backend.fuses``), with no fault
injector attached (the injector's schedule addresses individual eager
primitives, so fused execution would change which outputs it corrupts).""")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def steps(self) -> int:
        """Total program steps charged so far (the paper's step complexity)."""
        return self.counter.steps

    @property
    def processors(self) -> int:
        """Number of physical processors: ``num_processors`` if fixed,
        otherwise the largest vector length seen so far."""
        return self.num_processors if self.num_processors is not None else self.peak_elements

    @property
    def work(self) -> int:
        """Processor-step complexity: ``processors * steps`` (Table 5)."""
        return self.processors * self.steps

    def reset(self) -> None:
        """Zero all counters and clear the degraded-scan latch (the RNG
        state and any attached injector's schedule position are kept)."""
        self.counter.reset()
        self.fork_counters.reset()
        self.concurrent_writes_used = 0
        self.peak_elements = 0
        self.fault_counters.reset()
        self.scan_unit_failed = False

    def fail_scan_unit(self) -> None:
        """Mark the scan unit hard-failed: every subsequent primitive scan
        is served by the EREW ``2⌈lg n⌉`` fallback (charged as
        ``scan_degraded``).  Checked machines reach this state on their own
        when retries are exhausted; calling it directly models a known-bad
        unit."""
        self.scan_unit_failed = True

    def snapshot(self) -> StepSnapshot:
        """A point-in-time reading, stamped with the active backend's name
        and fusion setting so profile reports and failure messages
        identify the engine configuration."""
        return self.counter.snapshot(backend=self._backend.name,
                                     fusion=self._fusion)

    @contextmanager
    def measure(self):
        """``with m.measure() as r: ...`` then ``r.delta.steps``.

        Like :meth:`StepCounter.measure`, but the delta snapshot carries
        this machine's backend name."""
        before = self.snapshot()

        class _Holder:
            delta: Optional[StepSnapshot] = None

        holder = _Holder()
        try:
            yield holder
        finally:
            holder.delta = self.snapshot() - before

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.num_processors if self.num_processors is not None else "n"
        return (f"Machine(model={self.model!r}, p={p}, "
                f"backend={self.backend.name!r}, "
                f"fusion={'on' if self.fusion else 'off'}, "
                f"steps={self.steps})")

    # ------------------------------------------------------------------ #
    # Execution dispatch
    # ------------------------------------------------------------------ #

    def execute(self, op: str, *args, inject: Optional[str] = None, **kwargs):
        """The single dispatch point between cost model and computation.

        Runs one primitive on the execution backend and, when ``inject``
        names a fault kind (``"scan"``, ``"elementwise"`` or
        ``"permute"``), exposes the raw output to the machine's fault
        injector.  Every primitive in :mod:`repro.core` computes through
        here — never through NumPy directly — so swapping the backend (or
        attaching an injector) covers the whole primitive set at once.
        Charging stays with the ``charge_*`` methods: ``execute`` costs
        nothing.  Dispatch goes through :meth:`repro.backends.Backend.run`,
        the per-op observability hook — an attached profiler sees every
        primitive's wall time and byte estimates from there.
        """
        out = self._backend.run(op, *args, **kwargs)
        if inject is not None and self._fault_injector is not None:
            out = self._fault_injector.corrupt_primitive(inject, out)
        return out

    def execute_fused(self, plan):
        """Run one compiled :class:`~repro.backends.plan.FusedPlan`.

        The plan's logical charges were paid op by op when the lazy
        expression was built (see :mod:`repro.core.lazy`), so this only
        executes — through the same dispatch as every primitive, which is
        where observers see the pipeline's wall time and true temp
        bytes — and counts the pipeline in the process-wide metrics."""
        self._metric_fused_pipelines.inc()
        self._metric_fused_steps.inc(len(plan.steps))
        return self.execute("fused_pipeline", plan)

    # ------------------------------------------------------------------ #
    # Charging API (used by Vector / core ops and the algorithms)
    # ------------------------------------------------------------------ #
    #
    # The paper's formulas (docs/cost_model.md) in closed form over an
    # n-element primitive, with every per-machine constant bound in
    # __init__: _P is the processor count (sys.maxsize when unbounded,
    # larger than any n), so
    #
    #   block          b = ceil(n / min(P, n)) = -(-n // P)
    #                      (0 for an empty vector; 1 for any other
    #                      when P is unbounded)
    #   processors     p = min(P, n)
    #   cross-scan         1 on the scan model and for p <= 1,
    #                      2⌈lg p⌉ = 2 * (p - 1).bit_length() elsewhere
    #
    # plus, on the binary-forking model, the 2⌈lg p⌉ span of the
    # fork/join tree launching the primitive (_fork).  Each charge is one
    # frame of arithmetic and one StepCounter.charge, and raises
    # peak_elements to n.  Those taking ``times`` charge that many
    # identical primitives at once: the counter, the fork ledger and the
    # scan.* metrics move by ``times``, and listeners still get one event
    # per primitive.

    def _fork(self, n: int, times: int = 1) -> int:
        """Record the fork/join trees launching ``times`` primitives over
        ``n`` elements (``p - 1`` spawns matched by ``p - 1`` syncs each:
        the tree always joins before the primitive returns, so the ledger
        reconciles at every quiescent point); return one tree's span
        ``2⌈lg p⌉``.  Called only on the forked model."""
        p = n if n < self._P else self._P
        if p <= 1:
            return 0
        self.fork_counters.bump("spawned", (p - 1) * times)
        self.fork_counters.bump("synced", (p - 1) * times)
        return 2 * (p - 1).bit_length()

    def charge_elementwise(self, n: int, times: int = 1) -> None:
        """One parallel arithmetic / logical / select step over ``n``
        elements (plus the fork/join span on the binary-forking model,
        where even a map must spawn its threads)."""
        if n > self.peak_elements:
            self.peak_elements = n
        span = self._fork(n, times) if self._capabilities.forked else 0
        self.counter.charge("elementwise", -(-n // self._P) + span, times)

    def charge_permute(self, n: int, times: int = 1) -> None:
        """One exclusive-write permutation step (unique destinations)."""
        if n > self.peak_elements:
            self.peak_elements = n
        span = self._fork(n, times) if self._capabilities.forked else 0
        self.counter.charge("permute", -(-n // self._P) + span, times)

    def charge_gather(self, n: int, *, unique: bool) -> None:
        """A parallel read ``A[I]``.  With duplicate indices this is a
        concurrent read, unavailable on EREW / scan machines."""
        caps = self._capabilities
        if not unique and not caps.concurrent_read:
            raise CapabilityError(
                f"gather with duplicate indices is a concurrent read, "
                f"illegal on the {self._model!r} model"
            )
        if n > self.peak_elements:
            self.peak_elements = n
        span = self._fork(n) if caps.forked else 0
        self.counter.charge("gather", -(-n // self._P) + span)

    def charge_combine_write(self, n: int) -> None:
        """A scatter with possibly-colliding destinations where collisions
        combine (min / arbitrary winner).  The paper's extended-CRCW write."""
        caps = self._capabilities
        if not caps.concurrent_write:
            if not self._allow_concurrent_write:
                raise CapabilityError(
                    f"combining/concurrent write is illegal on the {self._model!r} "
                    f"model; construct the Machine with allow_concurrent_write=True "
                    f"to permit it (as the paper does for line drawing)"
                )
            self.concurrent_writes_used += 1
        if n > self.peak_elements:
            self.peak_elements = n
        span = self._fork(n) if caps.forked else 0
        self.counter.charge("combine_write", -(-n // self._P) + span)

    def charge_block(self, kind: str, n: int) -> None:
        """One primitive of ``kind`` charged its bare block ``⌈n/p⌉`` —
        the algorithms' hand-charged gathers, permutes and memory steps.
        It adds no fork span, even on the binary-forking model (see
        ``docs/cost_model.md``)."""
        if n > self.peak_elements:
            self.peak_elements = n
        self.counter.charge(kind, -(-n // self._P))

    def charge_scan(self, n: int, times: int = 1) -> None:
        """One scan primitive (``times`` of them) over an ``n``-element
        vector: the cross-processor scan for one-element blocks, else
        Figure 10's serial scan within each block, cross-processor scan,
        and the processor offset added back (``2b + cross``).  On the
        forked model the tree sweep is computed on the fork/join walk
        itself, so the scan pays exactly the EREW count and only the
        ledger records the spawns."""
        self._metric_scan_invocations.value += times
        self._metric_scan_n.observe(n, times)
        if not n:
            self.counter.charge("scan", 0, times)
            return
        if n > self.peak_elements:
            self.peak_elements = n
        caps, P = self._capabilities, self._P
        b = -(-n // P)
        p = n if n < P else P
        if caps.forked:
            self._fork(n, times)
        cross = 1 if caps.unit_scan or p <= 1 else 2 * (p - 1).bit_length()
        self.counter.charge("scan", cross if b <= 1 else 2 * b + cross, times)

    def _charge_fan(self, kind: str, n: int, one_step: bool) -> None:
        """A broadcast- or reduce-shaped step: ``(b - 1) + cross`` with
        ``cross`` one step where the model has the capability
        (``one_step``), the fork span on the forked model (the mandatory
        fork/join walk carries the value; concurrent reads do not skip
        it), and a ``⌈lg p⌉`` tree otherwise."""
        if not n:
            self.counter.charge(kind, 0)
            return
        if n > self.peak_elements:
            self.peak_elements = n
        P = self._P
        b = -(-n // P)
        if self._capabilities.forked:
            cross = self._fork(n) or 1
        elif one_step:
            cross = 1
        else:
            cross = max(1, ((n if n < P else P) - 1).bit_length())
        self.counter.charge(kind, b - 1 + cross if b > 1 else cross)

    def charge_broadcast(self, n: int) -> None:
        """One value distributed to ``n`` processors.

        Concurrent-read machines do this in one memory step; EREW needs a
        ``lg p`` copy tree; the scan model does it with one scan (Section 2.2).
        """
        caps = self._capabilities
        self._charge_fan("broadcast", n,
                         caps.concurrent_read or caps.unit_scan)

    def charge_reduce(self, n: int) -> None:
        """All elements combined to one value (+, max, min, or, and).

        One combining write on extended CRCW, one scan on the scan model, a
        ``lg p`` tree otherwise.
        """
        caps = self._capabilities
        self._charge_fan("reduce", n, caps.combining_write or caps.unit_scan)

    def charge_test_and_set(self, n: int, *, revoked: int = 0) -> None:
        """One atomic reservation step over ``n`` cells: every contender
        test-and-sets (min-priority wins), the BFGS algorithms' one atomic.

        Native on models whose capabilities include ``test_and_set`` (the
        binary-forking model and the extended CRCW, whose combining write
        subsumes it); the other models *simulate* the colliding writes
        with a sort-and-segmented-copy charged ``2⌈lg p⌉`` extra on this
        one step — the same simulation :meth:`SparseMatrix.matvec
        <repro.algorithms.sparse.SparseMatrix.matvec>` charges for
        duplicate gathers, so the comparison table can run the BFGS
        algorithms on every model.  ``revoked`` records how many of the
        reservation attempts lost the race and must retry in a later
        round (the fork ledger's revoke column).
        """
        if revoked:
            if revoked < 0:
                raise ValueError(f"negative revoke count: {revoked}")
            self.fork_counters.bump("revoked", revoked)
        if not n:
            self.counter.charge("test_and_set", 0)
            return
        if n > self.peak_elements:
            self.peak_elements = n
        caps, P = self._capabilities, self._P
        b = -(-n // P)
        if caps.test_and_set:
            cost = b + (self._fork(n) if caps.forked else 0)
        else:
            p = n if n < P else P
            cost = b + (2 * (p - 1).bit_length() if p > 1 else 0)
        self.counter.charge("test_and_set", cost)

    # Segmented operations (Section 3.4): each charges its construction in
    # one call, so an op's 2-9 steps are a handful of frames, not dozens.

    def charge_segmented(self, n: int, *, scans: int,
                         elementwise: int) -> None:
        """One Section-3.4 construction over ``n`` elements: ``scans``
        primitive scans, then ``elementwise`` elementwise steps."""
        self.charge_scan(n, scans)
        self.charge_elementwise(n, elementwise)

    def charge_seg_copy(self, n: int) -> None:
        """One per-segment head broadcast: a write plus a concurrent read
        on CREW/CRCW (and binary-forking), the segmented max-scan
        construction (2 scans + 3 elementwise) elsewhere."""
        if self._capabilities.concurrent_read:
            self.charge_block("memory", n)
            self.charge_broadcast(n)
        else:
            self.charge_segmented(n, scans=2, elementwise=3)

    def charge_seg_distribute(self, n: int) -> None:
        """One per-segment reduce-and-spread.

        On an extended CRCW it is one combining write into the segment's
        cell plus a concurrent read back and the select (the O(1) step
        Table 1's CRCW column uses); every other model pays the
        Section-3.4 scan construction (4 scans + 5 elementwise).
        """
        caps = self._capabilities
        if caps.combining_write and caps.concurrent_read:
            self.charge_block("combine_write", n)
            self.charge_broadcast(n)
            self.charge_elementwise(n)
        else:
            self.charge_segmented(n, scans=4, elementwise=5)

    # ------------------------------------------------------------------ #
    # Vector factories
    # ------------------------------------------------------------------ #

    def vector(self, data, dtype=None) -> "Vector":
        """Create a :class:`~repro.core.vector.Vector` owned by this machine.

        An empty sequence without an explicit dtype becomes an int64 vector
        (NumPy's float64 default for ``[]`` is never what scan code wants).
        """
        from ..core.vector import Vector

        arr = np.asarray(data, dtype=dtype)
        if (dtype is None and arr.size == 0 and arr.dtype == np.float64
                and not isinstance(data, np.ndarray)):
            # only the [] literal gets the int64 default: an actual empty
            # float64 array keeps its dtype (identities depend on it)
            arr = arr.astype(np.int64)
        if arr is data:  # the caller's own array: defensive copy
            return Vector(self, arr)
        return Vector._adopt(self, arr)

    def flags(self, data) -> "Vector":
        """Create a boolean flag vector owned by this machine."""
        from ..core.vector import Vector

        arr = np.asarray(data, dtype=bool)
        if arr is data:
            return Vector(self, arr)
        return Vector._adopt(self, arr)

    def zeros(self, n: int, dtype=np.int64) -> "Vector":
        from ..core.vector import Vector

        return Vector._adopt(self, np.zeros(n, dtype=dtype))

    def arange(self, n: int) -> "Vector":
        """The index vector ``[0, 1, ..., n-1]`` (each processor knows its
        own address; no steps are charged)."""
        from ..core.vector import Vector

        return Vector._adopt(self, np.arange(n, dtype=np.int64))
