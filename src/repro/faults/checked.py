"""Checked scan execution: verify, retry, degrade.

This is the recovery half of :mod:`repro.faults`.  A
:class:`~repro.machine.Machine` constructed with ``reliability=...``
routes every primitive scan through :func:`reliable_plus_scan` /
:func:`reliable_max_scan`:

1. run the primitive (one ``scan`` charge — and the point where a
   :class:`~repro.faults.FaultInjector` may corrupt the output);
2. cross-verify it against an independent Section 3.4 construction
   (:func:`repro.core.simulate.sim_verify_plus_scan` /
   :func:`~repro.core.simulate.sim_verify_max_scan`), charging the
   verification's true extra steps;
3. on a mismatch, retry up to ``policy.max_retries`` times, re-charging
   the full attempt each time;
4. when retries are exhausted, either mark the scan unit hard-failed and
   *degrade*: serve this and every later scan with the EREW ``2⌈lg n⌉``
   tree-scan costing (charged under the ``scan_degraded`` kind so the
   regime is visible in every :class:`~repro.machine.StepSnapshot` and
   trace), or raise :class:`~repro.faults.ScanVerificationError` if the
   policy forbids degrading.

The verification scans run with checking suppressed (the checker cannot
check itself) but remain subject to the machine's fault injector — a
corrupted verifier is a detectable false alarm, exactly as in hardware.
All counts land in ``machine.fault_counters``
(:class:`~repro.machine.counters.FaultCounters`).
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..baselines.erew_scan import erew_scan_steps
from ..core import scans
from ..core.simulate import sim_verify_max_scan, sim_verify_plus_scan
from ..core.vector import Vector
from .plan import ReliabilityPolicy, ScanVerificationError

__all__ = ["reliable_plus_scan", "reliable_max_scan"]


@contextmanager
def _unchecked(machine):
    """Suppress checked-scan dispatch while running the raw primitive and
    its verifier (the checker cannot recursively check itself)."""
    prev = machine._suppress_scan_check
    machine._suppress_scan_check = True
    try:
        yield
    finally:
        machine._suppress_scan_check = prev


def reliable_plus_scan(v: Vector) -> Vector:
    return _reliable_scan(v, "plus", None)


def reliable_max_scan(v: Vector, identity=None) -> Vector:
    return _reliable_scan(v, "max", identity)


def _reliable_scan(v: Vector, which: str, identity) -> Vector:
    m = v.machine
    policy = m.reliability if m.reliability is not None else ReliabilityPolicy()
    if m.scan_unit_failed:
        return _degraded_scan(v, which, identity)

    attempts = policy.max_retries + 1
    for attempt in range(attempts):
        with _unchecked(m):
            if which == "plus":
                out = scans.plus_scan(v)
                ok = sim_verify_plus_scan(v, out)
            else:
                out = scans.max_scan(v, identity=identity)
                ok = sim_verify_max_scan(v, out, identity=identity)
        if ok:
            if attempt:
                m.fault_counters.bump("corrected")
            return out
        m.fault_counters.bump("detected")
        if attempt < attempts - 1:
            m.fault_counters.bump("retried")

    if policy.degrade_on_failure:
        m.scan_unit_failed = True
        return _degraded_scan(v, which, identity)
    raise ScanVerificationError(
        f"{which}-scan over {len(v)} elements failed verification on all "
        f"{attempts} attempts and the reliability policy forbids degrading"
    )


def _degraded_scan(v: Vector, which: str, identity) -> Vector:
    """Serve one scan from the EREW fallback: the ``2⌈lg n⌉`` tree of
    memory references (:mod:`repro.baselines.erew_scan` costing), charged
    under the ``scan_degraded`` kind.  The fallback bypasses the failed
    scan unit entirely, so it is not subject to scan-output injection."""
    m = v.machine
    n = len(v)
    m.counter.charge("scan_degraded", erew_scan_steps(n) if n else 0)
    m.fault_counters.bump("degraded_scans")
    data = v.data
    if which == "plus":
        if data.dtype == np.bool_:
            data = data.astype(np.int64)
        out = m.execute("plus_scan", data)
    else:
        if identity is None:
            identity = scans.max_identity(data.dtype)
        out = m.execute("max_scan", data, identity)
    return Vector._adopt(m, out)
