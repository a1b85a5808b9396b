"""Pluggable execution backends for the machine's vector primitives.

The cost model (:mod:`repro.machine`) decides what a primitive *charges*;
a :class:`Backend` decides how it *computes*.  Five are shipped:

* :class:`BlockedBackend` (``"blocked"`` / ``"blocked:<chunk>"``) —
  fixed-size chunks with carry propagation across chunk boundaries, the
  paper's Figure 10 long-vector schedule executed for real;
* :class:`NumPyBackend` (``"numpy"``, the default) — whole-vector
  execution, which is the blocked engine with one chunk that holds any
  vector: one NumPy step per primitive, step-identical to the
  pre-backend code;
* :class:`DistributedBackend` (``"distributed"`` /
  ``"distributed:<workers>[:<min_n>]"``) — shards across supervised OS
  worker processes with shared memory, a round-efficient carry exchange,
  and fault-tolerant retry/degradation (see :mod:`repro.cluster`);
* :class:`NativeBackend` (``"native"`` / ``"native:<threads>[:<block>]"``)
  — the blocked engine with ``chunk = block``; ``threads`` is reserved
  for a thread-parallel sweep (see :mod:`repro.backends.native`);
* :class:`ReferenceBackend` (``"reference"``) — pure-Python per-element
  loops, the differential-testing oracle.

Selection: ``Machine(..., backend="blocked")`` takes a registry name, a
``"name:<args>"`` spec (each backend documents its own ``spec_syntax``),
or a :class:`Backend` instance; when omitted, the ``REPRO_BACKEND``
environment variable is honored (same syntax) before falling back to
``"numpy"``.
"""
from __future__ import annotations

import os
from typing import Optional, Union

from .base import Backend, OpEvent
from .blocked import BlockedBackend
from .distributed import DistributedBackend
from .native import NativeBackend
from .numpy_backend import NumPyBackend
from .reference import ReferenceBackend

__all__ = [
    "Backend",
    "BlockedBackend",
    "DistributedBackend",
    "NativeBackend",
    "NumPyBackend",
    "OpEvent",
    "ReferenceBackend",
    "available_backends",
    "backend_specs",
    "get_backend",
    "resolve_backend",
]

_REGISTRY: dict[str, type[Backend]] = {
    NumPyBackend.name: NumPyBackend,
    BlockedBackend.name: BlockedBackend,
    DistributedBackend.name: DistributedBackend,
    NativeBackend.name: NativeBackend,
    ReferenceBackend.name: ReferenceBackend,
}

#: environment variable consulted when no backend is passed explicitly
BACKEND_ENV_VAR = "REPRO_BACKEND"


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_specs() -> list[str]:
    """Each registered backend's spec syntax (its name when it takes no
    arguments), sorted by name — the vocabulary of ``Machine(backend=...)``
    strings and :data:`BACKEND_ENV_VAR` values."""
    return [(_REGISTRY[name].spec_syntax or name)
            for name in available_backends()]


def get_backend(spec: str) -> Backend:
    """Instantiate a backend from a spec string.

    A spec is a registry name, optionally followed by ``:<arguments>``
    the backend itself parses (:meth:`Backend.from_spec`) — e.g.
    ``"blocked:4096"`` or ``"distributed:8:100000"``.
    """
    name, _, arg = spec.partition(":")
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown backend {name!r}; available backends: "
            f"{', '.join(available_backends())} "
            f"(spec syntax: {', '.join(backend_specs())}); select one via "
            f"Machine(backend=...) or the {BACKEND_ENV_VAR} environment "
            f"variable"
        )
    return cls.from_spec(arg)


def resolve_backend(backend: Optional[Union[str, Backend]]) -> Backend:
    """Resolve the ``Machine(backend=...)`` argument: an instance passes
    through, a string is looked up, and ``None`` consults
    :data:`BACKEND_ENV_VAR` before defaulting to ``"numpy"``."""
    if backend is None:
        env = os.environ.get(BACKEND_ENV_VAR)
        if not env:
            return NumPyBackend()
        try:
            return get_backend(env)
        except ValueError as exc:
            # name the env var: the bad spec came from the environment,
            # not from any visible call site
            raise ValueError(
                f"invalid {BACKEND_ENV_VAR} value {env!r}: {exc}") from exc
    if isinstance(backend, str):
        return get_backend(backend)
    if isinstance(backend, Backend):
        return backend
    raise TypeError(
        f"backend must be a name, a Backend instance or None, "
        f"got {type(backend).__name__}"
    )
