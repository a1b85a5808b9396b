"""Scan-as-a-service: the paper's primitives behind a network socket.

The segmented scan's defining property — k independent scans laid head
to tail are *one* primitive — is an RPC batching strategy wearing a
1987 paper: concurrent small requests coalesce into a single segmented
mega-op, executed once through the ordinary machine/backend stack, and
every client still receives exactly the bits a solo run would have
produced.

Layers (each its own module, each independently testable):

* :mod:`~repro.serve.protocol` — wire frames (a JSON header line plus
  an optional raw attachment), validation, structured error codes;
* :mod:`~repro.serve.batching` — the servable-op registry, mega-op
  assembly, and the :class:`~repro.serve.batching.BatchEngine`;
* :mod:`~repro.serve.quota` — per-tenant step budgets metered by the
  cost model;
* :mod:`~repro.serve.cache` — input-digest result caching;
* :mod:`~repro.serve.server` — the asyncio server tying it together,
  with its :class:`~repro.serve.server.ServeLedger` (exact per-server
  SLO accounting, published under ``serve.*``);
* :mod:`~repro.serve.client` — the pipelining asyncio client.

``python -m repro serve`` runs it; ``docs/serving.md`` is the manual.
"""
from .batching import SERVABLE_OPS, BatchEngine, assemble, batchable
from .client import ServeClient, ServeError
from .protocol import ERROR_CODES, ProtocolError
from .server import ScanServer, ServeConfig

__all__ = [
    "SERVABLE_OPS",
    "BatchEngine",
    "assemble",
    "batchable",
    "ServeClient",
    "ServeError",
    "ERROR_CODES",
    "ProtocolError",
    "ScanServer",
    "ServeConfig",
]
