"""The native backend: the blocked engine at ``chunk = block``.

The paper's work-efficient circuit (Section 1.3) computes a scan in two
sweeps over a balanced tree; on a multicore CPU the tree degenerates into
the classic block decomposition — scan each block, scan the block
carries, fold each carry back in (Figure 10's long-vector schedule, and
the shape GPU scan kernels and LightScan use).  That schedule is written
once, as the carry monoids of :mod:`repro.backends.carry` and their one
loop, :func:`~repro.backends.carry.sweep`; :class:`NativeBackend` *is*
:class:`BlockedBackend` with ``chunk = block`` and overrides no op, so
every op runs blocked's own code (its chunk loop, or its one-chunk
step), frame for frame.

What the backend adds is its spec, ``native[:<threads>[:<block>]]``:
``block`` is the chunk, and ``threads`` is reserved for a thread-parallel
sweep (each thread runs ``local`` over its run of blocks, the host
combines the carries, each thread applies its own) — until then every
sweep runs on one thread, which the ``native.threads`` gauge reports.

Conformance: exactly blocked's at the same chunk — integer and boolean
results bit-identical to every other backend, float ``+``-scans
re-associated across blocks within the verifier's documented additive
tolerance, extremes exact under the shared carry kernel's NaN ordering
(``docs/verification.md``).

Selection: ``Machine(backend="native")``, ``native:<threads>``,
``native:<threads>:<block>`` (``threads=0`` = auto), or
``REPRO_BACKEND=native``.
"""
from __future__ import annotations

from .blocked import BlockedBackend
from .carry import DEFAULT_CHUNK

__all__ = ["NativeBackend"]


class NativeBackend(BlockedBackend):
    """The blocked backend with ``chunk = block``, selected by thread
    count and block size."""

    name = "native"
    spec_syntax = "native[:<threads>[:<block>]]"

    @classmethod
    def from_spec(cls, arg: str) -> "NativeBackend":
        if not arg:
            return cls()
        parts = arg.split(":")
        if len(parts) > 2:
            raise ValueError(
                f"backend 'native' takes at most two arguments "
                f"({cls.spec_syntax}), got {arg!r}")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ValueError(
                f"backend 'native' takes integer arguments "
                f"({cls.spec_syntax}), got {arg!r}") from None
        kwargs = {"threads": numbers[0]}
        if len(numbers) == 2:
            kwargs["block"] = numbers[1]
        return cls(**kwargs)

    def __init__(self, threads: int = 0, block: int = DEFAULT_CHUNK) -> None:
        if threads < 0:
            raise ValueError(f"threads must be >= 0 (0 = auto), got {threads}")
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        super().__init__(chunk=block)
        #: reserved for the thread-parallel sweep; every sweep runs on one
        #: thread today
        self.threads = int(threads)
        self.block = self.chunk
        from ..observe.metrics import registry

        registry.gauge("native.threads").set(self.threads or 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NativeBackend(threads={self.threads}, block={self.block})"
