"""Result caching keyed on input digests.

Scan workloads repeat: the same prefix-sum over the same vector arrives
from many clients (dashboards re-rendering, retries, idempotent
pipelines).  Results here are pure functions of ``(op, dtype, values,
segment layout, backend)``, so a digest of exactly those fields is a
sound cache key — there is no state to invalidate, only capacity to
manage (LRU).  Each field is **length-prefixed** before hashing:
concatenating raw field bytes lets adjacent fields trade characters
(``key("x", uint8 [7])`` used to equal ``key("xu", int8 [7])`` because
``"x"+"uint8"`` and ``"xu"+"int8"`` are the same string), which served a
wrong-dtype answer to a colliding request.  The backend identity is part
of the key because results can legitimately differ across engines (float
``+``-carries re-associate per chunk schedule), so a server restarted
onto a different backend must not inherit digests minted by another.

A hit skips machine execution entirely and is metered at **zero steps**
(no work was done; the cost model should say so).  The stored array is
returned as a read-only copy each time so a cached response can never be
corrupted by a later caller.
"""
from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["CachedResult", "ResultCache"]


@dataclass(frozen=True)
class CachedResult:
    """One cached response payload."""

    values: np.ndarray
    steps: int                 #: what the original execution charged


class ResultCache:
    """A bounded LRU of digest -> :class:`CachedResult`.

    ``max_entries <= 0`` disables caching (every lookup misses, nothing
    is stored), so the server can carry one unconditional code path.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, CachedResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    #: bumped whenever the digest layout changes, so stale digests from
    #: an earlier scheme can never alias a current one
    KEY_VERSION = b"v2"

    @staticmethod
    def key(op: str, values: np.ndarray, seg_lengths: Optional[tuple],
            backend: str = "") -> str:
        """The input digest: op name, backend identity, dtype, raw bytes,
        segment layout — every field length-prefixed (see module
        docstring)."""
        h = hashlib.sha256()
        fields = [
            ResultCache.KEY_VERSION,
            op.encode(),
            backend.encode(),
            str(values.dtype).encode(),
            np.ascontiguousarray(values).tobytes(),
            (b"" if seg_lengths is None
             else np.asarray(seg_lengths, dtype=np.int64).tobytes()),
            b"segmented" if seg_lengths is not None else b"flat",
        ]
        for field in fields:
            h.update(len(field).to_bytes(8, "big"))
            h.update(field)
        return h.hexdigest()

    def get(self, key: Optional[str]) -> Optional[CachedResult]:
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return CachedResult(entry.values.copy(), entry.steps)

    def put(self, key: Optional[str], values: np.ndarray,
            steps: int) -> None:
        if not self.enabled:
            return
        self._entries[key] = CachedResult(np.asarray(values).copy(),
                                          int(steps))
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def snapshot(self) -> dict:
        total = self.hits + self.misses
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / total, 4) if total else 0.0}
