"""The default backend: whole-vector execution, the one-chunk blocked engine.

The paper's Figure 10 simulates a long vector on ``p`` processors by
giving each processor a block; whole-vector execution is the case of one
block.  :class:`NumPyBackend` is therefore :class:`BlockedBackend` with a
chunk that holds any vector: every primitive is one whole-vector NumPy
step, and each scan is its carry monoid's ``local``
(:mod:`repro.backends.carry`) over the whole vector, so one body per
primitive serves every in-process engine.  It does not fuse (a lazy chain
would run as one chunk anyway), so elementwise ops run eagerly.  Step
counts are bit-identical to every other engine, since backends charge
nothing.
"""
from __future__ import annotations

import sys

from .base import Backend
from .blocked import BlockedBackend

__all__ = ["NumPyBackend"]


class NumPyBackend(BlockedBackend):
    """Whole-vector execution: the blocked engine with one unbounded chunk."""

    name = "numpy"
    spec_syntax = ""
    fuses = False
    #: one chunk holds any vector
    chunk = sys.maxsize

    def __init__(self) -> None:
        """Nothing to configure: there is no chunk size to choose."""

    @classmethod
    def from_spec(cls, arg: str) -> "NumPyBackend":
        return Backend.from_spec.__func__(cls, arg)  # takes no argument

    __repr__ = Backend.__repr__
