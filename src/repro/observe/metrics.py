"""A process-wide metrics registry, and the ledgers that feed it.

The cost model answers "how many program steps"; metrics answer the
operational questions around it — how many scans ran in this process, how
big they were, how many faults the checked machines detected — without any
caller having to thread a handle through every layer.  The design follows
the usual in-process metrics shape (Prometheus client, ``torch``'s
counters): named instruments live in one :class:`MetricsRegistry`,
publishers keep a cheap handle obtained once, and readers take an
immutable :meth:`~MetricsRegistry.snapshot`.

Publishers in this repository:

* :mod:`repro.machine` — ``machine.instances``, ``scan.invocations``
  and the ``scan.n`` histogram of scan lengths;
* :mod:`repro.backends` — ``backend.<name>.ops``, every primitive
  executed per backend;
* every :class:`Ledger` — ``<prefix>.<field>`` for each of its fields
  (``faults.*``, ``fork.*``, ``cluster.*``, ``serve.*``).

A :class:`Ledger` is an exact per-instance account (one machine's
faults, one pool's failures, one server's traffic) that reconciles by
its own rule.  Its :meth:`~Ledger.bump` is the only write an event
needs: it moves the instance field and the process-wide counter
together, so the two can never drift apart.

Instruments are identity-stable: :meth:`MetricsRegistry.reset` zeroes
values but keeps the objects, so handles cached at import or
construction time never go stale.  None of this feeds back into step
charges — metrics are observers, and disabling them (or resetting the
registry) can never change a result or a step count.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import fields
from typing import ClassVar, Dict, Iterator, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Ledger",
    "MetricsRegistry",
    "Reservoir",
    "get_registry",
    "registry",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (invocations, faults, bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc({amount}))")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A value that goes up and down (active machines, last chunk size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A distribution summarized by count/sum/min/max plus power-of-two
    buckets (bucket ``k`` counts observations with ``2^(k-1) < x <= 2^k``;
    non-positive observations land in bucket 0).

    Power-of-two buckets suit this repository's one interesting
    distribution — vector lengths — where "how many scans were shorter
    than a cache line / a chunk / a board" is exactly a question about
    binary orders of magnitude.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.reset()

    def reset(self) -> None:
        self.count: int = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: Number, times: int = 1) -> None:
        """Record ``value`` ``times`` times (one update, same totals)."""
        self.count += times
        self.total += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 1:
            k = 0
        elif type(value) is int:
            k = (value - 1).bit_length()  # exact ceil(lg value)
        else:
            k = math.ceil(math.log2(value))
        self.buckets[k] = self.buckets.get(k, 0) + times

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"mean={self.mean:.1f})")


class Reservoir:
    """The most recent :attr:`SIZE` observations, kept exactly.

    Where :class:`Histogram` answers "what order of magnitude", a
    reservoir answers "what quantile": p50/p99 over the last 65536
    observations, enough for any test or smoke run and bounded forever.
    """

    SIZE: ClassVar[int] = 65536

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: deque = deque(maxlen=self.SIZE)

    def observe(self, value: Number) -> None:
        self.values.append(value)

    def reset(self) -> None:
        self.values.clear()

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def quantile(self, q: float) -> Optional[Number]:
        """The nearest-rank ``q`` quantile, or ``None`` when empty."""
        if not self.values:
            return None
        ordered = sorted(self.values)
        return ordered[min(len(ordered) - 1,
                           max(0, round(q * (len(ordered) - 1))))]


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments, created on first use and stable thereafter.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` get-or-create;
    asking for an existing name with a different type raises, since two
    publishers disagreeing about what ``scan.invocations`` *is* would
    corrupt both.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, cls) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Zero every instrument.  Objects survive (publishers cache
        handles), only values are cleared."""
        for inst in self._instruments.values():
            inst.reset()

    def snapshot(self) -> Dict[str, dict]:
        """An immutable, JSON-ready reading of every instrument."""
        out: Dict[str, dict] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                out[name] = {"type": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                out[name] = {"type": "gauge", "value": inst.value}
            else:
                out[name] = {
                    "type": "histogram",
                    "count": inst.count,
                    "total": inst.total,
                    "min": inst.min,
                    "max": inst.max,
                    "mean": inst.mean,
                    "buckets": {str(k): v
                                for k, v in sorted(inst.buckets.items())},
                }
        return out


#: the process-wide registry every layer publishes into
registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (one per interpreter)."""
    return registry


class Ledger:
    """Base of the exact ledgers: dataclasses of ``int`` fields whose
    every event is one :meth:`bump`.

    A subclass declares ``prefix`` (its registry namespace), its fields,
    any derived properties, and :meth:`reconciles` — the invariant that
    ties its fields together.  Everything else is here, written once:

    * :meth:`bump` adds to the field and to the process-wide counter
      ``<prefix>.<field>`` (handles resolved once per ledger class);
    * :meth:`observe` feeds a per-instance :class:`Reservoir` (exact
      quantiles for this instance) and the registry histogram
      ``<prefix>.<name>`` (magnitudes across the process);
    * :meth:`reset` zeroes the fields and reservoirs and leaves the
      registry alone, since registry counters only go up;
    * :meth:`absorb` sums another ledger in without publishing again;
    * :meth:`snapshot` / :meth:`summary` report fields, derived
      properties and the reconcile verdict.
    """

    prefix: ClassVar[str] = ""

    def __post_init__(self) -> None:
        cls = type(self)
        if "_counters" not in cls.__dict__:
            cls._counters = {f.name: registry.counter(f"{cls.prefix}.{f.name}")
                             for f in fields(cls)}
        self._series: Dict[str, tuple] = {}

    # ------------------------------ events ----------------------------- #

    def bump(self, field: str, k: int = 1) -> None:
        """Count ``k`` events of kind ``field`` (``k >= 0``)."""
        self._counters[field].inc(k)
        setattr(self, field, getattr(self, field) + k)

    def observe(self, name: str, x: Number) -> None:
        """Record one observation in the ``name`` series."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = (
                Reservoir(), registry.histogram(f"{self.prefix}.{name}"))
        series[0].observe(x)
        series[1].observe(x)

    def reservoir(self, name: str) -> Reservoir:
        """This instance's exact observations of ``name`` (empty if none
        were made yet)."""
        series = self._series.get(name)
        return series[0] if series else Reservoir()

    def absorb(self, other: "Ledger") -> None:
        """Add ``other``'s fields into this ledger.  Nothing is published:
        ``other``'s events reached the registry when they happened."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)
        for res, _ in self._series.values():
            res.reset()

    # ----------------------------- questions --------------------------- #

    def reconciles(self) -> bool:
        raise NotImplementedError

    def snapshot(self) -> dict:
        """Fields, derived properties and ``reconciles``, JSON-ready."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for klass in reversed(type(self).__mro__):
            for name, attr in vars(klass).items():
                if isinstance(attr, property):
                    out[name] = getattr(self, name)
        out["reconciles"] = self.reconciles()
        return out

    def summary(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.snapshot().items())
