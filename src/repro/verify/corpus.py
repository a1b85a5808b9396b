"""Adversarial test-case corpora for the differential conformance fuzzer.

A :class:`Case` is one replayable input to one exported operation: the
operation's name, an element dtype, the raw values, and — for segmented
operations — a segment layout plus any auxiliary flag vectors.  Cases are
plain data (JSON-serializable, no machine or backend state), so a case
that once exposed a divergence can be committed to the regression corpus
(``tests/corpus/verify/``) and replayed forever.

Generation is **seeded and deterministic**: :func:`generate_cases` walks
the (operation × dtype) grid round-robin so every pair is exercised, and
draws shapes and values from a single ``numpy.random.Generator``.  The
value pools are deliberately adversarial — dtype boundary values
(``iinfo.min``/``max`` and their neighbors), unsigned and small-width
integers, float specials (``±inf``, ``±0.0``, subnormals, NaN where the
operation's ordering contract admits it), empty vectors, length-1
vectors, all-equal vectors, and degenerate segment layouts (one segment,
all-singleton segments) — because blocked/carry-propagating schedules
diverge silently at exactly those points.
"""
from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["Case", "Materialized", "generate_cases", "load_corpus",
           "CORPUS_DIR"]

#: the committed regression corpus (shrunken counterexamples of every bug
#: the fuzzer has found); replayed by ``python -m repro verify`` and CI
CORPUS_DIR = (pathlib.Path(__file__).resolve().parents[3]
              / "tests" / "corpus" / "verify")


# --------------------------------------------------------------------- #
# The case record
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Materialized:
    """A case's vectors as concrete NumPy arrays (built per engine run)."""

    values: np.ndarray
    seg_flags: Optional[np.ndarray]
    flags: Optional[np.ndarray]
    flags2: Optional[np.ndarray]


def _encode_value(x):
    """JSON-safe encoding of one element (float specials become strings)."""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if x == 0.0 and math.copysign(1.0, x) < 0:
            return "-0.0"
    return x


def _decode_value(x):
    if isinstance(x, str):
        return float(x)
    return x


@dataclass(frozen=True)
class Case:
    """One replayable fuzzer input.

    ``seg_lengths`` (segment layout, summing to ``len(values)``) is
    present exactly for segmented operations; ``flags`` / ``flags2`` are
    the auxiliary boolean vectors some operations take (``seg_split``'s
    partition flags, ``seg_split3``'s lesser/equal pair).
    """

    op: str
    dtype: str
    values: tuple = ()
    seg_lengths: Optional[tuple] = None
    flags: Optional[tuple] = None
    flags2: Optional[tuple] = None
    note: str = ""

    # -------------------------- materialize --------------------------- #

    def materialize(self) -> Materialized:
        dt = np.dtype(self.dtype)
        vals = np.array([_decode_value(v) for v in self.values], dtype=dt)
        seg = None
        if self.seg_lengths is not None:
            seg = np.zeros(len(vals), dtype=bool)
            pos = 0
            for length in self.seg_lengths:
                seg[pos] = True
                pos += length
            if pos != len(vals):
                raise ValueError(
                    f"case {self.op}: seg_lengths sum {pos} != {len(vals)}")
        f1 = None if self.flags is None else np.array(self.flags, dtype=bool)
        f2 = None if self.flags2 is None else np.array(self.flags2, dtype=bool)
        return Materialized(vals, seg, f1, f2)

    # ------------------------- serialization -------------------------- #

    def to_json_dict(self) -> dict:
        d = {"op": self.op, "dtype": self.dtype,
             "values": [_encode_value(v) for v in self.values]}
        if self.seg_lengths is not None:
            d["seg_lengths"] = list(self.seg_lengths)
        if self.flags is not None:
            d["flags"] = list(self.flags)
        if self.flags2 is not None:
            d["flags2"] = list(self.flags2)
        if self.note:
            d["note"] = self.note
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Case":
        return cls(
            op=d["op"], dtype=d["dtype"],
            values=tuple(d.get("values", ())),
            seg_lengths=(tuple(d["seg_lengths"])
                         if "seg_lengths" in d else None),
            flags=tuple(d["flags"]) if "flags" in d else None,
            flags2=tuple(d["flags2"]) if "flags2" in d else None,
            note=d.get("note", ""),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def describe(self) -> str:
        parts = [f"op={self.op}", f"dtype={self.dtype}",
                 f"values={list(self.values)!r}"]
        if self.seg_lengths is not None:
            parts.append(f"seg_lengths={list(self.seg_lengths)!r}")
        if self.flags is not None:
            parts.append(f"flags={list(self.flags)!r}")
        if self.flags2 is not None:
            parts.append(f"flags2={list(self.flags2)!r}")
        if self.note:
            parts.append(f"note={self.note!r}")
        return "Case(" + ", ".join(parts) + ")"


def load_corpus(directory=None) -> list[Case]:
    """Load every committed ``*.json`` counterexample, sorted by name."""
    directory = pathlib.Path(directory) if directory else CORPUS_DIR
    if not directory.is_dir():
        return []
    cases = []
    for path in sorted(directory.glob("*.json")):
        cases.append(Case.from_json_dict(json.loads(path.read_text())))
    return cases


# --------------------------------------------------------------------- #
# Adversarial generation
# --------------------------------------------------------------------- #

def _int_pool(dt: np.dtype) -> list[int]:
    info = np.iinfo(dt)
    pool = [info.min, info.min + 1, 0, 1, info.max - 1, info.max, 2, 7]
    if info.min < 0:
        pool += [-1, -2, info.min // 2]
    return pool


def _float_pool(nan_ok: bool, additive: bool) -> list[float]:
    if additive:
        # the +-family's float conformance is specified over finite values
        # whose partial sums stay finite and of moderate magnitude: inf/NaN
        # leak across segment boundaries in the subtract-offset
        # construction, and IEEE addition is only approximately
        # associative (see docs/verification.md)
        return [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 0.1, 3.7, 256.0, -1024.0,
                1e-3]
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, float("inf"), float("-inf"),
            1e308, -1e308, 2.2250738585072014e-308, 5e-324, 3.0e15]
    if nan_ok:
        pool += [float("nan")]
    return pool


def _sample_length(rng: np.random.Generator) -> int:
    bucket = rng.choice(5, p=[0.25, 0.35, 0.2, 0.1, 0.1])
    if bucket == 0:
        return int(rng.integers(0, 4))          # empty / tiny
    if bucket == 1:
        return int(rng.integers(4, 18))
    if bucket == 2:
        return int(rng.integers(30, 35))        # around chunk multiples
    if bucket == 3:
        return int(rng.integers(63, 71))
    return int(rng.integers(120, 131))


def _sample_values(rng: np.random.Generator, dtype: str, n: int,
                   nan_ok: bool, additive: bool = False) -> tuple:
    if n == 0:
        return ()
    dt = np.dtype(dtype)
    if dt == np.bool_:
        mode = rng.choice(3, p=[0.7, 0.15, 0.15])
        if mode == 1:
            return tuple([True] * n)
        if mode == 2:
            return tuple([False] * n)
        return tuple(bool(b) for b in rng.integers(0, 2, n))
    if np.issubdtype(dt, np.integer):
        pool = _int_pool(dt)
        if rng.random() < 0.25:
            # moderate magnitudes only: the 64-bit segmented extremes then
            # take Figure 16's appended keys, not the doubling fallback
            pool = [p for p in pool if abs(p) <= 1 << 30]
    else:
        pool = _float_pool(nan_ok, additive)
    if rng.random() < 0.12:                      # all-equal vector
        return tuple([pool[int(rng.integers(len(pool)))]] * n)
    out = []
    for _ in range(n):
        if rng.random() < 0.6:
            out.append(pool[int(rng.integers(len(pool)))])
        elif np.issubdtype(dt, np.integer):
            info = np.iinfo(dt)
            out.append(int(rng.integers(max(info.min, -50),
                                        min(info.max, 50) + 1)))
        else:
            out.append(float(np.round(rng.normal() * 4, 3)))
    return tuple(out)


def _sample_seg_lengths(rng: np.random.Generator, n: int) -> tuple:
    """A degenerate-heavy partition of ``n`` into positive segment lengths."""
    if n == 0:
        return ()
    mode = rng.choice(4, p=[0.2, 0.2, 0.45, 0.15])
    if mode == 0 or n == 1:
        return (n,)                              # one big segment
    if mode == 1:
        return tuple([1] * n)                    # all singletons
    if mode == 3:                                # one huge + tiny tail
        head = int(rng.integers(n // 2, n))
        lengths = [head]
        n -= head
    else:
        lengths = []
    while n > 0:
        length = int(rng.integers(1, max(2, n // 2 + 1)))
        lengths.append(min(length, n))
        n -= lengths[-1]
    return tuple(lengths)


def _sample_flags(rng: np.random.Generator, n: int) -> tuple:
    mode = rng.choice(3, p=[0.7, 0.15, 0.15])
    if mode == 1:
        return tuple([True] * n)
    if mode == 2:
        return tuple([False] * n)
    return tuple(bool(b) for b in rng.integers(0, 2, n))


def generate_cases(seed: int, count: int, ops: Optional[Sequence[str]] = None,
                   dtypes: Optional[Iterable[str]] = None) -> list[Case]:
    """``count`` seeded cases cycling round-robin over (op × dtype) pairs.

    ``ops`` / ``dtypes`` restrict the grid (names as in
    :data:`repro.verify.opset.OPS` and NumPy dtype names); the default is
    every exported operation over its full dtype set.
    """
    from .opset import OPS

    names = list(ops) if ops is not None else sorted(OPS)
    unknown = [n for n in names if n not in OPS]
    if unknown:
        raise ValueError(f"unknown operation(s) {unknown}; "
                         f"known: {sorted(OPS)}")
    allowed = set(dtypes) if dtypes is not None else None
    combos = []
    for name in names:
        spec = OPS[name]
        for dt in spec.dtypes:
            if allowed is None or dt in allowed:
                combos.append((spec, dt))
    if not combos:
        raise ValueError("the op/dtype restriction selected an empty grid")
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        spec, dt = combos[i % len(combos)]
        n = _sample_length(rng)
        values = _sample_values(rng, dt, n, nan_ok=spec.nan_ok,
                                additive=spec.additive)
        seg = _sample_seg_lengths(rng, n) if spec.segmented else None
        f1 = f2 = None
        if spec.n_flags >= 1:
            f1 = _sample_flags(rng, n)
        if spec.n_flags >= 2:
            # seg_split3's (lesser, equal) must be disjoint to be a
            # well-formed three-way partition request
            f2 = tuple(b and not a for a, b in zip(f1, _sample_flags(rng, n)))
        cases.append(Case(op=spec.name, dtype=dt, values=values,
                          seg_lengths=seg, flags=f1, flags2=f2))
    return cases
