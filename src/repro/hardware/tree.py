"""The bit-pipelined tree scan circuit (Section 3.1–3.2, Figures 13–14),
simulated clock by clock at the logic level.

``n`` leaves are served by ``n - 1`` identical units arranged in a balanced
binary tree.  Each unit holds two :class:`SumStateMachine` elements (one
for the up sweep, one for the down sweep), a variable-length FIFO
(:class:`ShiftRegister`, length ``2·depth`` — zero at the root, which is
what reflects the sweep back down automatically), and registered outputs.
Operand bits stream in one per clock — least-significant first for
``+-scan``, most-significant first for ``max-scan`` — and after
``width + 2·lg n - 1`` clocks the exclusive-scan results have streamed back
out of the leaves: the paper's ``m + 2 lg n`` bit-cycle count, measured
here rather than assumed.

Total hardware: ``n - 1`` shift registers and ``2(n - 1)`` sum state
machines (Section 3.2) — the O(n) size/area row of Table 2.
"""
from __future__ import annotations

import numpy as np

from .._util import ceil_log2
from .unit import MAX, PLUS, ShiftRegister, SumStateMachine

__all__ = ["TreeScanCircuit", "tree_scan_cycles", "PLUS", "MAX"]


def tree_scan_cycles(n_leaves: int, width: int) -> int:
    """Closed-form clock count for one scan: ``width + 2·lg n - 2`` — the
    paper's ``m + 2 lg n`` pipeline fill/drain, measured exactly (our
    register placement saves two cycles of the bound)."""
    lg = ceil_log2(max(n_leaves, 2))
    return width + 2 * lg - 2


class TreeScanCircuit:
    """A reusable scan circuit over ``n_leaves`` (a power of two >= 2)
    bit-serial inputs of ``width`` bits.

    ``injector`` (a :class:`repro.faults.FaultInjector`, settable after
    construction) flips scheduled state bits mid-scan — see
    :data:`repro.faults.CIRCUIT_FIELDS` for the addressable state.  With
    no injector the simulation is bit-identical to the unfaulted circuit.
    ``replica_id`` selects which faults apply when the circuit is one
    copy of a TMR triple (:class:`repro.hardware.TMRTreeScanCircuit`).
    """

    def __init__(self, n_leaves: int, width: int, op: int, *,
                 injector=None, replica_id: int = 0) -> None:
        if n_leaves < 2 or (n_leaves & (n_leaves - 1)) != 0:
            raise ValueError("n_leaves must be a power of two >= 2")
        if width < 1:
            raise ValueError("width must be >= 1")
        if op not in (PLUS, MAX):
            raise ValueError("op must be PLUS or MAX")
        self.n = n_leaves
        self.width = width
        self.op = op
        self.lg = ceil_log2(n_leaves)
        # heap-indexed units 1 .. n-1; unit u sits at depth floor(lg2 u)
        self.up_sm = {u: SumStateMachine(op) for u in range(1, n_leaves)}
        self.down_sm = {u: SumStateMachine(op) for u in range(1, n_leaves)}
        self.fifo = {u: ShiftRegister(2 * (u.bit_length() - 1))
                     for u in range(1, n_leaves)}
        self.cycles_run = 0
        self.injector = injector
        self.replica_id = replica_id
        # the root's up-sweep output per cycle: the reduction streams out
        # here for free, which is what the checksum checker taps
        self.last_root_stream: list[int] = []

    # ------------------------------------------------------------------ #

    def _clear(self) -> None:
        for u in range(1, self.n):
            self.up_sm[u].clear()
            self.down_sm[u].clear()
            self.fifo[u].clear()

    def scan(self, values) -> tuple[np.ndarray, int]:
        """Run one exclusive scan.  Returns ``(results, clock_cycles)``.

        Values must lie in ``[0, 2^width)``.  ``+-scan`` results are
        reported modulo ``2^width`` (the circuit emits exactly the bits that
        were clocked through; widen the circuit to avoid truncation).
        """
        vals = np.asarray(values, dtype=np.int64)
        if len(vals) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(vals)}")
        if len(vals) and (vals.min() < 0 or vals.max() >= (1 << self.width)):
            raise ValueError(f"values must lie in [0, 2^{self.width})")
        self._clear()

        n, lg, w = self.n, self.lg, self.width
        msb_first = self.op == MAX
        total_cycles = w + 2 * lg - 2

        # registered wires, read as previous-cycle values
        up_out = {u: 0 for u in range(1, n)}
        left_out = {u: 0 for u in range(1, n)}
        right_out = {u: 0 for u in range(1, n)}

        out_bits = np.zeros((n, w), dtype=np.int64)
        deepest = range(n // 2, n)  # units whose children are the leaves
        root_stream: list[int] = []

        for t in range(total_cycles):
            # snapshot previous outputs (synchronous update)
            prev_up = dict(up_out)
            prev_left = dict(left_out)
            prev_right = dict(right_out)

            for u in range(1, n):
                # up-sweep inputs
                if u >= n // 2:
                    leaf_l = 2 * u - n
                    leaf_r = leaf_l + 1
                    a = self._input_bit(vals[leaf_l], t, msb_first)
                    b = self._input_bit(vals[leaf_r], t, msb_first)
                else:
                    a = prev_up[2 * u]
                    b = prev_up[2 * u + 1]
                up_out[u] = self.up_sm[u].step(a, b)
                delayed = self.fifo[u].shift(a)
                # down-sweep input: the root's parent wire is tied low
                if u == 1:
                    p = 0
                elif u % 2 == 0:
                    p = prev_left[u // 2]
                else:
                    p = prev_right[u // 2]
                left_out[u] = p
                right_out[u] = self.down_sm[u].step(p, delayed)

            if self.injector is not None:
                self._apply_faults(t, up_out, left_out, right_out)
            root_stream.append(up_out[1])

            # leaf results appear after the pipeline delay
            bit_idx = t - (2 * lg - 2)
            if 0 <= bit_idx < w:
                for u in deepest:
                    leaf_l = 2 * u - n
                    out_bits[leaf_l, bit_idx] = left_out[u]
                    out_bits[leaf_l + 1, bit_idx] = right_out[u]

        self.cycles_run += total_cycles
        self.last_root_stream = root_stream
        results = self._assemble(out_bits, msb_first)
        return results, total_cycles

    # ------------------------------------------------------------------ #
    # Fault hooks (repro.faults)
    # ------------------------------------------------------------------ #

    def _apply_faults(self, t: int, up_out: dict, left_out: dict,
                      right_out: dict) -> None:
        """Flip the state bits the injector schedules at cycle ``t``.

        Output-register flips (``up_s``/``down_s``/``down_left``) are
        applied to both the flip-flop and its wire so this cycle's readers
        and next cycle's snapshot see the same (faulty) value, exactly as
        a latched upset would behave.
        """
        for f in self.injector.circuit_faults_at(t, self.replica_id):
            u = f.unit
            if not 1 <= u < self.n:
                raise ValueError(f"fault unit {u} outside [1, {self.n})")
            if f.field == "up_s":
                self.up_sm[u].s ^= 1
                up_out[u] ^= 1
            elif f.field == "up_q1":
                self.up_sm[u].q1 ^= 1
            elif f.field == "up_q2":
                self.up_sm[u].q2 ^= 1
            elif f.field == "down_s":
                self.down_sm[u].s ^= 1
                right_out[u] ^= 1
            elif f.field == "down_q1":
                self.down_sm[u].q1 ^= 1
            elif f.field == "down_q2":
                self.down_sm[u].q2 ^= 1
            elif f.field == "down_left":
                left_out[u] ^= 1
            elif f.field == "fifo":
                fifo = self.fifo[u]
                if fifo.length == 0:  # the root's FIFO is a plain wire
                    continue
                fifo.bits[f.bit % fifo.length] ^= 1
            else:
                raise ValueError(f"unknown tree-circuit fault field "
                                 f"{f.field!r}")
            self.injector.counters.bump("injected")

    def last_reduction(self) -> int:
        """The reduction of the most recent scan, assembled from the
        root's up-sweep output stream (bit ``i`` of the total reaches the
        root at cycle ``i + lg n - 1``).  This is the circuit's *own*
        total — a fault on the up sweep corrupts it too, which is exactly
        the exposure the checksum check has in real hardware."""
        lg, w = self.lg, self.width
        bits = self.last_root_stream[lg - 1:lg - 1 + w]
        if len(bits) != w:
            raise RuntimeError("no scan has been run yet")
        if self.op == MAX:  # MSB first
            value = 0
            for b in bits:
                value = (value << 1) | (b & 1)
            return value
        return sum((b & 1) << i for i, b in enumerate(bits))

    def _input_bit(self, value: int, t: int, msb_first: bool) -> int:
        """Bit ``t`` of the serial input stream for ``value`` (zero once all
        ``width`` bits have been clocked in)."""
        if t >= self.width:
            return 0
        pos = self.width - 1 - t if msb_first else t
        return (int(value) >> pos) & 1

    def _assemble(self, out_bits: np.ndarray, msb_first: bool) -> np.ndarray:
        w = self.width
        if msb_first:
            weights = 1 << np.arange(w - 1, -1, -1, dtype=np.int64)
        else:
            weights = 1 << np.arange(w, dtype=np.int64)
        return out_bits @ weights

    # --- hardware inventory (Table 2 / Section 3.2) --------------------- #

    def num_state_machines(self) -> int:
        return 2 * (self.n - 1)

    def num_shift_registers(self) -> int:
        return self.n - 1

    def total_shift_register_bits(self) -> int:
        return sum(f.length for f in self.fifo.values())
