"""Step tracing with the span profiler (``repro.observe.profile`` / ``span``).

Each test pins one behaviour a phase-attributing tracer must keep: totals
match the machine, the innermost span owns a charge, charges outside any
span land on the root, hooks come off on exit and on exceptions.
"""
import pytest

from repro import Machine
from repro.algorithms import split_radix_sort
from repro.core import scans
from repro.observe import profile, span


def _steps_by_span(p) -> dict:
    """Self steps per named span (re-entered names summed)."""
    out: dict = {}
    for s, _ in p.root.walk():
        if s is not p.root and s.self_steps:
            out[s.name] = out.get(s.name, 0) + s.self_steps
    return out


def _hooks(m) -> tuple:
    return len(m.counter.listeners), len(m.backend.observers)


class TestTrace:
    def test_totals_match_machine(self, rng):
        m = Machine("scan")
        data = rng.integers(0, 1000, 100)
        with profile(m) as p:
            split_radix_sort(m.vector(data))
        assert p.total_steps == m.steps

    def test_phases(self):
        m = Machine("scan")
        with profile(m) as p:
            with span("one"):
                scans.plus_scan(m.vector(range(8)))
            with span("two"):
                scans.plus_scan(m.vector(range(8)))
                scans.plus_scan(m.vector(range(8)))
        assert {s.name: s.steps for s in p.root.children} == {"one": 1,
                                                               "two": 2}

    def test_nested_phases_innermost_wins(self):
        m = Machine("scan")
        with profile(m) as p:
            with span("outer") as outer:
                scans.plus_scan(m.vector(range(4)))
                with span("inner") as inner:
                    scans.plus_scan(m.vector(range(4)))
        assert (outer.self_steps, inner.self_steps) == (1, 1)
        assert outer.steps == 2  # inclusive of the child
        assert _steps_by_span(p) == {"outer": 1, "inner": 1}

    def test_untagged_charges(self):
        """Charges made outside every span land on the root span."""
        m = Machine("scan")
        with profile(m) as p:
            scans.plus_scan(m.vector(range(4)))
        assert p.root.self_steps == 1 and not p.root.children

    def test_by_kind(self):
        m = Machine("scan")
        with profile(m) as p:
            v = m.vector(range(8))
            _ = v + 1
            scans.plus_scan(v)
        assert p.by_kind() == {"elementwise": 1, "scan": 1}

    def test_detaches_after_block(self):
        m = Machine("scan")
        before = _hooks(m)
        with profile(m) as p:
            scans.plus_scan(m.vector(range(4)))
        scans.plus_scan(m.vector(range(4)))  # after the profile
        assert p.total_steps == 1
        assert m.steps == 2
        assert _hooks(m) == before

    def test_two_traces_stack(self):
        m = Machine("scan")
        with profile(m) as outer:
            scans.plus_scan(m.vector(range(4)))
            with profile(m) as inner:
                scans.plus_scan(m.vector(range(4)))
            assert inner.total_steps == 1
        assert outer.total_steps == 2

    def test_events_record_costs_on_erew(self):
        m = Machine("erew")
        with profile(m) as p:
            scans.plus_scan(m.vector(range(256)))
        assert p.by_kind() == {"scan": 16}  # 2 lg 256
        assert p.root.self_ops == 1


class TestTraceEdgeCases:
    def test_empty_report(self):
        m = Machine("scan")
        with profile(m) as p:
            pass
        assert p.total_steps == 0
        assert p.by_kind() == {}
        assert p.root.ops == 0 and not p.root.children

    def test_machine_reset_during_open_phase(self):
        # resetting the machine zeroes its counters but never rewrites
        # history: charges already recorded stay, the span stays open,
        # and later charges keep landing under it
        m = Machine("scan")
        with profile(m) as p:
            with span("work") as work:
                scans.plus_scan(m.vector(range(8)))
                m.reset()
                assert p.total_steps == 1
                scans.plus_scan(m.vector(range(8)))
        assert m.steps == 1          # only the post-reset charge
        assert p.total_steps == 2    # the profiler saw both
        assert work.self_steps == 2

    def test_deeply_nested_phases_unwind_in_order(self):
        m = Machine("scan")
        with profile(m) as p:
            with span("a"):
                with span("b"):
                    with span("c"):
                        scans.plus_scan(m.vector(range(4)))
                    assert p.current_span.name == "b"
                    scans.plus_scan(m.vector(range(4)))
                assert p.current_span.name == "a"
            assert p.current_span is p.root
        assert _steps_by_span(p) == {"c": 1, "b": 1}

    def test_same_phase_name_reentered_accumulates(self):
        m = Machine("scan")
        with profile(m) as p:
            for _ in range(3):
                with span("loop"):
                    scans.plus_scan(m.vector(range(4)))
        assert [s.name for s in p.root.children] == ["loop"] * 3
        assert _steps_by_span(p) == {"loop": 3}
        assert p.root.ops == 3

    def test_phase_exited_on_exception(self):
        m = Machine("scan")
        with profile(m) as p:
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
            assert p.current_span is p.root
            scans.plus_scan(m.vector(range(4)))
        assert p.root.self_steps == 1
        assert _steps_by_span(p) == {}

    def test_trace_detaches_on_exception(self):
        """Both hooks — the step listener and the backend observer —
        come off when the profiled block raises."""
        m = Machine("scan")
        before = _hooks(m)
        with pytest.raises(RuntimeError):
            with profile(m):
                raise RuntimeError("boom")
        assert _hooks(m) == before

    def test_zero_cost_charges_are_recorded_as_ops(self):
        m = Machine("scan")
        with profile(m) as p:
            scans.plus_scan(m.vector([]))  # n = 0 charges 0 steps
        assert p.total_steps == 0
        assert p.root.self_ops == 1
        assert p.root.self_by_kind == {"scan": 0}

    def test_phase_kind_matrix_shape(self):
        """A span's own primitive mix, kind by kind."""
        m = Machine("scan")
        with profile(m):
            with span("p") as s:
                v = m.vector(range(8))
                _ = v + 1
                scans.plus_scan(v)
        assert s.by_kind() == {"elementwise": 1, "scan": 1}
