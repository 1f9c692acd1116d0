"""Unit tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.errors import SchedulingError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "late", priority=5)
        sim.schedule(1.0, fired.append, "early", priority=-5)
        sim.run()
        assert fired == ["early", "late"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.schedule(4.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5, 4.25]
        assert sim.now == 4.25

    def test_schedule_in_is_relative(self):
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_in(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.5]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule(4.0, lambda: None)

    def test_schedule_at_now_allowed(self):
        sim = Simulator()
        fired = []

        def chain():
            sim.schedule(sim.now, fired.append, "zero-delay")

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == ["zero-delay"]

    def test_nonfinite_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(math.inf, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(math.nan, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule_in(-0.1, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule_in(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, fired.append, "x")
        h.cancel()
        sim.run()
        assert fired == []
        assert h.cancelled

    def test_double_cancel_raises(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        h.cancel()
        with pytest.raises(SchedulingError):
            h.cancel()

    def test_cancel_after_fire_raises(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        assert h.expired
        with pytest.raises(SchedulingError):
            h.cancel()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        h = sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.pending == 1


class TestRunControl:
    def test_run_until_bound_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "at-bound")
        sim.schedule(5.0001, fired.append, "beyond")
        sim.run(until=5.0)
        assert fired == ["at-bound"]
        assert sim.now == 5.0

    def test_run_resumable_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.run(until=1.5)
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_until_advances_clock_on_empty_queue(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_max_events_budget(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_executes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step()
        assert fired == ["a"]
        assert sim.step()
        assert not sim.step()

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        h = sim.schedule(9.0, lambda: None)
        h.cancel()
        sim.run()
        assert sim.events_executed == 4

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.peek() == 2.0

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SchedulingError):
            sim.run()


class TestHeapCompaction:
    """Cancelled entries are reclaimed once they dominate the heap."""

    def test_heap_shrinks_under_cancel_churn(self):
        from repro.sim.engine import _COMPACT_MIN_DEAD

        sim = Simulator()
        keeper = sim.schedule(1e9, lambda: None)
        for k in range(4 * _COMPACT_MIN_DEAD):
            sim.schedule(1.0 + k * 1e-9, lambda: None).cancel()
        # Without compaction the heap would hold ~4·threshold dead entries.
        assert len(sim._heap) < 2 * _COMPACT_MIN_DEAD
        assert sim.pending == 1
        assert not keeper.expired

    def test_order_preserved_across_compaction(self):
        from repro.sim.engine import _COMPACT_MIN_DEAD

        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(3.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "early2")  # FIFO tie
        for _ in range(2 * _COMPACT_MIN_DEAD):
            sim.schedule(1.0, lambda: None).cancel()
        sim.run()
        assert fired == ["early", "early2", "late"]

    def test_cancel_during_run_is_safe(self):
        from repro.sim.engine import _COMPACT_MIN_DEAD

        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(2.0 + k * 1e-9, lambda: None)
            for k in range(2 * _COMPACT_MIN_DEAD)
        ]

        def mass_cancel():
            for h in handles:
                h.cancel()  # triggers compaction while run() is popping

        sim.schedule(1.0, mass_cancel)
        sim.schedule(3.0, fired.append, "after")
        sim.run()
        assert fired == ["after"]
        assert sim.pending == 0

    def test_pending_stays_exact(self):
        sim = Simulator()
        hs = [sim.schedule(float(k + 1), lambda: None) for k in range(10)]
        assert sim.pending == 10
        for h in hs[::2]:
            h.cancel()
        assert sim.pending == 5
        sim.run(until=3.0)
        assert sim.pending == sum(
            1 for h in hs if not h.expired
        )

    def test_timer_restart_churn_bounded_heap(self):
        from repro.sim.engine import _COMPACT_MIN_DEAD
        from repro.sim.process import Timer

        sim = Simulator()
        t = Timer(sim, lambda: None)
        for _ in range(10 * _COMPACT_MIN_DEAD):
            t.restart(1.0)
        assert len(sim._heap) < 2 * _COMPACT_MIN_DEAD
        t.cancel()
        sim.run()
        assert sim.pending == 0


class TestSequenceEntries:
    """``schedule_sequence``: one heap entry, scalar-identical semantics."""

    @staticmethod
    def _fanout(sim, fired, times, tag="s"):
        sim.schedule_sequence(
            [(t, fired.append, (f"{tag}{k}",)) for k, t in enumerate(times)]
        )

    def test_fires_in_time_then_schedule_order(self):
        sim = Simulator()
        fired = []
        self._fanout(sim, fired, [3.0, 1.0, 2.0, 1.0])
        sim.run()
        assert fired == ["s1", "s3", "s2", "s0"]
        assert sim.events_executed == 4
        assert sim.now == 3.0

    def test_interleaves_with_foreign_events_by_seq(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "before")     # older seq: first
        self._fanout(sim, fired, [1.0, 2.0, 1.0])
        sim.schedule(1.0, fired.append, "after")      # younger seq: last
        sim.schedule(1.5, fired.append, "mid")
        sim.schedule(2.0, fired.append, "urgent", priority=-1)
        sim.run()
        assert fired == ["before", "s0", "s2", "after", "mid", "urgent", "s1"]

    def test_events_scheduled_by_callbacks_interleave(self):
        sim = Simulator()
        fired = []

        def spawn():
            fired.append("spawn")
            sim.schedule(sim.now, fired.append, "same-instant")
            sim.schedule(1.5, fired.append, "between")

        sim.schedule_sequence([(1.0, spawn, ()), (1.0, fired.append, ("s1",)),
                               (2.0, fired.append, ("s2",))])
        sim.run()
        assert fired == ["spawn", "s1", "same-instant", "between", "s2"]

    def test_pending_counts_logical_events(self):
        sim = Simulator()
        seen = []

        def probe():
            seen.append(sim.pending)

        sim.schedule_sequence([(float(k), probe, ()) for k in range(5)])
        sim.schedule(2.5, probe)
        assert sim.pending == 6
        sim.run(until=1.0)
        assert sim.pending == 4
        sim.run()
        # Each probe sees the events still queued after itself.
        assert seen == [5, 4, 3, 2, 1, 0]
        assert sim.pending == 0

    def test_peek_sees_next_sequence_event(self):
        sim = Simulator()
        seen = []
        sim.schedule_sequence(
            [(1.0, lambda: seen.append(sim.peek()), ()), (2.0, lambda: None, ())]
        )
        sim.schedule(3.0, lambda: seen.append(sim.peek()))
        assert sim.peek() == 1.0
        sim.run()
        assert seen == [2.0, None]

    def test_drain_yields_each_logical_event_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_sequence([(2.0, fired.append, ("a",)),
                               (1.0, fired.append, ("b",))])
        sim.schedule(1.5, fired.append, "x")
        sim.schedule_sequence([(1.5, fired.append, ("c",))])
        drained = [(t, args) for t, _fn, args in sim.drain()]
        assert drained == [(1.0, ("b",)), (1.5, ("x",)), (1.5, ("c",)),
                           (2.0, ("a",))]
        assert sim.pending == 0
        assert fired == []

    def test_step_runs_exactly_one_event(self):
        sim = Simulator()
        fired = []
        self._fanout(sim, fired, [1.0, 1.0, 2.0])
        assert sim.step()
        assert fired == ["s0"]
        assert sim.events_executed == 1
        assert sim.pending == 2
        assert sim.step() and sim.step()
        assert fired == ["s0", "s1", "s2"]
        assert not sim.step()

    def test_max_events_and_stop_split_a_sequence(self):
        sim = Simulator()
        fired = []
        self._fanout(sim, fired, [1.0, 2.0, 3.0, 4.0])
        sim.run(max_events=2)
        assert fired == ["s0", "s1"]
        sim.schedule_sequence([(2.5, sim.stop, ())])
        sim.run()
        assert fired == ["s0", "s1"]
        assert sim.now == 2.5
        sim.run()
        assert fired == ["s0", "s1", "s2", "s3"]
        assert sim.events_executed == 5

    def test_raising_callback_leaves_rest_queued(self):
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule_sequence([(1.0, fired.append, ("a",)), (2.0, boom, ()),
                               (3.0, fired.append, ("c",))])
        with pytest.raises(RuntimeError):
            sim.run()
        # Like the scalar heap: the raising event is consumed, uncounted.
        assert fired == ["a"]
        assert sim.events_executed == 1
        assert sim.pending == 1
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "c"]
        assert sim.events_executed == 2

    def test_past_or_nonfinite_time_rejected(self):
        sim = Simulator(start_time=5.0)
        for bad in (4.0, math.inf, math.nan):
            with pytest.raises(SchedulingError):
                sim.schedule_sequence([(6.0, lambda: None, ()),
                                       (bad, lambda: None, ())])
        assert sim.pending == 0
        sim.schedule_sequence([])
        assert sim.pending == 0

    def test_batched_loop_runs_sequences(self):
        sim = Simulator()
        sim.enable_batching()
        fired = []
        sim.schedule_block(1.0, 3, fired.append, "block")
        self._fanout(sim, fired, [1.0, 0.5])
        sim.run()
        assert fired == ["s1", "block", "s0"]
        assert sim.events_executed == 5

    def test_same_seq_numbers_as_schedule_cb(self):
        a, b = Simulator(), Simulator()
        noop = lambda: None  # noqa: E731
        a.schedule_sequence([(1.0, noop, ()), (2.0, noop, ())])
        b.schedule_cb(1.0, noop)
        b.schedule_cb(2.0, noop)
        assert a._seq == b._seq == 2


# --------------------------------------------------------------------- #
# Property: a sequence entry is indistinguishable from its schedule_cb
# fan-out (callback trace, clock, counters and profiler counts).
# --------------------------------------------------------------------- #
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0])
_PRIORITIES = st.sampled_from([-2, -1, 0, 0, 1, 2])
# Action of a callback: record only, stop the run, cancel a foreign event,
# or schedule a new event (delay, priority).
_ACTIONS = st.one_of(
    st.just(("noop",)),
    st.just(("stop",)),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.25, 1.0]), _PRIORITIES),
)


class _World:
    """One simulator plus a callback zoo whose behaviour depends only on
    the event tag, so two worlds fed the same events can be compared."""

    def __init__(self, actions, profiler):
        from repro.obs.profiler import EngineProfiler

        self.sim = Simulator()
        self.trace = []
        self.handles = []
        self.actions = actions
        self.spawned = 0
        if profiler:
            self.sim.set_profiler(EngineProfiler(sample_every=3))

    def _act(self, tag):
        sim = self.sim
        self.trace.append((sim.now, tag, sim.pending, sim.events_executed))
        action = self.actions[tag % len(self.actions)]
        if action[0] == "stop":
            sim.stop()
        elif action[0] == "cancel":
            if self.handles:
                h = self.handles[action[1] % len(self.handles)]
                if not h.expired:
                    h.cancel()
        elif action[0] == "spawn" and self.spawned < 20:
            self.spawned += 1
            sim.schedule(sim.now + action[1], self.c, 1000 + self.spawned,
                         priority=action[2])

    # Three distinct callbacks so per-callback profiler rows differ.
    def a(self, tag):
        self._act(tag)

    def b(self, tag):
        self._act(tag)

    def c(self, tag):
        self._act(tag)

    def fn(self, tag):
        return (self.a, self.b)[tag % 2]

    def profile(self):
        prof = self.sim.profiler
        if prof is None:
            return None
        return sorted(
            (r["layer"], r["callback"], r["events"], "batches" in r)
            for r in prof.as_dict()["callbacks"]
        )


@given(
    before=st.lists(st.tuples(_TIMES, _PRIORITIES), max_size=6),
    seq_times=st.lists(_TIMES, min_size=1, max_size=12),
    after=st.lists(st.tuples(_TIMES, _PRIORITIES), max_size=6),
    actions=st.lists(_ACTIONS, min_size=1, max_size=6),
    runs=st.lists(
        st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.5, math.inf]),
                  st.sampled_from([None, 1, 2, 5])),
        max_size=4,
    ),
    profiler=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_sequence_matches_schedule_cb_fanout(
    before, seq_times, after, actions, runs, profiler
):
    worlds = []
    for as_sequence in (False, True):
        w = _World(actions, profiler)
        sim = w.sim
        tag = 0
        for t, pri in before:
            w.handles.append(sim.schedule(t, w.fn(tag), tag, priority=pri))
            tag += 1
        events = []
        for t in seq_times:
            events.append((t, w.fn(tag), (tag,)))
            tag += 1
        if as_sequence:
            sim.schedule_sequence(events)
        else:
            for t, fn, args in events:
                sim.schedule_cb(t, fn, *args)
        for t, pri in after:
            w.handles.append(sim.schedule(t, w.fn(tag), tag, priority=pri))
            tag += 1
        states = []
        for until, max_events in [*runs, (math.inf, None), (math.inf, None)]:
            sim.run(until=until, max_events=max_events)
            states.append((sim.now, sim.events_executed, sim.pending,
                           sim.peek()))
        worlds.append((w.trace, states, w.profile()))
    assert worlds[0] == worlds[1]
