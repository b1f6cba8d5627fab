"""Tests for the discrete-event engine."""

import pytest

from repro.cluster import Simulation


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulation()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_in_scheduling_order(self):
        sim = Simulation()
        order = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances(self):
        sim = Simulation()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(10.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0, 10.0]
        assert sim.now == 10.0

    def test_nested_scheduling(self):
        sim = Simulation()
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(2.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [1.0, 3.0]

    def test_reserved_position_sorts_where_it_was_reserved(self):
        sim = Simulation()
        order = []
        sim.schedule(1.0, lambda: order.append("before"))
        seq = sim.reserve_seq()
        sim.schedule(1.0, lambda: order.append("after"))
        sim.schedule_reserved(seq, 1.0, lambda: order.append("reserved"))
        sim.schedule(1.0, lambda: order.append("last"))
        sim.run()
        assert order == ["before", "reserved", "after", "last"]

    def test_negative_delay_rejected(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulation()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert not fired

    def test_cancel_is_idempotent(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()


class TestRunUntil:
    def test_run_until_stops_clock(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_step_returns_false_when_empty(self):
        sim = Simulation()
        assert not sim.step()

    def test_peek_time_skips_cancelled(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 2.0

    def test_runaway_loop_detected(self):
        sim = Simulation()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(RuntimeError):
            sim.run(max_events=1000)

    def test_events_processed_counter(self):
        sim = Simulation()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestHeapHygiene:
    def test_pending_count_tracks_live_events(self):
        sim = Simulation()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending_count == 6
        events[0].cancel()  # double-cancel must not double-count
        assert sim.pending_count == 6
        sim.run()
        assert sim.pending_count == 0

    def test_cancelled_majority_triggers_rebuild(self):
        sim = Simulation()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(400)]
        for event in events[:300]:
            event.cancel()
        assert sim.heap_rebuilds >= 1
        assert sim.pending_count == 100
        # The >50%-dead policy keeps the heap within 2x the live events.
        assert len(sim._queue) <= 2 * sim.pending_count

    def test_rebuild_preserves_firing_order(self):
        sim = Simulation()
        fired = []
        keep = []
        for i in range(300):
            event = sim.schedule(float(300 - i), lambda i=i: fired.append(i))
            if i % 3 == 0:
                keep.append(i)
            else:
                event.cancel()
        assert sim.heap_rebuilds >= 1
        sim.run()
        # Scheduled at time 300-i: survivors fire in descending-i order.
        assert fired == sorted(keep, reverse=True)

    def test_cancel_after_execution_is_inert(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()  # already executed: must not corrupt the count
        assert sim.pending_count == 0

    def test_rebuild_floor_exactly_at_threshold(self):
        """The 64-dead floor is inclusive: the 64th cancellation (with a
        dead majority) rebuilds; the 63rd never does."""
        sim = Simulation()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for event in events[:63]:
            event.cancel()
        assert sim.heap_rebuilds == 0  # 63 dead: below the floor
        events[63].cancel()  # 64 dead of 100: floor met, majority met
        assert sim.heap_rebuilds == 1
        assert sim._cancelled_pending == 0
        assert len(sim._queue) == 36
        assert sim.pending_count == 36

    def test_exactly_half_dead_does_not_rebuild(self):
        """The majority test is strict: 50% dead is not >50% dead."""
        sim = Simulation()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:100]:
            event.cancel()
        assert sim.heap_rebuilds == 0  # 2 * 100 == 200: no strict majority
        events[100].cancel()
        assert sim.heap_rebuilds == 1

    def test_rebuild_during_iteration_preserves_order_and_counts(self):
        """A callback that mass-cancels mid-run triggers the rebuild
        while the queue is being iterated; survivors still fire in order
        and the live-event accounting stays exact."""
        sim = Simulation()
        fired = []
        later = []

        def purge():
            for event in later[:150]:
                event.cancel()

        sim.schedule(1.0, purge)
        for i in range(200):
            later.append(sim.schedule(2.0 + i, lambda i=i: fired.append(i)))
        sim.run()
        assert sim.heap_rebuilds == 1  # crossed >50% once, mid-execution
        assert fired == list(range(150, 200))
        assert sim.pending_count == 0
        assert sim.events_processed == 1 + 50

    def test_peek_accounting_consistent_around_rebuild(self):
        """peek_time pops dead heads (decrementing the pending count)
        and the rebuild resets it; the two paths must agree on what is
        still queued."""
        sim = Simulation()
        head = [sim.schedule(1.0, lambda: None) for _ in range(70)]
        for _ in range(10):
            sim.schedule(10.0, lambda: None)
        for event in head:
            event.cancel()  # rebuild fires at the 64th dead event
        assert sim.heap_rebuilds == 1
        assert sim.peek_time() == 10.0
        assert sim._cancelled_pending == 0
        assert sim.pending_count == 10
        sim.run()
        assert sim.events_processed == 10

    def test_network_churn_keeps_queue_bounded(self):
        """The reference engine cancels one completion event per flow on
        every churn step; the queue must stay O(live flows)."""
        from repro.cluster import MetricsCollector
        from repro.spec import Network

        sim = Simulation()
        net = Network(sim, MetricsCollector(), 100.0, 1e6)
        for i in range(200):
            net.start_transfer(f"s{i}", f"d{i}", 1e3, lambda: None)
        # 200 admissions reallocated 200 times, cancelling ~200 events
        # each: without garbage collection the heap would hold ~20k
        # entries here.
        assert len(sim._queue) < 2 * 200 + 64
        sim.run()
        assert sim.pending_count == 0
