"""Minimal discrete-event simulation engine.

A single ordered event queue drives every component of the cluster
simulator (network transfers, MapReduce heartbeats, daemon scan timers,
failure injections).  Events are plain callbacks; determinism comes from
the (time, sequence) ordering — ties break in scheduling order, never by
object identity — so every experiment is exactly reproducible.

Cancelled events do not linger: the queue counts its dead entries and
rebuilds itself (dropping them) whenever they outnumber the live ones.
Components that cancel and reschedule aggressively — the network layer
re-arms its completion sentinel on every flow churn — therefore keep
the heap at O(live events) instead of O(all events ever scheduled).
The rebuild cannot perturb replay: events are strictly totally ordered
by (time, seq), so a re-heapified queue pops in exactly the same order.

Every callback a component leaves queued between activities is a bound
method (daemon timers, the network sentinel), never a closure, so a
quiescent simulation pickles whole: ``repro.recovery`` checkpoints a
run by pickling the cluster that owns it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulation"]

#: Minimum number of dead events before a rebuild is considered, so tiny
#: queues are not re-heapified over and over.
_REBUILD_FLOOR = 64


@dataclass(order=True)
class Event:
    """A scheduled callback.  Cancelled events stay queued but inert
    until the owning :class:`Simulation` garbage-collects them."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    executed: bool = field(default=False, compare=False)
    sim: "Simulation | None" = field(default=None, compare=False, repr=False)
    #: Optional label, for traces and debugging; never affects order.
    name: str | None = field(default=None, compare=False)

    def cancel(self) -> None:
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancelled()


class Simulation:
    """Event loop with a virtual clock (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[Event] = []
        self._seq = 0
        self._processed = 0
        self._cancelled_pending = 0
        self.heap_rebuilds = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None], name: str | None = None
    ) -> Event:
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        event = Event(time=time, seq=self._seq, callback=callback, sim=self, name=name)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def peek_time(self) -> float | None:
        """Time of the next pending event, skipping cancelled ones."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_pending -= 1
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            event.executed = True
            self.now = event.time
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> None:
        """Drain the queue, optionally stopping the clock at ``until``.

        ``max_events`` guards against runaway feedback loops in component
        logic — hitting it is always a bug, so it raises.
        """
        count = 0
        while True:
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            if not self.step():
                break
            count += 1
            if count >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "likely a scheduling feedback loop"
                )

    # -- queue hygiene -----------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= _REBUILD_FLOOR
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._rebuild()

    def _rebuild(self) -> None:
        """Drop dead events and re-heapify; pop order is unchanged."""
        self._queue = [event for event in self._queue if not event.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0
        self.heap_rebuilds += 1

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_pending

    @property
    def events_processed(self) -> int:
        return self._processed
