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
The heap holds ``(time, seq, event)`` tuples, which compare in C: ``seq``
is unique, so the comparison never reaches the event itself.

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


@dataclass
class Event:
    """A scheduled callback.  Cancelled events stay queued but inert
    until the owning :class:`Simulation` garbage-collects them."""

    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False
    executed: bool = False
    sim: "Simulation | None" = field(default=None, repr=False)
    #: Optional label, for traces and debugging; never affects order.
    name: str | None = None

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
        self._queue: list[tuple[float, int, Event]] = []
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
        heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def reserve_seq(self) -> int:
        """A sequence number for one event scheduled later through
        :meth:`schedule_reserved`."""
        seq = self._seq
        self._seq += 1
        return seq

    def schedule_reserved(
        self, seq: int, time: float, callback: Callable[[], None]
    ) -> Event:
        """Schedule ``callback`` at ``time`` in the queue position of the
        reserved ``seq``: among same-time events it runs as if it had
        been scheduled when ``seq`` was reserved.  Use each reserved
        number once."""
        resume = self._seq
        self._seq = seq
        try:
            return self.schedule_at(time, callback)
        finally:
            self._seq = resume

    def peek_time(self) -> float | None:
        """Time of the next pending event, skipping cancelled ones."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._cancelled_pending -= 1
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[2]
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
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
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
