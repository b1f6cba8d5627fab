"""Event-driven degraded-read simulation: the executable semantics
:class:`~repro.cluster.readservice.ReadServiceEngine` is held
element-identical to.

Both start from the same ``(code, config, seed)``: placement from
:func:`~repro.cluster.degraded.draw_placement`, outage windows and read
arrivals from :meth:`ReadSchedule.draw` (unless a schedule is handed
in), stats from :meth:`ReadServiceStats.from_arrays`.  They differ only
in how they replay the schedule — one heap event per outage and per
read here, whole-schedule array passes in the engine.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.degraded import DegradedReadConfig, ReadServiceStats, draw_placement
from repro.cluster.readservice import ReadSchedule
from repro.cluster.sim import Simulation
from repro.codes.base import ErasureCode, mask_of

__all__ = ["DegradedReadSimulation"]


class DegradedReadSimulation:
    """Event-driven degraded-read experiment for one erasure code.

    All blocks of a stripe sit on distinct nodes (the paper's placement
    policy).  The simulation is fully deterministic given the seed.
    """

    def __init__(
        self,
        code: ErasureCode,
        config: DegradedReadConfig | None = None,
        seed: int = 0,
        schedule: ReadSchedule | None = None,
    ):
        self.config = config or DegradedReadConfig()
        self.config.validate()
        if code.n > self.config.num_nodes:
            raise ValueError(
                f"stripes of {code.n} blocks need at least that many nodes"
            )
        self.code = code
        self.sim = Simulation()
        self.node_down_until = np.zeros(self.config.num_nodes)
        # placement[stripe, position] = node hosting that block.
        self.placement = draw_placement(self.config, code, seed)
        if schedule is None:
            schedule = ReadSchedule.draw(self.config, code, seed)
        schedule.check(self.config, code)
        #: The outage windows and read arrivals this run replays.
        self.schedule = schedule
        # Per served read, in service order; unrecoverable reads only count.
        self.latencies: list[float] = []
        self.degraded: list[bool] = []
        self.failed_reads = 0

    # -- event generators ---------------------------------------------------

    def _schedule_outages(self) -> None:
        """Queue each node's outage windows over the horizon."""
        schedule = self.schedule
        for node, start, duration in zip(
            map(int, schedule.outage_node),
            map(float, schedule.outage_start),
            map(float, schedule.outage_duration),
        ):
            self.sim.schedule_at(start, self._make_outage(node, duration))

    def _make_outage(self, node: int, duration: float):
        def begin() -> None:
            until = self.sim.now + duration
            if until > self.node_down_until[node]:
                self.node_down_until[node] = until

        return begin

    def _schedule_reads(self) -> None:
        schedule = self.schedule
        for t, stripe, position in zip(
            map(float, schedule.read_time),
            map(int, schedule.read_stripe),
            map(int, schedule.read_position),
        ):
            self.sim.schedule_at(t, self._make_read(stripe, position))

    # -- the read path --------------------------------------------------------

    def _is_up(self, node: int) -> bool:
        return self.node_down_until[node] <= self.sim.now

    def _make_read(self, stripe: int, position: int):
        def serve() -> None:
            self._serve_read(stripe, position)

        return serve

    def _serve_read(self, stripe: int, position: int) -> None:
        degraded = not self._is_up(int(self.placement[stripe, position]))
        reads = 1
        if degraded:
            # Reconstruct from available stripe members.  The code's
            # RepairPlanner makes the light-vs-heavy call; the in-memory
            # client reads k blocks when forced onto the heavy decoder.
            available = [
                pos
                for pos in range(self.code.n)
                if pos != position and self._is_up(int(self.placement[stripe, pos]))
            ]
            decision = self.code.planner.plan_block(position, mask_of(available))
            if decision.light:
                reads = decision.num_reads
            elif decision.feasible:
                reads = self.code.k
            else:
                self.failed_reads += 1
                return
        cfg = self.config
        self.latencies.append(reads * cfg.block_size / cfg.node_bandwidth)
        self.degraded.append(degraded)

    # -- driver -----------------------------------------------------------------

    def run(self) -> ReadServiceStats:
        self._schedule_outages()
        self._schedule_reads()
        self.sim.run()
        return ReadServiceStats.from_arrays(
            scheme=getattr(self.code, "name", repr(self.code)),
            latencies=np.array(self.latencies, dtype=np.float64),
            degraded=np.array(self.degraded, dtype=bool),
            failed_reads=self.failed_reads,
            read_timeout=self.config.read_timeout,
        )
