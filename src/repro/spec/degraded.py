"""Event-driven degraded-read simulation: the executable semantics
:class:`~repro.cluster.readservice.ReadServiceEngine` is held
element-identical to on shared ``ReadSchedule`` objects.  Without a
schedule it keeps the seed's own interleaved legacy draw, bit for bit.
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

    Stripes are placed round-robin with all blocks of a stripe on
    distinct nodes (the paper's placement policy).  The simulation is
    fully deterministic given the seed.
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
        # Independent streams per concern, so two simulations with the
        # same seed see identical outage windows and read arrival times
        # even when their codes have different n (and thus consume a
        # different number of placement draws).
        placement_seed, outage_seed, read_seed = np.random.SeedSequence(
            seed
        ).spawn(3)
        self.placement_rng = np.random.default_rng(placement_seed)
        self.outage_rng = np.random.default_rng(outage_seed)
        self.read_rng = np.random.default_rng(read_seed)
        self.sim = Simulation()
        self.stats = ReadServiceStats(scheme=getattr(code, "name", repr(code)))
        self.node_down_until = np.zeros(self.config.num_nodes)
        # placement[stripe, position] = node hosting that block.
        self.placement = draw_placement(self.config, code, self.placement_rng)
        if schedule is None and self.config.uses_scenarios:
            # Scenario knobs (Zipf/diurnal/rack outages) are drawn by
            # the vectorized generator; both engines consume the result.
            schedule = ReadSchedule.draw(self.config, code, seed)
        if schedule is not None:
            schedule.check(self.config, code)
        #: The outage windows and read arrivals this run will replay.
        #: ``None`` until drawn — the seed's legacy interleaved draw
        #: happens at :meth:`run` time, exactly as the seed consumed it.
        self.schedule = schedule

    # -- event generators ---------------------------------------------------

    def _draw_legacy_schedule(self) -> ReadSchedule:
        """The seed's interleaved RNG consumption, captured as arrays.

        Draw order is bit-for-bit the seed implementation's — per node:
        gap, duration, gap, ... until the horizon; then per read: gap,
        stripe, position — so seeded results are unchanged, while the
        drawn schedule becomes inspectable and replayable.
        """
        cfg = self.config
        outage_nodes: list[int] = []
        outage_starts: list[float] = []
        outage_durations: list[float] = []
        for node in range(cfg.num_nodes):
            t = 0.0
            while True:
                t += self.outage_rng.exponential(1.0 / cfg.outage_rate_per_node)
                if t >= cfg.duration:
                    break
                duration = self.outage_rng.exponential(cfg.outage_duration_mean)
                outage_nodes.append(node)
                outage_starts.append(t)
                outage_durations.append(duration)
        read_times: list[float] = []
        read_stripes: list[int] = []
        read_positions: list[int] = []
        t = 0.0
        while True:
            t += self.read_rng.exponential(1.0 / cfg.read_rate)
            if t >= cfg.duration:
                break
            stripe = int(self.read_rng.integers(cfg.num_stripes))
            position = (
                int(self.read_rng.integers(self.code.k)) if self.code.k > 1 else 0
            )
            read_times.append(t)
            read_stripes.append(stripe)
            read_positions.append(position)
        return ReadSchedule(
            outage_node=np.asarray(outage_nodes, dtype=np.int64),
            outage_start=np.asarray(outage_starts, dtype=np.float64),
            outage_duration=np.asarray(outage_durations, dtype=np.float64),
            read_time=np.asarray(read_times, dtype=np.float64),
            read_stripe=np.asarray(read_stripes, dtype=np.int64),
            read_position=np.asarray(read_positions, dtype=np.int64),
        )

    def _schedule_outages(self, schedule: ReadSchedule) -> None:
        """Queue each node's outage windows over the horizon."""
        for node, start, duration in zip(
            schedule.outage_node.tolist(),
            schedule.outage_start.tolist(),
            schedule.outage_duration.tolist(),
        ):
            self.sim.schedule_at(start, self._make_outage(node, duration))

    def _make_outage(self, node: int, duration: float):
        def begin() -> None:
            until = self.sim.now + duration
            if until > self.node_down_until[node]:
                self.node_down_until[node] = until

        return begin

    def _schedule_reads(self, schedule: ReadSchedule) -> None:
        for t, stripe, position in zip(
            schedule.read_time.tolist(),
            schedule.read_stripe.tolist(),
            schedule.read_position.tolist(),
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
        cfg = self.config
        base_latency = cfg.block_size / cfg.node_bandwidth
        self.stats.total_reads += 1
        if self._is_up(int(self.placement[stripe, position])):
            self._record(base_latency, degraded=False)
            return
        # Degraded path: reconstruct from available stripe members.  The
        # code's RepairPlanner makes the light-vs-heavy call (and memoises
        # it per outage pattern); the in-memory client reads k blocks when
        # forced onto the heavy decoder.
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
            self.stats.failed_reads += 1
            return
        latency = reads * cfg.block_size / cfg.node_bandwidth
        self._record(latency, degraded=True)

    def _record(self, latency: float, degraded: bool) -> None:
        self.stats.latencies.append(latency)
        if degraded:
            self.stats.degraded_reads += 1
            self.stats.degraded_latencies.append(latency)
        if latency > self.config.read_timeout:
            self.stats.timed_out_reads += 1

    # -- driver -----------------------------------------------------------------

    def run(self) -> ReadServiceStats:
        if self.schedule is None:
            self.schedule = self._draw_legacy_schedule()
        self._schedule_outages(self.schedule)
        self._schedule_reads(self.schedule)
        self.sim.run()
        return self.stats
