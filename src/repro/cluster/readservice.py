"""Vectorized million-read degraded-read service engine.

Section 4 of the paper leaves the availability benefit of faster LRC
degraded reads as future work; ``repro.cluster.degraded`` frames that
study and ``repro.spec.degraded`` keeps its event-driven executable
specification.  This module is the batched implementation — the last
scalar hot path of the simulator after the reliability,
codec, metadata and network layers were vectorized — built for the
ROADMAP's "heavy traffic from millions of users": replaying millions of
client reads against pre-drawn outage interval arrays in a handful of
numpy passes.

The decomposition:

* :class:`ReadSchedule` — the randomness, pulled out of the engines.  A
  schedule is plain arrays (per-node outage windows; read arrival
  times, stripes, positions) that *both* engines consume, and
  :meth:`ReadSchedule.draw` is the one generator: the same seed gives
  the same schedule on either side, so differential testing is exact —
  same ``(code, config, seed)`` in, element-identical
  :class:`~repro.cluster.degraded.ReadServiceStats` out.  The
  generator also owns the scenario knobs — Zipf hot/cold stripe
  popularity (inverse-CDF sampling), diurnal read-rate modulation
  (Poisson thinning) and correlated rack-level outages (one rack draw
  expanded to every member node).
* :class:`OutageWindows` — struct-of-arrays union of each node's outage
  intervals (the spec's ``down_until = max(...)`` semantics, merged),
  with ``searchsorted``-based availability checks over whole query
  batches.
* :class:`ReadServiceEngine` — the service loop as array passes: one
  availability gather for every read's target block, a stripe-pattern
  matrix for the (rare) degraded subset packed into one
  ``(position << n) | pattern-bitmask`` key per read — ``np.unique``
  over the keys means ``plan_block`` is called once per *distinct*
  erasure pattern, with the key's two halves handed over as they are —
  and batched latency/timeout accounting through
  ``ReadServiceStats.from_arrays``, the accounting path the spec shares.

Determinism contract: given the same seed (or the same schedule), the
engine reproduces the event-driven spec's stats element for element
(counts exact, latency arrays bit-identical — the arithmetic is the
same ``reads * block_size / node_bandwidth`` IEEE expression).  Boundary
semantics match the spec's event ordering: at an outage's exact start
instant the node is already down (outage events sort before read
events), and at ``start + duration`` it is up again
(``down_until <= now``).  ``benchmarks/bench_readservice.py`` repeats
the comparison at one million reads and records the speed ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.difftest import ArraySchedule, require_nonnegative, require_sorted

from ..codes.base import ErasureCode
from .degraded import (
    DegradedReadConfig,
    ReadServiceStats,
    draw_placement,
)

__all__ = [
    "MAX_PATTERN_BITS",
    "OutageWindows",
    "ReadSchedule",
    "ReadServiceEngine",
]

#: Pattern keys pack ``(position << n) | readable_bitmask`` into an
#: int64, so the widest stripe the vectorized key packing supports is
#: 56 blocks (position needs the bits above ``n``).
MAX_PATTERN_BITS = 56

SECONDS_PER_DAY = 86400.0

#: Per-draw chunk ceiling for the arrival generator: bounds peak memory
#: (a chunk of gaps plus its cumsum) regardless of how many arrivals the
#: horizon implies — 1e8-read schedules draw in bounded passes instead
#: of one multi-GB block.
_ARRIVAL_CHUNK_ELEMENTS = 4_000_000


def _poisson_arrivals(
    rng: np.random.Generator, rate: float, horizon: float, streams: int
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times of ``streams`` independent Poisson processes.

    Exponential gaps are drawn in blocks and cumulatively summed per
    stream until every stream crosses the horizon; returns ``(stream,
    time)`` arrays sorted by (stream, time).
    """
    scale = 1.0 / rate
    block = max(int(rate * horizon * 1.5) + 8, 8)
    block = min(block, max(_ARRIVAL_CHUNK_ELEMENTS // streams, 8))
    totals = np.zeros(streams)
    active = np.arange(streams)
    stream_chunks: list[np.ndarray] = []
    time_chunks: list[np.ndarray] = []
    while active.size:
        gaps = rng.exponential(scale, size=(active.size, block))
        times = totals[active, None] + np.cumsum(gaps, axis=1)
        keep = times < horizon
        stream_chunks.append(np.repeat(active, keep.sum(axis=1)))
        time_chunks.append(times[keep])
        totals[active] = times[:, -1]
        active = active[times[:, -1] < horizon]
    streams_out = np.concatenate(stream_chunks)
    times_out = np.concatenate(time_chunks)
    order = np.lexsort((times_out, streams_out))
    return streams_out[order], times_out[order]


def _sample_stripes(
    rng: np.random.Generator, num_stripes: int, exponent: float, size: int
) -> np.ndarray:
    """Stripe draws under rank-based Zipf popularity (0 = uniform)."""
    if exponent == 0.0:
        return rng.integers(num_stripes, size=size, dtype=np.int64)
    weights = np.arange(1, num_stripes + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(draws, num_stripes - 1).astype(np.int64)


@dataclass(frozen=True)
class ReadSchedule(ArraySchedule):
    """One experiment's randomness, frozen as arrays.

    The original of the :class:`repro.difftest.ArraySchedule` pattern,
    now an instance of it.  ``outage_*`` rows are per-node transient
    windows (rack-level events appear expanded, one row per member
    node); ``read_*`` rows are the client arrivals in time order.
    The event-driven spec and the vectorized engine both replay one,
    drawn from the seed or handed in, which is what makes their stats
    element-identical.
    """

    outage_node: np.ndarray
    outage_start: np.ndarray
    outage_duration: np.ndarray
    read_time: np.ndarray
    read_stripe: np.ndarray
    read_position: np.ndarray

    @property
    def num_reads(self) -> int:
        return int(self.read_time.size)

    @property
    def num_outages(self) -> int:
        return int(self.outage_start.size)

    def check(self, config: DegradedReadConfig, code: ErasureCode) -> None:
        """Cheap shape/bounds validation against a config and code."""
        # Misaligned columns would be truncated by the spec's zip but
        # crash the engine's fancy indexing: reject them for both.
        reads = (self.read_time, self.read_stripe, self.read_position)
        outages = (self.outage_node, self.outage_start, self.outage_duration)
        for kind, columns in (("read", reads), ("outage", outages)):
            if len({column.shape for column in columns}) > 1:
                raise ValueError(f"the three {kind}_* columns must align")
        if self.read_time.size:
            # Non-decreasing arrival order is part of the differential
            # contract: the spec replays reads through a (time, seq)
            # heap while the engine keeps array order, so an unsorted
            # schedule would silently produce differently-ordered stats.
            require_sorted(self.read_time, "read arrivals")
            if float(self.read_time[0]) < 0:
                raise ValueError("read arrivals cannot precede time zero")
            if float(self.read_time[-1]) >= config.duration:
                raise ValueError("read arrivals must fall inside the horizon")
            if int(self.read_stripe.min()) < 0:
                raise ValueError("stripe indices must be non-negative")
            if int(self.read_stripe.max()) >= config.num_stripes:
                raise ValueError("schedule addresses more stripes than config")
            if int(self.read_position.min()) < 0:
                raise ValueError("positions must be non-negative")
            if int(self.read_position.max()) >= max(code.k, 1):
                raise ValueError(
                    f"schedule positions exceed the code's k={code.k}"
                )
        if self.outage_node.size:
            if int(self.outage_node.min()) < 0:
                raise ValueError("outage nodes must be non-negative")
            if int(self.outage_node.max()) >= config.num_nodes:
                raise ValueError("schedule addresses more nodes than config")
            require_nonnegative(self.outage_start, "outage window starts")

    @classmethod
    def draw(
        cls,
        config: DegradedReadConfig,
        code: ErasureCode,
        seed: int = 0,
    ) -> "ReadSchedule":
        """Draw the canonical batched schedule for (config, code, seed).

        ``SeedSequence(seed).spawn(3)`` gives placement (taken by
        :func:`~repro.cluster.degraded.draw_placement`), outages and
        reads; each concern then splits into sub-streams, so
        every quantity that does not depend on the code (outage windows,
        arrival times, stripe popularity) is *identical across codes*:
        the controlled-comparison contract.  Only the position draws
        consume ``code.k``.
        """
        config.validate()
        _, outage_ss, read_ss = np.random.SeedSequence(seed).spawn(3)
        node_ss, rack_ss = outage_ss.spawn(2)
        time_ss, stripe_ss, position_ss = read_ss.spawn(3)

        node_rng = np.random.default_rng(node_ss)
        nodes, starts = _poisson_arrivals(
            node_rng, config.outage_rate_per_node, config.duration,
            config.num_nodes,
        )
        durations = node_rng.exponential(
            config.outage_duration_mean, size=starts.size
        )
        if config.num_racks:
            rack_rng = np.random.default_rng(rack_ss)
            racks, rack_starts = _poisson_arrivals(
                rack_rng, config.rack_outage_rate, config.duration,
                config.num_racks,
            )
            rack_durations = rack_rng.exponential(
                config.rack_outage_duration_mean, size=rack_starts.size
            )
            node_ids = np.arange(config.num_nodes, dtype=np.int64)
            members = [
                node_ids[node_ids % config.num_racks == r]
                for r in range(config.num_racks)
            ]
            counts = np.array(
                [members[r].size for r in racks.tolist()], dtype=np.int64
            )
            if counts.size:
                nodes = np.concatenate(
                    [nodes] + [members[r] for r in racks.tolist()]
                )
                starts = np.concatenate(
                    (starts, np.repeat(rack_starts, counts))
                )
                durations = np.concatenate(
                    (durations, np.repeat(rack_durations, counts))
                )

        time_rng = np.random.default_rng(time_ss)
        if config.diurnal_amplitude > 0:
            # Nonhomogeneous Poisson via thinning: draw at the peak rate,
            # accept each arrival with probability rate(t) / rate_max.
            # The sinusoid is renormalized by its mean over the actual
            # horizon, so ``read_rate`` stays the *average* rate (and a
            # CLI ``--reads`` target is met in expectation) even when
            # the horizon covers a partial day and the window happens to
            # sit on the peak or the trough of the cycle.
            amplitude = config.diurnal_amplitude
            phase = 2.0 * np.pi * config.duration / SECONDS_PER_DAY
            mean_modulation = 1.0 + amplitude * (1.0 - np.cos(phase)) / phase
            rate_max = config.read_rate * (1.0 + amplitude) / mean_modulation
            _, candidates = _poisson_arrivals(
                time_rng, rate_max, config.duration, 1
            )
            modulation = 1.0 + amplitude * np.sin(
                2.0 * np.pi * candidates / SECONDS_PER_DAY
            )
            accept = time_rng.random(candidates.size) * (1.0 + amplitude) < (
                modulation
            )
            times = candidates[accept]
        else:
            _, times = _poisson_arrivals(
                time_rng, config.read_rate, config.duration, 1
            )

        stripes = _sample_stripes(
            np.random.default_rng(stripe_ss),
            config.num_stripes,
            config.zipf_exponent,
            times.size,
        )
        if code.k > 1:
            positions = np.random.default_rng(position_ss).integers(
                code.k, size=times.size, dtype=np.int64
            )
        else:
            positions = np.zeros(times.size, dtype=np.int64)
        return cls(
            outage_node=nodes.astype(np.int64),
            outage_start=starts,
            outage_duration=durations,
            read_time=times,
            read_stripe=stripes,
            read_position=positions,
        )


class OutageWindows:
    """Struct-of-arrays union of per-node outage intervals.

    A node is down at ``t`` iff some window ``[start, start + duration)``
    contains it — exactly the spec's ``down_until = max(...)`` semantics
    once overlapping windows are merged.  Merged windows are stored
    flat, per-node segments addressed by ``offsets``, so an availability
    check is one ``searchsorted`` per queried node segment.
    """

    def __init__(
        self,
        num_nodes: int,
        node: np.ndarray,
        start: np.ndarray,
        duration: np.ndarray,
    ):
        self.num_nodes = int(num_nodes)
        node = np.asarray(node, dtype=np.int64)
        start = np.asarray(start, dtype=np.float64)
        end = start + np.asarray(duration, dtype=np.float64)
        order = np.lexsort((start, node))
        node, start, end = node[order], start[order], end[order]

        starts: list[np.ndarray] = []
        ends: list[np.ndarray] = []
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        bounds = np.searchsorted(node, np.arange(self.num_nodes + 1))
        for v in range(self.num_nodes):
            lo, hi = bounds[v], bounds[v + 1]
            if lo == hi:
                continue
            node_starts = start[lo:hi]
            running_end = np.maximum.accumulate(end[lo:hi])
            # A window opens a new merged interval iff it starts after
            # everything before it has ended (start == previous end
            # merges: the spec's outage event at that instant runs
            # before any same-time read).
            fresh = np.empty(hi - lo, dtype=bool)
            fresh[0] = True
            fresh[1:] = node_starts[1:] > running_end[:-1]
            firsts = np.flatnonzero(fresh)
            merged_ends = np.maximum.reduceat(end[lo:hi], firsts)
            starts.append(node_starts[firsts])
            ends.append(merged_ends)
            counts[v] = firsts.size
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        if starts:
            self.starts = np.concatenate(starts)
            self.ends = np.concatenate(ends)
        else:
            self.starts = np.empty(0, dtype=np.float64)
            self.ends = np.empty(0, dtype=np.float64)

    @property
    def num_windows(self) -> int:
        return int(self.starts.size)

    def is_up(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Vectorized availability: ``up[i]`` for ``(nodes[i], times[i])``.

        Queries are counting-sorted by node, each node segment resolved
        with one ``searchsorted`` against that node's merged windows —
        exact float comparisons, no composite-key rounding.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        up = np.ones(nodes.shape, dtype=bool)
        if not self.starts.size or not nodes.size:
            return up
        order = np.argsort(nodes, kind="stable")
        sorted_nodes = nodes[order]
        sorted_times = times[order]
        query_bounds = np.searchsorted(
            sorted_nodes, np.arange(self.num_nodes + 1)
        )
        result = np.ones(sorted_nodes.size, dtype=bool)
        for v in np.unique(sorted_nodes).tolist():
            lo, hi = self.offsets[v], self.offsets[v + 1]
            if lo == hi:
                continue
            a, b = query_bounds[v], query_bounds[v + 1]
            segment_times = sorted_times[a:b]
            idx = np.searchsorted(
                self.starts[lo:hi], segment_times, side="right"
            ) - 1
            inside = idx >= 0
            idx = np.maximum(idx, 0)
            inside &= segment_times < self.ends[lo + idx]
            result[a:b] = ~inside
        up[order] = result
        return up


class ReadServiceEngine:
    """Batched replay of a read schedule against one erasure code.

    Same constructor shape and ``run() -> ReadServiceStats`` as the
    event-driven oracle ``repro.spec.degraded.DegradedReadSimulation``,
    with the per-read Python callback replaced by whole-schedule array
    passes.  Scales to millions of reads; the spec remains the
    executable semantics and the differential tests hold the two to
    element-identical stats for the same seed.
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
        if code.n > MAX_PATTERN_BITS:
            raise ValueError(
                f"stripe width {code.n} exceeds the {MAX_PATTERN_BITS}-bit "
                "pattern interning limit"
            )
        self.code = code
        self.placement = draw_placement(self.config, code, seed)
        if schedule is None:
            schedule = ReadSchedule.draw(self.config, code, seed)
        schedule.check(self.config, code)
        self.schedule = schedule
        self.windows = OutageWindows(
            self.config.num_nodes,
            schedule.outage_node,
            schedule.outage_start,
            schedule.outage_duration,
        )
        #: Distinct (position, pattern) keys the planner was asked about.
        self.distinct_patterns = 0
        self.stats: ReadServiceStats | None = None

    def run(self) -> ReadServiceStats:
        cfg = self.config
        code = self.code
        schedule = self.schedule
        times = schedule.read_time
        total = times.size
        base_latency = cfg.block_size / cfg.node_bandwidth
        latencies = np.full(total, base_latency)
        served = np.ones(total, dtype=bool)
        degraded = np.zeros(total, dtype=bool)

        targets = self.placement[schedule.read_stripe, schedule.read_position]
        degraded_idx = np.flatnonzero(~self.windows.is_up(targets, times))
        if degraded_idx.size:
            stripe_nodes = self.placement[schedule.read_stripe[degraded_idx]]
            stripe_up = self.windows.is_up(
                stripe_nodes.ravel(),
                np.repeat(times[degraded_idx], code.n),
            ).reshape(-1, code.n)
            weights = np.left_shift(
                np.int64(1), np.arange(code.n, dtype=np.int64)
            )
            pattern_bits = stripe_up @ weights
            keys = (
                schedule.read_position[degraded_idx].astype(np.int64) << code.n
            ) | pattern_bits
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            reads_per_key = np.empty(unique_keys.size, dtype=np.int64)
            pattern_mask = (1 << code.n) - 1
            for i, key in enumerate(unique_keys.tolist()):
                decision = code.planner.plan_block(
                    key >> code.n, key & pattern_mask
                )
                if decision.light:
                    reads_per_key[i] = decision.num_reads
                elif decision.feasible:
                    reads_per_key[i] = code.k
                else:
                    reads_per_key[i] = -1
            self.distinct_patterns = int(unique_keys.size)
            reads = reads_per_key[inverse]
            feasible = reads >= 0
            served[degraded_idx[~feasible]] = False
            served_degraded = degraded_idx[feasible]
            degraded[served_degraded] = True
            # Same IEEE expression as the spec's scalar path:
            # reads * block_size, then / node_bandwidth.
            latencies[served_degraded] = (
                reads[feasible] * cfg.block_size / cfg.node_bandwidth
            )

        self.stats = ReadServiceStats.from_arrays(
            scheme=getattr(code, "name", repr(code)),
            latencies=latencies[served],
            degraded=degraded[served],
            failed_reads=int(total - served.sum()),
            read_timeout=cfg.read_timeout,
        )
        return self.stats

    def __repr__(self) -> str:
        return (
            f"ReadServiceEngine({self.code!r}, reads={self.schedule.num_reads}, "
            f"outage_windows={self.windows.num_windows})"
        )
