"""Degraded-read service under transient node outages.

Section 1.1 lists degraded reads first among the reasons efficient
repair matters: "transient errors with no permanent data loss
correspond to 90% of data center failure events", and while a node is
transiently down, reads of its blocks must reconstruct the data in
memory — a repair whose output is never written to disk.  Section 4
closes by noting LRCs "will have higher availability due to these
faster degraded reads" and leaves the full study as future work; this
module is that study, at simulation scale.

The model: nodes suffer transient outages (Poisson arrivals, exponential
durations); clients issue Poisson reads over uniformly random blocks.
A read of an available block costs one block fetch.  A read of an
unavailable block triggers an in-memory reconstruction: the client
fetches the light-decoder read set in parallel — or ``k`` blocks when
the light decoder cannot run — and XOR/solves locally, so its latency
is the transfer of ``reads`` blocks over the client NIC.  Reads that
exceed the timeout count as unavailability, which is how the paper's
availability discussion connects to the Ford et al. [9] metric.

This module holds the model's vocabulary (config, stats, placement).  A
run is ``(code, config, seed)`` → :meth:`ReadSchedule.draw
<repro.cluster.readservice.ReadSchedule.draw>` → :func:`draw_placement`
→ replay → :meth:`ReadServiceStats.from_arrays`, with one way to do
each step.  :class:`~repro.cluster.readservice.ReadServiceEngine`
replays as batched array passes; the event-driven oracle
``repro.spec.degraded.DegradedReadSimulation`` replays through an event
heap, and differential tests hold the two element-identical from the
seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..codes.base import ErasureCode
from .metrics import percentile

__all__ = [
    "DegradedReadConfig",
    "ReadServiceStats",
    "draw_placement",
]

MB = 1e6


def draw_placement(
    config: DegradedReadConfig, code: ErasureCode, seed: int = 0
) -> np.ndarray:
    """``placement[stripe, position] = node``, all-distinct per stripe.

    Drawn from the first of ``SeedSequence(seed).spawn(3)``, the stream
    ahead of :meth:`ReadSchedule.draw`'s outage and read streams, so the
    spec and the engine see identical layouts for the same seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
    placement = np.zeros((config.num_stripes, code.n), dtype=np.int64)
    # One choice() per stripe is the draw-sequence contract: vectorizing
    # would consume the stream differently and break layout equality
    # between spec and engine for an existing seed.
    for stripe in range(config.num_stripes):
        placement[stripe] = rng.choice(
            config.num_nodes, size=code.n, replace=False
        )
    return placement


@dataclass(frozen=True)
class DegradedReadConfig:
    """Tunables of the degraded-read experiment.

    The scenario knobs below the timeout widen the workload beyond the
    stationary/uniform seed model: a Zipf hot/cold stripe popularity
    skew, a diurnal (24 h sinusoid) modulation of the read rate, and
    correlated rack-level outages that take a whole rack's nodes down
    together.  They are schedule-level features, drawn by
    :meth:`~repro.cluster.readservice.ReadSchedule.draw`, the one
    generator both the event-driven spec and the vectorized engine
    consume.
    """

    num_nodes: int = 50
    num_stripes: int = 200
    block_size: float = 64 * MB
    node_bandwidth: float = 12 * MB  # client NIC, bytes/second
    read_rate: float = 2.0  # client reads per second, cluster-wide
    outage_rate_per_node: float = 1.0 / (12 * 3600.0)  # ~2 outages/node/day
    outage_duration_mean: float = 900.0  # 15-minute transient events
    # Between the LRC light reconstruction (r blocks) and the RS heavy
    # one (k blocks) at the default NIC speed, so the timeout separates
    # the schemes the way Ford et al.'s availability metric would.
    read_timeout: float = 45.0
    duration: float = 6 * 3600.0  # simulated seconds
    # -- scenario knobs ----------------------------------------------------
    zipf_exponent: float = 0.0  # 0 = uniform stripe popularity
    diurnal_amplitude: float = 0.0  # 0 = stationary read rate, < 1
    num_racks: int = 0  # 0 = no rack-level outage process
    rack_outage_rate: float = 1.0 / (24 * 3600.0)  # per rack
    rack_outage_duration_mean: float = 600.0

    def validate(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.num_stripes < 1:
            raise ValueError("need at least one stripe")
        if min(self.block_size, self.node_bandwidth, self.read_rate) <= 0:
            raise ValueError("sizes, bandwidth and rates must be positive")
        if min(self.outage_rate_per_node, self.outage_duration_mean) <= 0:
            raise ValueError("outage rate and mean duration must be positive")
        if self.read_timeout <= 0:
            raise ValueError("read timeout must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.zipf_exponent < 0:
            raise ValueError("Zipf exponent must be non-negative")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")
        if self.num_racks < 0 or self.num_racks > self.num_nodes:
            raise ValueError("num_racks must be in [0, num_nodes]")
        if self.num_racks and (
            min(self.rack_outage_rate, self.rack_outage_duration_mean) <= 0
        ):
            raise ValueError("rack outage rate and mean duration must be positive")


@dataclass(eq=False)
class ReadServiceStats:
    """Aggregated read-path metrics for one scheme.

    ``latencies`` (every served read, in arrival order) and
    ``degraded_latencies`` are float64 arrays.  Array fields make a
    generated ``==`` ambiguous, so there is none: compare field by field.
    """

    scheme: str = ""
    total_reads: int = 0
    degraded_reads: int = 0
    failed_reads: int = 0
    timed_out_reads: int = 0
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    degraded_latencies: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def degraded_fraction(self) -> float:
        """NaN for an empty window: a fraction of no reads is not 0."""
        if not self.total_reads:
            return math.nan
        return self.degraded_reads / self.total_reads

    @property
    def availability(self) -> float:
        """Fraction of reads served within the timeout; NaN when no
        reads arrived (an empty window is not a perfectly available
        one — the PR 3 empty-window convention)."""
        if not self.total_reads:
            return math.nan
        bad = self.timed_out_reads + self.failed_reads
        return 1.0 - bad / self.total_reads

    @property
    def mean_latency(self) -> float:
        """Mean read latency; NaN for an empty window (no reads is not
        the same observation as instant reads)."""
        return float(self.latencies.mean()) if self.latencies.size else math.nan

    @property
    def mean_degraded_latency(self) -> float:
        if not self.degraded_latencies.size:
            return math.nan
        return float(self.degraded_latencies.mean())

    def percentile_latency(self, q: float) -> float:
        return percentile(self.latencies, q)

    @classmethod
    def from_arrays(
        cls,
        scheme: str,
        latencies: np.ndarray,
        degraded: np.ndarray,
        failed_reads: int,
        read_timeout: float,
    ) -> "ReadServiceStats":
        """The one accounting path: build the stats from served-read arrays.

        ``latencies`` holds every *served* read in arrival order and
        ``degraded`` marks which of those took the reconstruction path;
        counters and the timeout census are single vectorized passes.
        Both replays (spec and engine) end here.
        """
        lat = np.asarray(latencies, dtype=np.float64)
        deg = np.asarray(degraded, dtype=bool)
        if lat.shape != deg.shape:
            raise ValueError("latency and degraded arrays must align")
        return cls(
            scheme=scheme,
            total_reads=int(lat.size) + int(failed_reads),
            degraded_reads=int(deg.sum()),
            failed_reads=int(failed_reads),
            timed_out_reads=int((lat > read_timeout).sum()),
            latencies=lat,
            degraded_latencies=lat[deg],
        )
