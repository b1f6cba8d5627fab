"""Measurement layer: the paper's three evaluation metrics plus time series.

Section 5.1 defines *HDFS Bytes Read* (data read by repair jobs),
*Network Traffic* (bytes leaving cluster nodes, CloudWatch-style) and
*Repair Duration* (first repair job launch to last completion).  The
collector also keeps 5-minute-bucket time series to regenerate Figure 5.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "MetricsCollector",
    "FailureEventRecord",
    "percentile",
    "summary_stats",
]


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """NaN-safe percentile: an empty window yields NaN, never a crash.

    A percentile of nothing is not zero — callers that used to get 0.0
    for an empty scan interval (e.g. no repairs ran) could not tell
    "no repairs" from "instant repairs".  An array is used as is.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan
    return float(np.percentile(arr, q))


def summary_stats(values: Sequence[float] | np.ndarray) -> dict[str, float]:
    """Count/mean/median/min/max of a window; NaN stats when empty."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {
            "count": 0.0,
            "mean": math.nan,
            "median": math.nan,
            "min": math.nan,
            "max": math.nan,
        }
    return {
        "count": float(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


class TimeSeries:
    """Amounts attributed to fixed-width time buckets.

    ``add_interval`` spreads a quantity uniformly over a time range, so a
    transfer's bytes land in every bucket it overlaps — the same view a
    5-minute-resolution monitoring tool (the paper used CloudWatch) gives.
    """

    def __init__(self, bucket_width: float):
        if bucket_width <= 0:
            raise ValueError("bucket width must be positive")
        self.bucket_width = bucket_width
        self._buckets: dict[int, float] = defaultdict(float)

    def add_point(self, time: float, amount: float) -> None:
        self._buckets[int(time // self.bucket_width)] += amount

    def add_interval(self, start: float, end: float, amount: float) -> None:
        if end < start:
            raise ValueError("interval end precedes start")
        if amount == 0:
            return
        if end == start:
            self.add_point(start, amount)
            return
        rate = amount / (end - start)
        first = int(start // self.bucket_width)
        last = int(end // self.bucket_width)
        for bucket in range(first, last + 1):
            lo = max(start, bucket * self.bucket_width)
            hi = min(end, (bucket + 1) * self.bucket_width)
            if hi > lo:
                self._buckets[bucket] += rate * (hi - lo)

    def total(self) -> float:
        return sum(self._buckets.values())

    def series(self, until: float | None = None) -> list[tuple[float, float]]:
        """(bucket_start_time, amount) pairs, zero-filled and ordered."""
        if not self._buckets:
            return []
        last = max(self._buckets)
        if until is not None:
            last = max(last, int(until // self.bucket_width))
        return [
            (bucket * self.bucket_width, self._buckets.get(bucket, 0.0))
            for bucket in range(0, last + 1)
        ]

    def values(self, until: float | None = None) -> list[float]:
        return [amount for _, amount in self.series(until)]


@dataclass
class FailureEventRecord:
    """Per-failure-event measurements — one bar group of Figure 4."""

    label: str
    nodes_killed: int
    time: float
    blocks_lost: int = 0
    hdfs_bytes_read: float = 0.0
    network_out_bytes: float = 0.0
    repair_start: float | None = None
    repair_end: float | None = None
    light_repairs: int = 0
    heavy_repairs: int = 0

    @property
    def repair_duration(self) -> float:
        """Seconds from first repair-job launch to last job completion."""
        if self.repair_start is None or self.repair_end is None:
            return 0.0
        return self.repair_end - self.repair_start

    @property
    def blocks_read_per_lost(self) -> float:
        """Bytes read per lost block; NaN when the event lost nothing
        (0/0 is not "zero bytes per block")."""
        if self.blocks_lost == 0:
            return math.nan
        return self.hdfs_bytes_read / self.blocks_lost


class MetricsCollector:
    """Cluster-wide counters, per-node attribution, and time series."""

    def __init__(self, bucket_width: float = 300.0):
        self.hdfs_bytes_read = 0.0
        self.network_out_bytes = 0.0
        self.network_in_bytes = 0.0
        self.bytes_written = 0.0
        self.disk_read_by_node: dict[str, float] = defaultdict(float)
        self.network_out_by_node: dict[str, float] = defaultdict(float)
        self.network_series = TimeSeries(bucket_width)
        self.disk_series = TimeSeries(bucket_width)
        self.cpu_busy_series = TimeSeries(bucket_width)
        self.events: list[FailureEventRecord] = []
        self._active_event: FailureEventRecord | None = None

    # -- failure-event scoping ---------------------------------------------

    def begin_event(self, record: FailureEventRecord) -> FailureEventRecord:
        self.events.append(record)
        self._active_event = record
        return record

    def end_event(self) -> None:
        self._active_event = None

    @property
    def active_event(self) -> FailureEventRecord | None:
        return self._active_event

    # -- attribution hooks (called by network / tasks) ------------------------

    def record_block_read(
        self, node_id: str, nbytes: float, start: float, end: float
    ) -> None:
        """A block (or part of one) read off a DataNode's disk for repair
        or degraded reads — the paper's HDFS Bytes Read metric."""
        self.hdfs_bytes_read += nbytes
        self.disk_read_by_node[node_id] += nbytes
        self.disk_series.add_interval(start, end, nbytes)
        if self._active_event is not None:
            self._active_event.hdfs_bytes_read += nbytes

    def record_network_out(
        self, node_id: str, nbytes: float, start: float, end: float
    ) -> None:
        self.network_out_bytes += nbytes
        self.network_in_bytes += nbytes  # internal traffic: in == out
        self.network_out_by_node[node_id] += nbytes
        self.network_series.add_interval(start, end, nbytes)
        if self._active_event is not None:
            self._active_event.network_out_bytes += nbytes

    # -- batched attribution (one call per network settle) ---------------------

    def record_reads_batch(
        self,
        node_totals: Iterable[tuple[str, float]],
        total: float,
        start: float,
        end: float,
    ) -> None:
        """Batched :meth:`record_block_read`: per-node byte totals for one
        shared interval, with the bucketed time series fed once with the
        aggregate instead of once per flow.  The flow-table network engine
        settles thousands of concurrent repair flows per churn step;
        attribution cost must not scale with the flow count."""
        self.hdfs_bytes_read += total
        for node_id, nbytes in node_totals:
            self.disk_read_by_node[node_id] += nbytes
        self.disk_series.add_interval(start, end, total)
        if self._active_event is not None:
            self._active_event.hdfs_bytes_read += total

    def record_network_out_batch(
        self,
        node_totals: Iterable[tuple[str, float]],
        total: float,
        start: float,
        end: float,
    ) -> None:
        """Batched :meth:`record_network_out` over one shared interval."""
        self.network_out_bytes += total
        self.network_in_bytes += total
        for node_id, nbytes in node_totals:
            self.network_out_by_node[node_id] += nbytes
        self.network_series.add_interval(start, end, total)
        if self._active_event is not None:
            self._active_event.network_out_bytes += total

    def record_write(self, nbytes: float) -> None:
        self.bytes_written += nbytes

    def record_cpu_busy(self, start: float, end: float, load: float = 1.0) -> None:
        """``load`` slot-seconds-per-second of CPU occupancy over a span."""
        self.cpu_busy_series.add_interval(start, end, load * (end - start))

    def record_repair_job(self, start: float, end: float) -> None:
        if self._active_event is None:
            return
        event = self._active_event
        if event.repair_start is None or start < event.repair_start:
            event.repair_start = start
        if event.repair_end is None or end > event.repair_end:
            event.repair_end = end

    def record_repair_kind(self, light: bool) -> None:
        if self._active_event is None:
            return
        if light:
            self._active_event.light_repairs += 1
        else:
            self._active_event.heavy_repairs += 1

    def cpu_utilization_series(
        self, num_nodes: int, slots_per_node: int, until: float | None = None
    ) -> list[tuple[float, float]]:
        """Average CPU utilisation (0..1) per bucket — Figure 5(c)."""
        capacity = num_nodes * slots_per_node * self.cpu_busy_series.bucket_width
        return [
            (t, min(1.0, busy / capacity))
            for t, busy in self.cpu_busy_series.series(until)
        ]
