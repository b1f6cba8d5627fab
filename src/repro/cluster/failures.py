"""Failure injection and the synthetic node-failure trace of Figure 1.

The EC2 experiments terminate DataNodes in a scripted pattern
(1, 1, 1, 1, 3, 3, 2, 2 nodes per event — Section 5.2); the trace
generator reproduces the *statistics* of the production trace in
Figure 1: around 20 failed nodes on a typical day with occasional bursts
to ~100+ (the paper shows a spike near 110).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hdfs import HadoopCluster
from .metrics import summary_stats

__all__ = [
    "EC2_FAILURE_PATTERN",
    "FailureInjector",
    "FailureTraceGenerator",
    "trace_summary",
]

#: The paper's eight failure events: DataNodes terminated per event.
EC2_FAILURE_PATTERN: tuple[int, ...] = (1, 1, 1, 1, 3, 3, 2, 2)


class FailureInjector:
    """Scripted DataNode terminations against a simulated cluster.

    With no explicit ``rng`` the injector derives its randomness from
    the cluster's failure seed (itself derived from the experiment seed
    unless ``ClusterConfig.failure_seed`` pins it), so two experiments
    with different seeds draw different failure traces.  The historical
    behaviour — a hard-coded ``default_rng(1234)`` shared by every
    experiment regardless of its seed — silently made "independent"
    replications identical.
    """

    def __init__(
        self,
        cluster: HadoopCluster,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ):
        self.cluster = cluster
        if rng is None:
            if seed is None:
                seed = getattr(cluster, "failure_seed", 0)
            rng = np.random.default_rng(
                np.random.SeedSequence([0xFA11, int(seed)])
            )
        self.rng = rng
        self.killed: list[str] = []

    def pick_nodes(self, count: int) -> list[str]:
        """Choose alive nodes storing roughly the average block count.

        The paper selected DataNodes "storing roughly the same number of
        blocks" across the two clusters, so events are comparable.
        """
        alive = self.cluster.namenode.alive_nodes()
        if count > len(alive):
            raise ValueError(f"cannot kill {count} of {len(alive)} alive nodes")
        counts = self.cluster.namenode.node_block_counts()
        average = float(np.mean([counts[n.node_id] for n in alive]))
        ranked = sorted(
            alive, key=lambda n: (abs(counts[n.node_id] - average), n.node_id)
        )
        # Randomise among the closest-to-average half to avoid always
        # killing the same nodes across events.
        pool = ranked[: max(count, len(ranked) // 2)]
        picks = self.rng.choice(len(pool), size=count, replace=False)
        return [pool[i].node_id for i in sorted(picks.tolist())]

    def kill(self, count: int) -> tuple[list[str], int]:
        """Terminate ``count`` nodes now; returns (node_ids, blocks_lost)."""
        node_ids = self.pick_nodes(count)
        blocks_lost = 0
        for node_id in node_ids:
            blocks_lost += self.cluster.fail_node(node_id)
            self.killed.append(node_id)
        return node_ids, blocks_lost

@dataclass(frozen=True)
class FailureTraceGenerator:
    """Synthetic daily node-failure counts for a large production cluster.

    Model: a base load of routine failures (Poisson) plus rare burst
    events (rolling upgrades, rack/switch incidents) drawn on ~5% of
    days, matching the envelope of the paper's Figure 1 (typical ~20/day,
    bursts up to ~110 in a 3000-node cluster).
    """

    base_rate: float = 19.0
    burst_probability: float = 0.06
    burst_scale: float = 65.0
    cluster_nodes: int = 3000

    def generate(self, days: int = 31, seed: int = 0) -> list[int]:
        if days < 1:
            raise ValueError("need at least one day")
        rng = np.random.default_rng(seed)
        counts = rng.poisson(self.base_rate, size=days)
        bursts = rng.random(days) < self.burst_probability
        extra = rng.exponential(self.burst_scale, size=days)
        counts = counts + np.where(bursts, extra.astype(np.int64), 0)
        return [int(min(c, self.cluster_nodes)) for c in counts]


def trace_summary(trace: list[int]) -> dict[str, float]:
    """Summary statistics reported alongside Figure 1.

    An empty trace summarizes to NaN statistics (and ``days == 0``)
    instead of crashing on ``max()`` of nothing.
    """
    arr = np.asarray(trace, dtype=float)
    stats = summary_stats(arr)
    return {
        "days": float(len(arr)),
        "mean": stats["mean"],
        "median": stats["median"],
        "max": stats["max"],
        "min": stats["min"],
        "days_over_20": float((arr >= 20).sum()),
    }
