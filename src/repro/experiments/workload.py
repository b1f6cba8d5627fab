"""The repair-under-workload experiment (Section 5.2.4, Figure 7, Table 2).

Two 15-slave clusters run ten WordCount jobs over five identical 3 GB
files (each job processes one file; every file feeds two jobs).  Three
scenarios: all blocks available; ~20% of blocks missing under HDFS-RS;
the same under HDFS-Xorbas.  Missing blocks force degraded reads, whose
cost difference (5 vs 10 block downloads) is the experiment's point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..codes.base import ErasureCode
from ..codes.lrc import xorbas_lrc
from ..codes.reed_solomon import rs_10_4
from ..cluster import (
    DegradedReadStats,
    HadoopCluster,
    MapReduceJob,
    ec2_config,
    make_wordcount_job,
)
from .runner import build_loaded_cluster

__all__ = [
    "PAPER_TABLE2",
    "WorkloadResult",
    "run_workload_scenario",
    "run_workload_experiment",
]

NUM_SLAVES = 15
NUM_FILES = 5
FILE_SIZE = 3e9
NUM_JOBS = 10
JOB_STAGGER = 300.0  # submission spacing; Fig 7 shows staggered completions
MISSING_FRACTION = 0.20

#: Published Table 2 / Figure 7 values: average job execution minutes.
#: (Table 2's two degraded columns appear transposed relative to the text,
#: which states the delay is 9 minutes for LRC and 23 for RS; we follow
#: the text.)
PAPER_TABLE2 = {
    "baseline_minutes": 83.0,
    "xorbas_minutes": 92.0,
    "rs_minutes": 106.0,
    "baseline_bytes_read_gb": 30.0,
}


@dataclass
class WorkloadResult:
    """One scenario of Figure 7: per-job completion times + read totals."""

    scenario: str
    job_minutes: list[float]
    total_bytes_read: float
    degraded_reads: int
    blocks_missing: int

    @property
    def average_minutes(self) -> float:
        """Mean job duration; NaN when the scenario ran no jobs."""
        if not self.job_minutes:
            return math.nan
        return float(np.mean(self.job_minutes))


def _make_missing(cluster: HadoopCluster, fraction: float, seed: int) -> int:
    """Simulate scattered transient block loss: ~``fraction`` of each
    stripe's data blocks become unavailable, spread across the stripe.

    The paper "simulates block losses" to exercise degraded reads — the
    transient-failure regime of Section 1.1 (90% of data-centre failure
    events), where unavailable blocks are scattered, not correlated.  We
    therefore drop ``round(fraction * data_blocks)`` blocks per stripe at
    spread-out positions (one per local repair group for a (10, 6, 5)
    stripe), the same positions under both schemes, so every loss is
    light-repairable for Xorbas and every stripe stays decodable for RS.
    No BlockFixer runs; reconstruction happens via degraded reads only.
    """
    rng = np.random.default_rng(seed)
    namenode = cluster.namenode
    missing_data = 0
    group_width = 5  # the (10,6,5) code's data groups: [0..4], [5..9]
    for stripe in cluster.all_stripes():
        count = int(round(fraction * stripe.data_blocks))
        if count == 0:
            continue
        positions: list[int] = []
        for g in range(count):
            lo = g * group_width
            hi = min((g + 1) * group_width, stripe.data_blocks)
            if lo >= stripe.data_blocks:
                break
            positions.append(int(rng.integers(lo, hi)))
        for position in positions:
            namenode.remove_block(stripe, position)
            namenode.mark_missing(stripe, position)
            missing_data += 1
    return missing_data


def run_workload_scenario(
    scenario: str,
    code: ErasureCode,
    missing_fraction: float = 0.0,
    seed: int = 0,
    wordcount_rate: float | None = None,
) -> WorkloadResult:
    """Run the ten staggered WordCount jobs under one scenario."""
    # Workload calibration: m1.small WordCount mappers sustained well under
    # 1 MB/s of input including JVM and shuffle overheads — 0.2 MB/s puts
    # the all-blocks-available average near the paper's 83 minutes, and a
    # ~5 MB/s effective per-NIC rate makes degraded reads cost the tens of
    # seconds per block that produce Fig 7's 9- vs 23-minute delays.
    config = ec2_config(num_nodes=NUM_SLAVES).scaled(
        wordcount_rate=wordcount_rate if wordcount_rate is not None else 0.155e6,
        node_bandwidth=1.5e6,
        core_bandwidth=100e6,
    )
    cluster = build_loaded_cluster(
        code, config, [FILE_SIZE] * NUM_FILES, seed=seed
    )
    blocks_missing = 0
    if missing_fraction > 0:
        blocks_missing = _make_missing(cluster, missing_fraction, seed + 7)
    stats = DegradedReadStats()
    jobs: list[MapReduceJob] = []

    def submit(job_index: int) -> None:
        stored = cluster.files[f"file{job_index % NUM_FILES:05d}"]
        job = make_wordcount_job(
            cluster, stored, stats, name=f"wordcount-{job_index + 1}"
        )
        jobs.append(job)
        cluster.jobtracker.submit(job)

    for job_index in range(NUM_JOBS):
        cluster.sim.schedule(job_index * JOB_STAGGER, lambda i=job_index: submit(i))
    deadline = 48 * 3600.0
    while True:
        if jobs and len(jobs) == NUM_JOBS and all(j.is_finished for j in jobs):
            break
        if cluster.sim.now > deadline:
            raise RuntimeError(f"workload did not finish within {deadline}s")
        if not cluster.sim.step():
            break
    return WorkloadResult(
        scenario=scenario,
        job_minutes=[job.elapsed / 60.0 for job in jobs],
        total_bytes_read=cluster.metrics.hdfs_bytes_read,
        degraded_reads=stats.degraded_reads,
        blocks_missing=blocks_missing,
    )


def run_workload_experiment(seed: int = 0) -> dict[str, WorkloadResult]:
    """All three Figure 7 scenarios."""
    return {
        "baseline": run_workload_scenario("All blocks available", xorbas_lrc(), 0.0, seed),
        "rs": run_workload_scenario(
            "20% missing - RS", rs_10_4(), MISSING_FRACTION, seed
        ),
        "xorbas": run_workload_scenario(
            "20% missing - Xorbas", xorbas_lrc(), MISSING_FRACTION, seed
        ),
    }
