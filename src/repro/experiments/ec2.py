"""The Amazon EC2 experiments (Section 5.2, Figures 4, 5 and 6).

Two 51-instance clusters (1 master + 50 slaves), 640 MB files with 64 MB
blocks so each file is exactly one stripe (14 blocks under HDFS-RS, 16
under HDFS-Xorbas), and eight failure events terminating
1/1/1/1/3/3/2/2 DataNodes.  Three experiment sizes: 50, 100 and 200
files; Figure 4/5 report the 200-file run, Figure 6 pools all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..codes.lrc import xorbas_lrc
from ..codes.reed_solomon import rs_10_4
from ..cluster import EC2_FAILURE_PATTERN, ClusterConfig, ec2_config
from .parallel import ResultCache, parallel_map
from .runner import SchemeRunSummary, run_failure_schedule

__all__ = [
    "DEFAULT_PAYLOAD_BYTES",
    "EC2_DATA_BLOCKS_PER_FILE",
    "EC2_FILE_SIZE",
    "EC2_SCHEME_CODES",
    "ec2_files_for_blocks",
    "EC2ExperimentSummary",
    "run_ec2_experiment_parallel",
    "run_all_ec2_experiments_parallel",
    "run_scheme_config",
    "scheme_config",
    "least_squares_slope",
    "fig6_slopes",
]

EC2_FILE_SIZE = 640e6  # one full stripe per file (Section 5.2)
EC2_DATA_BLOCKS_PER_FILE = 10  # 640 MB / 64 MB: one full stripe of k = 10


def ec2_files_for_blocks(blocks: float) -> int:
    """File count giving ~``blocks`` data blocks (the ``--blocks`` knob).

    The EC2 setup stores exactly one k = 10 stripe per file, so the
    mapping is exact; the columnar BlockIndex keeps million-block
    targets practical.
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    return max(1, round(blocks / EC2_DATA_BLOCKS_PER_FILE))

#: The two systems under comparison, by the name their runs carry.
EC2_SCHEME_CODES = {"HDFS-RS": rs_10_4, "HDFS-Xorbas": xorbas_lrc}

#: Paper reference values for Figure 6's least-squares slopes: average
#: blocks read per lost block (Section 5.2.1).
PAPER_BLOCKS_READ_PER_LOST = {"HDFS-RS": 11.5, "HDFS-Xorbas": 5.8}


@dataclass
class EC2ExperimentSummary:
    """Picklable view of an EC2 experiment — what workers and the
    on-disk cache exchange, and what the figure harnesses consume."""

    num_files: int
    rs: SchemeRunSummary
    xorbas: SchemeRunSummary

    def runs(self) -> list[SchemeRunSummary]:
        return [self.rs, self.xorbas]


#: Per-block verification payload size of the paper-scale runs: the
#: cluster-wide default, re-exported so the CLI and cached scheme configs
#: share the single source of truth.  Small by default so simulations
#: stay cheap; the batched codec engine makes paper-scale full-byte
#: verification (--payload-bytes in the KBs) feasible too.
DEFAULT_PAYLOAD_BYTES = ClusterConfig.payload_bytes


def scheme_config(
    scheme: str,
    num_files: int = 200,
    seed: int = 0,
    num_nodes: int = 50,
    pattern: tuple[int, ...] = EC2_FAILURE_PATTERN,
    event_gap: float = 900.0,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
) -> dict[str, Any]:
    """One scheme/seed configuration as plain JSON-serialisable values.

    This is the unit the parallel runner fans out and the cache keys on:
    every field that influences the simulation's outcome is present, so
    equal hashes imply equal results.
    """
    if scheme not in EC2_SCHEME_CODES:
        raise ValueError(f"unknown scheme {scheme!r} (use {sorted(EC2_SCHEME_CODES)})")
    return {
        "experiment": "ec2-failure-schedule",
        "scheme": scheme,
        "num_files": num_files,
        "seed": seed,
        "num_nodes": num_nodes,
        "pattern": list(pattern),
        "event_gap": event_gap,
        "file_size": EC2_FILE_SIZE,
        "payload_bytes": payload_bytes,
    }


def run_scheme_config(config: Mapping[str, Any]) -> SchemeRunSummary:
    """Worker entry point: simulate one scheme configuration.

    Module-level so it pickles into ``multiprocessing`` workers; takes
    and returns only picklable values.  The optional ``"_runtime"`` key
    carries checkpoint plumbing (``checkpoint_dir``, ``resume``) — the
    underscore prefix keeps it out of the cache key, so a resumed run
    lands back under its original hash.
    """
    runtime = dict(config.get("_runtime") or {})
    code = EC2_SCHEME_CODES[config["scheme"]]()
    cluster_config = ec2_config(num_nodes=config["num_nodes"]).scaled(
        payload_bytes=int(config.get("payload_bytes", DEFAULT_PAYLOAD_BYTES))
    )
    checkpoint = None
    if runtime.get("checkpoint_dir"):
        checkpoint = ResultCache(runtime["checkpoint_dir"])
    run = run_failure_schedule(
        config["scheme"],
        code,
        cluster_config,
        [config["file_size"]] * config["num_files"],
        tuple(config["pattern"]),
        seed=config["seed"],
        event_gap=config["event_gap"],
        checkpoint=checkpoint,
        resume=bool(runtime.get("resume")) and checkpoint is not None,
    )
    return run.summary()


def run_ec2_experiment_parallel(
    num_files: int = 200,
    seed: int = 0,
    num_nodes: int = 50,
    pattern: tuple[int, ...] = EC2_FAILURE_PATTERN,
    event_gap: float = 900.0,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> EC2ExperimentSummary:
    """The EC2 experiment via the parallel runner: the two clusters are
    independent simulations, so they fan across workers, and each
    scheme's result is cached on disk independently.

    With ``checkpoint_dir`` each worker snapshots its cluster at epoch
    boundaries; ``resume=True`` makes a rerun pick up from the newest
    valid snapshot instead of starting over.  Both are runtime plumbing
    (shipped under the ``"_runtime"`` config key) and do not perturb
    result cache keys.
    """
    if num_files < 1:
        raise ValueError("need at least one file")
    runtime = (
        {"_runtime": {"checkpoint_dir": checkpoint_dir, "resume": resume}}
        if checkpoint_dir
        else {}
    )
    configs = [
        {
            **scheme_config(
                scheme,
                num_files=num_files,
                seed=seed,
                num_nodes=num_nodes,
                pattern=pattern,
                event_gap=event_gap,
                payload_bytes=payload_bytes,
            ),
            **runtime,
        }
        for scheme in ("HDFS-RS", "HDFS-Xorbas")
    ]
    rs, xorbas = parallel_map(
        run_scheme_config, configs, jobs=jobs, cache=cache, namespace="ec2"
    )
    return EC2ExperimentSummary(num_files=num_files, rs=rs, xorbas=xorbas)


def run_all_ec2_experiments_parallel(
    file_counts: tuple[int, ...] = (50, 100, 200),
    seed: int = 0,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> list[EC2ExperimentSummary]:
    """All experiment sizes at once: every (scheme, size) pair is one
    worker task, so the full Figure 6 sweep parallelises six ways."""
    configs = [
        scheme_config(scheme, num_files=count, seed=seed + index)
        for index, count in enumerate(file_counts)
        for scheme in ("HDFS-RS", "HDFS-Xorbas")
    ]
    summaries = parallel_map(
        run_scheme_config, configs, jobs=jobs, cache=cache, namespace="ec2"
    )
    return [
        EC2ExperimentSummary(
            num_files=count, rs=summaries[2 * i], xorbas=summaries[2 * i + 1]
        )
        for i, count in enumerate(file_counts)
    ]


def least_squares_slope(xs: list[float], ys: list[float]) -> float:
    """Zero-intercept least-squares slope (the fit lines of Figure 6)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    denominator = float((x * x).sum())
    if denominator == 0:
        raise ValueError("cannot fit a slope to all-zero x values")
    return float((x * y).sum() / denominator)


def fig6_slopes(
    results: Sequence[EC2ExperimentSummary],
) -> dict[str, dict[str, float]]:
    """Least-squares slopes of the Figure 6 scatter, per scheme.

    Returns, for each scheme, the average blocks read per lost block,
    GB of network traffic per lost block, and repair minutes per lost
    block.
    """
    out: dict[str, dict[str, float]] = {}
    for scheme_index in range(2):
        runs = [result.runs()[scheme_index] for result in results]
        scheme = runs[0].scheme
        lost, read, net, dur = [], [], [], []
        for run in runs:
            for event in run.events:
                lost.append(event.blocks_lost)
                read.append(event.hdfs_bytes_read)
                net.append(event.network_out_bytes)
                dur.append(event.repair_duration)
        block_size = runs[0].config.block_size
        out[scheme] = {
            "blocks_read_per_lost": least_squares_slope(
                lost, [r / block_size for r in read]
            ),
            "network_gb_per_lost": least_squares_slope(lost, [n / 1e9 for n in net]),
            "repair_minutes_per_lost": least_squares_slope(
                lost, [d / 60.0 for d in dur]
            ),
        }
    return out
