"""Declared metrics of e2ebench and the reduction of a traced pass.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; BENCHMARK.json repeats them (the test
suite holds the two equal) and ``run.py`` prints exactly these.

Every number is *host* time unless its name starts with ``simstat.``;
those are simulated-cluster statistics that repeat exactly for a seed.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "END_TO_END", "EXACT", "PER_LAYER", "WORKLOADS", "layer_metrics",
    "untraced_layer_metrics",
]

#: (name, why, what ``work_per_s`` counts).  ``workloads.py`` holds the code.
WORKLOADS: list[tuple[str, str, str]] = [
    (
        "ec2_repair_storm",
        "Fig 4-6 schedule on 100 nodes: eight repair storms of concurrent "
        "flows; flownet does ~79% of the work, cluster load and codec are in the noise",
        "lost blocks repaired",
    ),
    (
        "facebook_node_loss",
        "Table 3 small-file population, one node lost: same modules used "
        "differently; cluster load/placement is ~23% here (3% on ec2), flownet ~60%",
        "lost blocks repaired",
    ),
    (
        "degraded_read_sweep",
        "4 scenarios x 3 schemes of client reads: readservice + the shared "
        "RepairPlanner, no flows/events/bytes; flownet or codec work must not move it",
        "client reads",
    ),
    (
        "codec_stripe_bytes",
        "RS(10,4) and LRC(10,6,5) encode/repair/reconstruct of real bytes, no "
        "simulator: galois+codes kernels only; must leave the simulator workloads flat",
        "MB of blocks coded",
    ),
]

#: (name, unit, better, bound).  Every workload reports every one, and
#: none can be 0 (builder contract), so the throughput metric is generic:
#: ``work_per_s`` counts the workload's own unit of verified work.
#: The time bounds are 0.20, not the issue's 0.10: on the shared reference
#: box ten runs of one commit spread 3-6 % (quartile distance / median) in
#: calm periods and memory-bound passes run ~13 % slower for minutes at a
#: time when a neighbour is busy; a bound has to clear three spreads.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.20),
    ("rs_wall_s", "s", "lower", 0.20),
    ("xorbas_wall_s", "s", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("work_per_s", "1/s", "higher", 0.20),
]

#: (name, unit, better).  ``better`` is the direction a pure speed-up
#: moves it; exact counts and simstat values must simply not change.
PER_LAYER: list[tuple[str, str, str]] = [
    # experiments.runner
    ("runner.load_s", "s", "lower"),
    ("runner.quiesce_self_s", "s", "lower"),
    ("runner.epochs", "count", "lower"),
    ("runner.blocks_repaired_per_s", "1/s", "higher"),
    # cluster.hdfs
    ("hdfs.create_file_s", "s", "lower"),
    ("hdfs.raid_s", "s", "lower"),
    ("hdfs.io_self_s", "s", "lower"),
    ("hdfs.stored_blocks", "count", "lower"),
    ("hdfs.load_blocks_per_s", "1/s", "higher"),
    # cluster.namenode (+ blockindex)
    ("namenode.place_s", "s", "lower"),
    ("namenode.placements", "count", "lower"),
    ("namenode.repair_queue_s", "s", "lower"),
    ("namenode.repair_queue_entries", "count", "lower"),
    ("namenode.kill_detect_s", "s", "lower"),
    # cluster.sim
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.step_us_p50", "us", "lower"),
    ("sim.step_us_p999", "us", "lower"),
    ("sim.heap_rebuilds", "count", "lower"),
    ("sim.simulated_s", "s", "lower"),
    # cluster.flownet
    ("flownet.busy_s", "s", "lower"),
    ("flownet.transfers", "count", "lower"),
    ("flownet.sentinel_events", "count", "lower"),
    ("flownet.us_per_churn", "us", "lower"),
    ("flownet.peak_active_flows", "count", "lower"),
    # cluster.mapreduce
    ("mapreduce.busy_s", "s", "lower"),
    ("mapreduce.take_task_s", "s", "lower"),
    ("mapreduce.tasks", "count", "lower"),
    ("mapreduce.jobs", "count", "lower"),
    # cluster.blockfixer
    ("blockfixer.busy_s", "s", "lower"),
    ("blockfixer.scans", "count", "lower"),
    ("blockfixer.scan_s", "s", "lower"),
    ("blockfixer.batch_schedule_s", "s", "lower"),
    # codes (engine, xorplane)
    ("codec.encode_s", "s", "lower"),
    ("codec.encode_cold_s", "s", "lower"),
    ("codec.repair_s", "s", "lower"),
    ("codec.reconstruct_s", "s", "lower"),
    ("codec.reconstruct2_mb_per_s", "MB/s", "higher"),
    ("codec.compile_s", "s", "lower"),
    ("codec.compiles", "count", "lower"),
    ("codec.decoder_hit_ratio", "fraction", "higher"),
    ("codec.schedule_hit_ratio", "fraction", "higher"),
    ("codec.xor_plane_calls", "count", "lower"),
    ("codec.xor_bytes_per_out_byte", "B/B", "lower"),
    ("codec.encode_roofline_frac", "fraction", "higher"),
    ("codec.encode_mb_per_s", "MB/s", "higher"),
    ("codec.light_repair_mb_per_s", "MB/s", "higher"),
    ("codec.heavy_repair_mb_per_s", "MB/s", "higher"),
    ("planner.plan_s", "s", "lower"),
    ("planner.plan_calls", "count", "lower"),
    # galois
    ("galois.matmul_batch_s", "s", "lower"),
    ("galois.bitplane_s", "s", "lower"),
    ("galois.inv_s", "s", "lower"),
    ("galois.xor_roofline_mb_per_s", "MB/s", "higher"),
    ("galois.memcpy_roofline_mb_per_s", "MB/s", "higher"),
    # cluster.readservice (+ degraded)
    ("readservice.draw_schedule_s", "s", "lower"),
    ("readservice.draw_placement_s", "s", "lower"),
    ("readservice.is_up_s", "s", "lower"),
    ("readservice.run_self_s", "s", "lower"),
    ("readservice.stats_s", "s", "lower"),
    ("readservice.reads", "count", "lower"),
    ("readservice.reads_per_s", "1/s", "higher"),
    ("readservice.degraded_reads", "count", "lower"),
    ("readservice.distinct_patterns", "count", "lower"),
    # cluster.metrics (simulated statistics: must repeat exactly)
    ("simstat.rs_blocks_read_per_lost", "blocks", "lower"),
    ("simstat.xorbas_blocks_read_per_lost", "blocks", "lower"),
    ("simstat.repair_minutes_ratio", "fraction", "lower"),
    ("simstat.rs_availability", "fraction", "higher"),
    ("simstat.lrc_availability", "fraction", "higher"),
    # harness
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
]

#: Per-layer metrics that repeat exactly for a seed: two runs of one
#: commit must agree on them, and those read from public counters (not
#: spans) must also agree between the traced and untraced passes of a run.
EXACT = frozenset(name for name, unit, _ in PER_LAYER if unit == "count") | {
    "codec.decoder_hit_ratio", "codec.schedule_hit_ratio",
    "codec.xor_bytes_per_out_byte", "sim.simulated_s",
    "simstat.rs_blocks_read_per_lost", "simstat.xorbas_blocks_read_per_lost",
    "simstat.repair_minutes_ratio", "simstat.rs_availability",
    "simstat.lrc_availability",
}

#: Span names owned by each event-driven layer ("busy" = their self time).
_FLOWNET = ("event:flownet", "flownet.start_transfer", "flownet.abort_node")
_MAPREDUCE = ("event:mapreduce", "cb:mapreduce", "mapreduce.submit",
              "mapreduce.take_task", "mapreduce.handle_node_death")
_BLOCKFIXER = ("event:blockfixer", "cb:blockfixer", "blockfixer.scan",
               "blockfixer.batch_schedule", "blockfixer.task_execute")
_HDFS_IO = ("event:hdfs", "cb:hdfs", "hdfs.read_blocks", "hdfs.write_block",
            "hdfs.choose_repair_target")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def untraced_layer_metrics(
    seconds: dict[str, float],
    call_medians: dict[str, float],
    counts: dict[str, float],
    block_mb: float,
    calibration: dict[str, float],
) -> dict[str, float]:
    """Per-layer rates that must be measured with tracing off.

    ``seconds`` holds one pass's ``wall`` and ``encode_cold`` seconds,
    ``call_medians`` the median duration of one codec call of each kind,
    ``block_mb`` the MB of one block batch.  Rates of layers a workload
    does not run are 0.
    """
    wall = seconds["wall"]
    out = {
        "sim.events_per_s": _ratio(counts.get("sim.events", 0), wall),
        "runner.blocks_repaired_per_s": _ratio(counts.get("runner.blocks_repaired", 0), wall),
        "readservice.reads_per_s": _ratio(counts.get("readservice.reads", 0), wall),
        "codec.encode_mb_per_s": _ratio(10 * block_mb, call_medians.get("encode", 0.0)),
        "codec.light_repair_mb_per_s": _ratio(
            block_mb, call_medians.get("light_repair", 0.0)
        ),
        "codec.heavy_repair_mb_per_s": _ratio(
            block_mb, call_medians.get("heavy_repair", 0.0)
        ),
        "codec.reconstruct2_mb_per_s": _ratio(
            2 * block_mb, call_medians.get("reconstruct_warm", 0.0)
        ),
        "codec.encode_cold_s": seconds["encode_cold"],
    }
    out["codec.encode_roofline_frac"] = _ratio(
        out["codec.encode_mb_per_s"], calibration["galois.xor_roofline_mb_per_s"]
    )
    out.update(calibration)
    return out


def layer_metrics(table: Any, samples: dict[str, int], counts: dict[str, float]) -> dict[str, float]:
    """Reduce one traced pass's spans to the span-derived per-layer metrics."""
    load = table.inclusive_s("runner.build_loaded_cluster")
    flow_busy = table.self_s(*_FLOWNET)
    flow_events = table.count("event:flownet")
    transfers = table.count("flownet.start_transfer")
    root = table.root_s()
    return {
        "runner.load_s": load,
        "runner.quiesce_self_s": table.self_s("runner.run_until_quiescent"),
        "hdfs.create_file_s": table.inclusive_s("hdfs.create_file"),
        "hdfs.raid_s": table.inclusive_s("hdfs.raid_all_instant"),
        "hdfs.io_self_s": table.self_s(*_HDFS_IO),
        "hdfs.load_blocks_per_s": _ratio(counts.get("hdfs.stored_blocks", 0), load),
        "namenode.place_s": table.self_s(
            "namenode.placement_candidates", "namenode.place_stripe"
        ),
        "namenode.placements": table.count(
            "namenode.placement_candidates", "namenode.place_stripe"
        ),
        "namenode.repair_queue_s": table.inclusive_s("namenode.repair_queue"),
        "namenode.kill_detect_s": table.inclusive_s(
            "namenode.kill_node", "namenode.detect_failures"
        ),
        "sim.step_us_p50": table.percentile_us("event:*", 50),
        "sim.step_us_p999": table.percentile_us("event:*", 99.9),
        "flownet.busy_s": flow_busy,
        "flownet.sentinel_events": flow_events,
        "flownet.us_per_churn": _ratio(flow_busy * 1e6, transfers + flow_events),
        "flownet.peak_active_flows": samples["peak_active_flows"],
        "mapreduce.busy_s": table.self_s(*_MAPREDUCE),
        "mapreduce.take_task_s": table.inclusive_s("mapreduce.take_task"),
        "mapreduce.tasks": table.count("blockfixer.task_execute"),
        "blockfixer.busy_s": table.self_s(*_BLOCKFIXER),
        "blockfixer.scans": table.count("blockfixer.scan"),
        "blockfixer.scan_s": table.inclusive_s("blockfixer.scan"),
        "blockfixer.batch_schedule_s": table.inclusive_s("blockfixer.batch_schedule"),
        "codec.encode_s": table.inclusive_s("codec.encode_stripes"),
        "codec.repair_s": table.inclusive_s("codec.repair_stripes"),
        "codec.reconstruct_s": table.toplevel_s(
            "codec.reconstruct", under="codec.repair_stripes"
        ),
        "codec.compile_s": table.inclusive_s("codec.compile_xor_schedule"),
        "codec.compiles": table.count("codec.compile_xor_schedule"),
        "planner.plan_s": table.inclusive_s("planner.plan_block", "planner.plan_stripe"),
        "planner.plan_calls": table.count("planner.plan_block", "planner.plan_stripe"),
        "galois.matmul_batch_s": table.inclusive_s("galois.gf_matmul_batch"),
        "galois.bitplane_s": table.inclusive_s(
            "galois.pack_bitplanes", "galois.unpack_bitplanes"
        ),
        "galois.inv_s": table.inclusive_s("galois.gf_inv"),
        "readservice.draw_schedule_s": table.inclusive_s("readservice.draw_schedule"),
        "readservice.draw_placement_s": table.inclusive_s("readservice.draw_placement"),
        "readservice.is_up_s": table.inclusive_s("readservice.is_up"),
        "readservice.run_self_s": table.self_s("readservice.run"),
        "readservice.stats_s": table.inclusive_s("readservice.stats"),
        "readservice.distinct_patterns": samples["distinct_patterns"],
        "trace.spans": len(table),
        "trace.unattributed_frac": _ratio(table.root_self_s(), root),
    }
