"""The four e2ebench workloads: inputs, timed public calls, checks.

Each workload is a fixed sequence of calls into the repo's *public*
functions (a "pass").  A pass receives only generated inputs (code
objects included: they are built during set-up and used by one pass),
times nothing but those calls, and returns what the checks and the
simulated statistics need.  Sizes are frozen in :data:`SIZES`; they and
the metric definitions change only in a ``benchmark`` issue (README.md).

Why these four (``metrics.WORKLOADS`` has the one-liners):

* ``ec2_repair_storm`` — eight repair storms of thousands of concurrent
  flows on 100 nodes: the flow network does most of the work, cluster
  load and codec almost none.
* ``facebook_node_loss`` — one node of a 35-node cluster holding a
  small-file population: the same modules used differently, cluster
  load/placement and MapReduce task hand-out show beside the flows.
* ``degraded_read_sweep`` — the read path beside the repair path:
  ``readservice`` + the shared ``RepairPlanner`` with no flows, events
  or payload bytes.
* ``codec_stripe_bytes`` — the byte path with no simulator: ``galois``
  kernels, ``codes.engine`` and ``codes.xorplane``.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.cluster import EC2_FAILURE_PATTERN, ec2_config, facebook_config
from repro.cluster.blockfixer import RepairVerificationError
from repro.codes import rs_10_4, three_replication, xorbas_lrc
from repro.cluster.readservice import ReadSchedule, ReadServiceEngine
from repro.experiments.degraded import degraded_scenarios
from repro.experiments.ec2 import EC2_FILE_SIZE, PAPER_BLOCKS_READ_PER_LOST
from repro.experiments.facebook import facebook_file_sizes
from repro.experiments.runner import run_failure_schedule

__all__ = ["SIZES", "WORKLOADS", "PassResult", "Timer", "simstat_digest"]

#: Frozen workload sizes at ``--scale 1``.  Chosen so one pass takes
#: 3-6 s on the 2-core reference box: the builder contract allows ~37 s
#: per run (set-up included) for 92 runs, and a run wants several
#: passes in ``run_seconds`` = 20.  Node counts are the issue's; file,
#: read and stripe counts are shrunk from the issue's ~26 s passes
#: (2000 EC2 files, 24000 Facebook files, 3e6 reads per cell, 1024
#: stripes) by its fail-loudly-not-slowly rule.  ``ec2_repair_storm``
#: stays at 500 files: at 350 a storm's cost, quadratic in its flows,
#: varied +-6 % with the seed.
SIZES: dict[str, dict[str, Any]] = {
    "ec2_repair_storm": {
        "num_nodes": 100,
        "num_files": 500,  # 640 MB each: 5 000 data blocks, one stripe per file
        "pattern": list(EC2_FAILURE_PATTERN),
        "payload_bytes": 64,
    },
    "facebook_node_loss": {
        "num_nodes": 35,
        "num_files": 4500,  # 94 % 3-block / 6 % 10-block: ~15 400 data blocks
        "pattern": [1],
    },
    "degraded_read_sweep": {
        "duration_s": 6 * 3600.0,
        "reads_per_cell": 800_000,  # x 4 scenarios x 3 schemes = 9.6 M reads
    },
    "codec_stripe_bytes": {
        "stripes": 256,
        "block_bytes": 8192,
        "encode_passes": 3,  # per code; the first is cold
        "rs_repair_sweeps": 1,  # x 14 positions = 14 heavy passes
        "lrc_repair_sweeps": 4,  # x 16 positions = 64 light XOR passes
    },
}

#: Two-erasure patterns rebuilt cold then warm by ``codec_stripe_bytes``.
TWO_ERASURES = {
    "rs": [(0, 1), (2, 9), (4, 11), (10, 13), (3, 12), (7, 8)],
    "xorbas": [(0, 1), (0, 5), (2, 14), (10, 11), (4, 12), (14, 15)],
}

#: Xorbas must read this much less than RS per lost block (paper: ~2x).
XORBAS_READ_RATIO_CEILING = 0.65

CLUSTER_SCHEMES = (("rs", "HDFS-RS", rs_10_4), ("xorbas", "HDFS-Xorbas", xorbas_lrc))


class Timer:
    """Host seconds of each timed public call of a pass, in call order.

    Every pass of a workload makes the same calls in the same order, so
    run.py lines the passes up call by call: the reported seconds of a
    group are the sum over its calls of each call's *median* across the
    passes.  A burst of noise from a neighbouring tenant then spoils
    only the calls it overlaps, not a whole pass.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        #: (label, groups, seconds) per call; every call is in group "wall".
        self.calls: list[tuple[str, tuple[str, ...], float]] = []

    def call(self, label: str, groups: tuple[str, ...], fn: Callable, *args, **kwargs):
        """Run ``fn`` timed; ``label`` names its root span when tracing."""
        if self.tracer is None:
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
        else:
            with self.tracer.root(label):
                start = perf_counter()
                result = fn(*args, **kwargs)
                elapsed = perf_counter() - start
        self.calls.append((label, ("wall", *groups), elapsed))
        return result


@dataclass
class PassResult:
    """What one pass produced, beyond the timer's seconds."""

    attempted: int = 0
    failed: int = 0
    #: Units of useful work done (blocks repaired / reads / MB coded).
    work: float = 0.0
    #: Every simulated result, canonicalised; hashed by simstat_digest.
    simstat: dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics read from public counters (exact unless noted).
    counts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _canonical(value: Any) -> Any:
    if isinstance(value, bool) or isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return "%.9g" % float(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def simstat_digest(simstat: dict[str, Any]) -> str:
    """sha256 over the canonical JSON (ints exact, floats ``%.9g``)."""
    text = json.dumps(_canonical(simstat), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, round(count * scale))


# -- cluster workloads -------------------------------------------------------


def _cluster_pass(inputs: dict[str, Any], timer: Timer) -> PassResult:
    result = PassResult()
    config, sizes = inputs["config"], inputs["file_sizes"]
    pattern, seed = tuple(inputs["pattern"]), inputs["seed"]
    per_lost: dict[str, float] = {}
    minutes: dict[str, float] = {}
    totals = {
        "sim.events": 0, "sim.heap_rebuilds": 0, "sim.simulated_s": 0.0,
        "flownet.transfers": 0, "mapreduce.jobs": 0, "hdfs.stored_blocks": 0,
        "namenode.repair_queue_entries": 0, "runner.epochs": 0,
        "runner.blocks_repaired": 0,
    }
    engines = []
    for key, scheme, _ in CLUSTER_SCHEMES:
        code = inputs["codes"][key]
        gc.collect()
        try:
            run = timer.call(
                f"run_failure_schedule[{scheme}]", (key,), run_failure_schedule,
                scheme, code, config, sizes, pattern, seed=seed,
            )
        except (RepairVerificationError, RuntimeError) as exc:
            # A wrong rebuilt byte or a run that cannot quiesce fails
            # the scheme's every op; how many there were is unknown.
            result.attempted += 1
            result.failed += 1
            result.problems.append(f"{scheme}: {type(exc).__name__}: {exc}")
            continue
        fsck = run.cluster.fsck()
        lost = sum(event.blocks_lost for event in run.events)
        unrepaired = fsck["missing_blocks"] + len(run.cluster.data_loss_events)
        result.attempted += lost
        result.failed += min(lost, unrepaired)
        result.work += lost - min(lost, unrepaired)
        totals["runner.blocks_repaired"] += lost - min(lost, unrepaired)
        killed = sum(pattern)
        if (fsck["dead_nodes"], fsck["alive_nodes"]) != (killed, config.num_nodes - killed):
            result.problems.append(f"{scheme}: fsck {fsck} does not match pattern {pattern}")
        blocks_read = run.metrics.hdfs_bytes_read / config.block_size
        per_lost[key] = blocks_read / max(lost, 1)
        minutes[key] = sum(event.repair_duration for event in run.events) / 60.0
        result.simstat[scheme] = {
            "events": [
                [e.nodes_killed, e.blocks_lost, e.hdfs_bytes_read,
                 e.network_out_bytes, e.repair_duration, e.light_repairs,
                 e.heavy_repairs]
                for e in run.events
            ],
            "fsck": fsck,
            "hdfs_bytes_read": run.metrics.hdfs_bytes_read,
            "network_out_bytes": run.metrics.network_out_bytes,
        }
        totals["sim.events"] += run.cluster.sim.events_processed
        totals["sim.heap_rebuilds"] += run.cluster.sim.heap_rebuilds
        totals["sim.simulated_s"] += run.cluster.sim.now
        totals["flownet.transfers"] += run.cluster.network.admissions
        totals["mapreduce.jobs"] += run.fixer.jobs_dispatched
        totals["hdfs.stored_blocks"] += fsck["stored_blocks"]
        totals["namenode.repair_queue_entries"] += run.fixer.payload_batch_stripes
        totals["runner.epochs"] += len(run.events)
        engines.append(code.engine)
    result.counts.update(totals)
    if len(per_lost) == 2:
        result.counts["simstat.rs_blocks_read_per_lost"] = per_lost["rs"]
        result.counts["simstat.xorbas_blocks_read_per_lost"] = per_lost["xorbas"]
        result.counts["simstat.repair_minutes_ratio"] = (
            minutes["xorbas"] / minutes["rs"] if minutes["rs"] else 0.0
        )
        if not per_lost["xorbas"] < XORBAS_READ_RATIO_CEILING * per_lost["rs"]:
            result.problems.append(
                f"Xorbas read {per_lost['xorbas']:.3f} blocks per lost block, "
                f"not < {XORBAS_READ_RATIO_CEILING} x RS's {per_lost['rs']:.3f}"
            )
    result.counts.update(_engine_counts(engines))
    return result


def _cluster_codes() -> dict[str, Any]:
    """Code objects are inputs: built during set-up, used by one pass only
    (their decoder, schedule and planner caches start cold, as in a CLI run)."""
    return {key: make_code() for key, _, make_code in CLUSTER_SCHEMES}


def _ec2_inputs(seed: int, scale: float) -> dict[str, Any]:
    size = SIZES["ec2_repair_storm"]
    files = _scaled(size["num_files"], scale, 40)
    return {
        "seed": seed,
        "config": ec2_config(num_nodes=size["num_nodes"]).scaled(
            payload_bytes=size["payload_bytes"]
        ),
        "file_sizes": [EC2_FILE_SIZE] * files,
        "pattern": size["pattern"],
        "codes": _cluster_codes(),
    }


def _facebook_inputs(seed: int, scale: float) -> dict[str, Any]:
    size = SIZES["facebook_node_loss"]
    files = _scaled(size["num_files"], scale, 100)
    return {
        "seed": seed,
        "config": facebook_config(num_nodes=size["num_nodes"]),
        "file_sizes": facebook_file_sizes(files, seed),
        "pattern": size["pattern"],
        "codes": _cluster_codes(),
    }


# -- degraded reads ----------------------------------------------------------

DEGRADED_SCHEMES = (
    ("replication", three_replication),
    ("rs", rs_10_4),
    ("xorbas", xorbas_lrc),
)

#: Seed of the outage windows and block placement of every run.  The
#: planner's cost depends on which multi-node outage patterns occur, and
#: a 6 h horizon holds only ~25 node and ~15 rack outages: drawn afresh
#: per seed, one cell's host time varies 2x between seeds.  So the
#: outage structure is frozen and ``--seed`` draws the client reads.
DEGRADED_STRUCTURE_SEED = 0


def _degraded_inputs(seed: int, scale: float) -> dict[str, Any]:
    size = SIZES["degraded_read_sweep"]
    reads = _scaled(size["reads_per_cell"], scale, 2000)
    scenarios = degraded_scenarios(
        duration=size["duration_s"], read_rate=reads / size["duration_s"]
    )
    # Outage streams do not depend on the code or the read rate, so one
    # read-free draw per scenario gives every scheme's outage windows.
    outages = {
        scenario.name: ReadSchedule.draw(
            replace(scenario.config, read_rate=1e-9), rs_10_4(), DEGRADED_STRUCTURE_SEED
        )
        for scenario in scenarios
    }
    # One code object per cell, as ``run_scenario_config`` builds them.
    codes = {
        (scenario.name, key): make_code()
        for scenario in scenarios
        for key, make_code in DEGRADED_SCHEMES
    }
    return {"seed": seed, "scenarios": scenarios, "outages": outages, "codes": codes}


def _degraded_pass(inputs: dict[str, Any], timer: Timer) -> PassResult:
    """What ``run_degraded_scenarios(engine="vectorized")`` does per cell
    (draw the schedule, build the engine, run it), with the frozen outage
    windows swapped into the drawn schedule between the timed calls."""
    result = PassResult()
    seed = inputs["seed"]
    reads = degraded = 0
    availability: dict[str, list[float]] = {key: [] for key, _ in DEGRADED_SCHEMES}
    for scenario in inputs["scenarios"]:
        frozen = inputs["outages"][scenario.name]
        cells = {}
        for key, _ in DEGRADED_SCHEMES:
            code = inputs["codes"][scenario.name, key]
            cell = f"{scenario.name}/{key}"
            drawn = timer.call(
                f"ReadSchedule.draw[{cell}]", (key,),
                ReadSchedule.draw, scenario.config, code, seed,
            )
            schedule = replace(
                drawn,
                outage_node=frozen.outage_node,
                outage_start=frozen.outage_start,
                outage_duration=frozen.outage_duration,
            )
            del drawn
            engine = timer.call(
                f"ReadServiceEngine[{cell}]", (key,), ReadServiceEngine,
                code, scenario.config, DEGRADED_STRUCTURE_SEED, schedule,
            )
            cells[key] = timer.call(f"ReadServiceEngine.run[{cell}]", (key,), engine.run)
            del engine, schedule
        result.attempted += len(cells)
        same_reads = len({stats.total_reads for stats in cells.values()}) == 1
        ordered = cells["xorbas"].availability >= cells["rs"].availability
        if not (same_reads and ordered):
            result.failed += len(cells)
            result.problems.append(
                f"{scenario.name}: reads differ across schemes or LRC "
                "availability < RS availability"
            )
        for key, stats in cells.items():
            reads += stats.total_reads
            degraded += stats.degraded_reads
            availability[key].append(stats.availability)
            result.simstat[f"{scenario.name}/{key}"] = [
                stats.total_reads, stats.degraded_reads,
                stats.failed_reads, stats.timed_out_reads,
            ]
    result.work = reads
    result.counts["readservice.reads"] = reads
    result.counts["readservice.degraded_reads"] = degraded
    result.counts["simstat.rs_availability"] = float(np.mean(availability["rs"]))
    result.counts["simstat.lrc_availability"] = float(np.mean(availability["xorbas"]))
    return result


# -- codec bytes -------------------------------------------------------------


def _codec_inputs(seed: int, scale: float) -> dict[str, Any]:
    size = SIZES["codec_stripe_bytes"]
    stripes = _scaled(size["stripes"], scale, 16)
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "data": rng.integers(
            0, 256, size=(stripes, 10, size["block_bytes"]), dtype=np.uint8
        ),
        "size": size,
        "codes": _cluster_codes(),
    }


def _engine_counts(engines) -> dict[str, float]:
    stats = [engine.stats() for engine in engines]
    lookups = sum(s.cache_hits + s.cache_misses for s in stats)
    schedule_lookups = sum(s.schedule_hits + s.schedule_misses for s in stats)
    return {
        "codec.decoder_hit_ratio": (
            sum(s.cache_hits for s in stats) / lookups if lookups else 0.0
        ),
        "codec.schedule_hit_ratio": (
            sum(s.schedule_hits for s in stats) / schedule_lookups
            if schedule_lookups else 0.0
        ),
        "codec.xor_plane_calls": sum(s.xor_plane_calls for s in stats),
    }


def _codec_pass(inputs: dict[str, Any], timer: Timer) -> PassResult:
    result = PassResult()
    data, size = inputs["data"], inputs["size"]
    stripes, _, width = data.shape
    block_mb = stripes * width / 1e6
    engines = []
    density = []

    def check(batch: int, ok: bool, what: str) -> None:
        result.attempted += batch
        if not ok:
            result.failed += batch
            result.problems.append(what)

    for key, sweeps in (
        ("rs", size["rs_repair_sweeps"]), ("xorbas", size["lrc_repair_sweeps"])
    ):
        code = inputs["codes"][key]
        engine = code.engine
        engines.append(engine)
        gc.collect()
        encoded = None
        for index in range(size["encode_passes"]):
            group = "encode_cold" if index == 0 else "encode"
            out = timer.call(
                f"encode_stripes[{key}]", (key, group), engine.encode_stripes, data
            )
            ok = np.array_equal(out[:, : code.k], data) and (
                encoded is None or np.array_equal(out, encoded)
            )
            check(code.n, ok, f"{key}: encode pass {index} bytes differ")
            encoded = out if encoded is None else encoded
            result.work += code.k * block_mb
        columns = [np.ascontiguousarray(encoded[:, p]) for p in range(code.n)]
        del encoded, out
        kind = "heavy_repair" if key == "rs" else "light_repair"
        for _ in range(sweeps):
            for lost in range(code.n):
                available = {p: columns[p] for p in range(code.n) if p != lost}
                rebuilt = timer.call(
                    f"repair_stripes[{key}]", (key, kind),
                    engine.repair_stripes, lost, available,
                )
                check(1, np.array_equal(rebuilt, columns[lost]),
                      f"{key}: repair of block {lost} differs")
                result.work += block_mb
        for temperature in ("reconstruct_cold", "reconstruct_warm"):
            for lost in TWO_ERASURES[key]:
                available = {p: columns[p] for p in range(code.n) if p not in lost}
                rebuilt = timer.call(
                    f"reconstruct[{key}]", (key, temperature),
                    engine.reconstruct, lost, available,
                )
                ok = all(
                    np.array_equal(rebuilt[:, i], columns[p])
                    for i, p in enumerate(lost)
                )
                check(len(lost), ok, f"{key}: reconstruct of {lost} differs")
                result.work += len(lost) * block_mb
        density.append(engine.encode_schedule().xor_bytes_per_output_byte)
        result.simstat[key] = {
            "parity_sha256": hashlib.sha256(
                b"".join(columns[p].tobytes() for p in range(code.k, code.n))
            ).hexdigest(),
            "xor_bytes_per_out_byte": density[-1],
        }
    result.counts.update(_engine_counts(engines))
    result.counts["codec.xor_bytes_per_out_byte"] = float(np.mean(density))
    return result


#: name -> (inputs from (seed, scale), one pass over (inputs, timer)).
WORKLOADS: dict[str, tuple[Callable[[int, float], dict[str, Any]],
                           Callable[[dict[str, Any], Timer], PassResult]]] = {
    "ec2_repair_storm": (_ec2_inputs, _cluster_pass),
    "facebook_node_loss": (_facebook_inputs, _cluster_pass),
    "degraded_read_sweep": (_degraded_inputs, _degraded_pass),
    "codec_stripe_bytes": (_codec_inputs, _codec_pass),
}

#: Indicative only: the workloads are off paper scale.
PAPER_REFERENCE = dict(PAPER_BLOCKS_READ_PER_LOST)
