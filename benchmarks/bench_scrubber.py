"""E23: the batched scrubber engine against the CRC spec, at scale.

The scrubber daemon re-verifies every stored block on a rolling
schedule (the HDFS block scanner); at warehouse scale its scan pass
touches hundreds of thousands of blocks per period.  The spec pays one
``zlib.crc32`` + ``tobytes`` round trip per stored block per scan; the
engine compares contiguous slab snapshots, one memcmp-style pass per
shape group.

The comparison (``scrubber_speedup``, recorded and not gated): a full
scan of 20,000 RAIDed LRC stripes through
:class:`~repro.cluster.scrubengine.ScrubEngine` and through the CRC
:class:`~repro.spec.scrubber.Scrubber` must produce identical
:class:`~repro.cluster.integrity.ScrubReport` objects on identically
corrupted twin clusters (same :class:`CorruptionSchedule`, same noise
seed) and heal to byte-identical payloads.
"""

import gc

import numpy as np

from repro.cluster import HadoopCluster, ec2_config
from repro.cluster.scrubengine import CorruptionSchedule, ScrubEngine
from repro.codes import xorbas_lrc
from repro.difftest import assert_element_identical, compare_speed
from repro.spec import Scrubber

from conftest import record_metric, write_report

NUM_FILES = 20000
EVENTS = 40


def build_stripes():
    cluster = HadoopCluster(xorbas_lrc(), ec2_config(num_nodes=50), seed=0)
    for i in range(NUM_FILES):
        cluster.create_file(f"f{i}", 640e6)
    cluster.raid_all_instant()
    return [
        stripe
        for stored in cluster.files.values()
        for stripe in stored.stripes
    ]


def compare_reports(spec_report, engine_report):
    assert_element_identical(
        spec_report,
        engine_report,
        counts=("stripes_scanned", "blocks_read_for_heal"),
    )
    assert spec_report.corrupt_blocks == engine_report.corrupt_blocks
    assert spec_report.healed_blocks == engine_report.healed_blocks
    assert spec_report.unhealable_stripes == engine_report.unhealable_stripes
    # The schedule actually corrupted blocks and the scan found them.
    assert len(spec_report.corrupt_blocks) >= EVENTS // 2


def test_scrub_scan_10x_faster_and_reports_identical():
    # Twin clusters: each scrubber heals its own copy on the first
    # scan, so spec and engine need identically corrupted twin state.
    spec_stripes = build_stripes()
    engine_stripes = build_stripes()
    spec = Scrubber()
    engine = ScrubEngine()
    for a, b in zip(spec_stripes, engine_stripes):
        spec.record_stripe(a)
        engine.record_stripe(b)
    # Corrupt after recording, as in the daemon's life cycle (the write
    # path records pristine checksums; corruption arrives later).
    schedule = CorruptionSchedule.draw(
        np.random.default_rng(7),
        num_stripes=len(spec_stripes),
        events=EVENTS,
        max_position=10,
        seed=11,
    )
    schedule.apply(spec_stripes)
    schedule.apply(engine_stripes)

    # Freeze the collector: cyclic GC pauses over the multi-million
    # object cluster heap otherwise dwarf the scan being measured.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        record = compare_speed(
            "scrubber",
            spec_fn=lambda: spec.scrub(spec_stripes),
            engine_fn=lambda: engine.scrub(engine_stripes),
            compare=compare_reports,
            metrics=record_metric,
            report=lambda line: write_report("scrubber.txt", line),
        )
    finally:
        gc.enable()
        gc.unfreeze()
    print(
        f"\n{NUM_FILES} stripes, {EVENTS} corrupt blocks: "
        f"spec {record.spec_seconds:.3f}s, engine "
        f"{record.engine_seconds:.3f}s -> {record.speedup:.1f}x"
    )
