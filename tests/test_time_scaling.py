"""What the cluster's clocks and rates do, and do not, change.

Scaling time exactly: divide every time constant of a
:class:`~repro.cluster.config.ClusterConfig` (and the schedule's
``event_gap`` and ``warmup``) by a power of two ``c`` and multiply every
rate and bandwidth by ``c``.  Every quantity of the run is then a
power-of-two multiple of the unscaled one, so the run is the same run:
failure-event records and the network and disk series are bit-identical
with their times scaled, and the CPU-busy series (busy seconds per
bucket) scales by exactly ``1/c``.

Changing one rate alone is a different run.  It cannot change what the
first failure event reads per lost block, which the code's read sets
fix, but rebuilt blocks draw their targets from the placement stream in
completion order, so the layout that later failures hit depends on the
rates.
"""

import dataclasses

import pytest

from repro.cluster import ClusterConfig, ec2_config
from repro.codes import rs_10_4, xorbas_lrc
from repro.experiments.runner import run_failure_schedule

TIME_FIELDS = (
    "heartbeat_interval",
    "task_startup",
    "job_startup",
    "failure_detection_delay",
    "blockfixer_interval",
    "raidnode_interval",
    "timeseries_bucket",
)
RATE_FIELDS = (
    "node_bandwidth",
    "core_bandwidth",
    "rack_bandwidth",
    "xor_decode_rate",
    "rs_decode_rate",
    "encode_rate",
    "wordcount_rate",
)
#: Sizes, counts, ratios and seeds: no unit of time in them.
TIMELESS_FIELDS = (
    "num_nodes",
    "block_size",
    "payload_bytes",
    "num_racks",
    "map_slots_per_node",
    "traffic_overhead_factor",
    "cpu_transfer_share",
    "failure_seed",
)
EVENT_TIMES = ("time", "repair_start", "repair_end")


def test_every_config_field_is_classified():
    """A new field must say how it scales, or the scaling test below
    would silently leave it out."""
    names = {field.name for field in dataclasses.fields(ClusterConfig)}
    classified = TIME_FIELDS + RATE_FIELDS + TIMELESS_FIELDS
    assert sorted(classified) == sorted(names)


def scaled_run(code, c, racks):
    base = ec2_config(num_nodes=30)
    if racks:
        base = base.scaled(num_racks=3, rack_bandwidth=40e6)
    overrides = {name: getattr(base, name) / c for name in TIME_FIELDS}
    overrides.update(
        (name, getattr(base, name) * c)
        for name in RATE_FIELDS
        if getattr(base, name) is not None
    )
    return run_failure_schedule(
        code.name,
        code,
        base.scaled(**overrides),
        [640e6] * 20,
        (1, 2, 1),
        seed=1,
        event_gap=900.0 / c,
        warmup=300.0 / c,
    )


def shape(run, c):
    """The run with every time multiplied by ``c`` and CPU-busy seconds
    by ``c``: equal across ``c`` iff time scaled exactly."""

    def scaled(event):
        times = {name: getattr(event, name) for name in EVENT_TIMES}
        return dataclasses.replace(
            event, **{name: t if t is None else t * c for name, t in times.items()}
        )

    events = [scaled(event) for event in run.events]
    metrics = run.metrics
    return (
        events,
        [(t * c, amount) for t, amount in metrics.network_series.series()],
        [(t * c, amount) for t, amount in metrics.disk_series.series()],
        [(t * c, busy * c) for t, busy in metrics.cpu_busy_series.series()],
    )


@pytest.mark.parametrize("racks", [False, True], ids=["flat", "racks"])
@pytest.mark.parametrize("make_code", [rs_10_4, xorbas_lrc], ids=["rs", "lrc"])
def test_time_scales_exactly_by_powers_of_two(make_code, racks):
    code = make_code()
    reference = shape(scaled_run(code, 1, racks), 1)
    assert sum(event.blocks_lost for event in reference[0]) > 0
    for c in (0.5, 2, 4):
        assert shape(scaled_run(code, c, racks), c) == reference, c


def test_rates_move_the_layout_not_the_first_event_reads():
    """RS(10,4), 30 nodes, events (1, 2, 1, 3), seed 3: node NIC or core
    bandwidth x1.37 leaves the first event's reads per lost block at the
    code's 13 blocks, and changes which blocks later failures hit."""
    base = ec2_config(num_nodes=30)
    variants = {
        "base": base,
        "nic": base.scaled(node_bandwidth=base.node_bandwidth * 1.37),
        "core": base.scaled(core_bandwidth=base.core_bandwidth * 1.37),
    }
    lost = {}
    for name, config in variants.items():
        run = run_failure_schedule(
            "rs", rs_10_4(), config, [640e6] * 30, (1, 2, 1, 3), seed=3
        )
        first = run.events[0]
        # The flow engine settles bytes in rate x interval slices, so the
        # event total is the read set up to summation rounding.
        assert first.hdfs_bytes_read / first.blocks_lost == pytest.approx(
            13 * config.block_size, rel=1e-12
        )
        lost[name] = tuple(event.blocks_lost for event in run.events)
    assert lost == {
        "base": (13, 29, 16, 45),
        "nic": (13, 29, 16, 48),
        "core": (13, 29, 15, 52),
    }
