"""The cluster simulator's batched repair path.

A node failure takes out one block in many stripes at once; the
BlockFixer must rebuild all of them through batched codec-engine calls
(grouped by erasure pattern) while every rebuilt payload still verifies
bit-for-bit against ground truth — for the light-decoder scheme (LRC),
the heavy-decoder scheme (RS) and the mixed scheme (Pyramid).
"""

import numpy as np
import pytest

from repro.cluster import BlockFixer, HadoopCluster, ec2_config
from repro.cluster.blocks import encode_stripe_payloads
from repro.codes import PyramidCode, pyramid_10_4, rs_10_4, xorbas_lrc
from repro.codes.base import mask_of, positions_of
from repro.experiments.runner import run_until_quiescent
from repro.spec.codec import seed_decode, seed_encode

pytestmark = pytest.mark.slow  # drives full cluster simulations


def small_config(**overrides):
    base = dict(
        num_nodes=20,
        failure_detection_delay=30.0,
        blockfixer_interval=15.0,
        job_startup=5.0,
        payload_bytes=48,
    )
    base.update(overrides)
    return ec2_config(num_nodes=base.pop("num_nodes")).scaled(**base)


def loaded_cluster(code, files=12, file_size=1280e6, seed=11, **overrides):
    cluster = HadoopCluster(code, small_config(**overrides), seed=seed)
    for i in range(files):
        cluster.create_file(f"f{i}", file_size)
    cluster.raid_all_instant()
    return cluster


@pytest.mark.parametrize(
    "make_code", [xorbas_lrc, rs_10_4, pyramid_10_4], ids=["lrc", "rs", "pyramid"]
)
def test_node_loss_repairs_stripes_in_batches(make_code):
    """Kill one node holding blocks of several stripes: every repair
    verifies, and the scan batched multiple stripes per engine group."""
    code = make_code()
    cluster = loaded_cluster(code)
    fixer = BlockFixer(cluster)
    fixer.start()
    cluster.run(until=60.0)

    # Pick the node holding the most blocks so one failure dirties many
    # stripes at once.
    loads = {
        node_id: len(node.blocks)
        for node_id, node in cluster.namenode.nodes.items()
    }
    victim = max(loads, key=loads.get)
    assert loads[victim] >= 2
    cluster.fail_node(victim)
    run_until_quiescent(cluster, fixer)
    fixer.stop()

    assert not cluster.data_loss_events
    assert cluster.fsck()["missing_blocks"] == 0
    # The scan really batched: stripes were grouped, not one group each.
    assert fixer.payload_batch_stripes >= loads[victim]
    assert fixer.payload_batch_groups < fixer.payload_batch_stripes
    # Every stripe's stored payload still matches a fresh re-encode of its
    # decoded data (end-to-end byte integrity after the batched repairs).
    for stripe in cluster.all_stripes():
        payloads = {
            p: stripe.payload[p] for p in stripe.stored_positions()
        }
        decoded = seed_decode(stripe.code, payloads)
        assert np.array_equal(seed_encode(stripe.code, decoded), stripe.payload)


def test_deferred_payloads_encode_in_one_batch():
    """Loading a cluster defers payload encoding; raid_all_instant runs
    one batched engine call for all stripes of all files."""
    code = xorbas_lrc()
    cluster = HadoopCluster(code, small_config(), seed=3)
    for i in range(4):
        cluster.create_file(f"f{i}", 640e6)
    assert all(s.payload_pending for s in cluster.all_stripes())
    calls_before = code.engine.encode_calls
    cluster.raid_all_instant()
    assert code.engine.encode_calls == calls_before + 1
    assert code.engine.stripes_encoded >= 4
    assert all(not s.payload_pending for s in cluster.all_stripes())
    # The batch-encoded payload is a valid codeword of the code.
    stripe = cluster.all_stripes()[0]
    decoded = seed_decode(stripe.code, {p: stripe.payload[p] for p in range(stripe.n)})
    assert np.array_equal(seed_encode(stripe.code, decoded), stripe.payload)


def test_batched_encode_dispatches_to_xor_plane():
    """The cluster's deferred batch encode runs through the compiled XOR
    plane transparently — no cluster-layer code opts in — and the plane's
    output is still a valid codeword."""
    code = xorbas_lrc()
    cluster = HadoopCluster(code, small_config(), seed=5)
    for i in range(3):
        cluster.create_file(f"f{i}", 640e6)
    assert code.engine.xor_plane_calls == 0
    cluster.raid_all_instant()
    assert code.engine.xor_plane_calls > 0
    assert code.engine.stats().schedule_misses >= 1
    stripe = cluster.all_stripes()[0]
    decoded = seed_decode(stripe.code, {p: stripe.payload[p] for p in range(stripe.n)})
    assert np.array_equal(seed_encode(stripe.code, decoded), stripe.payload)


def test_stale_batch_entry_invalidated_by_corruption():
    """A survivor payload mutated between scan and verify must invalidate
    the precomputed rebuild (CRC mismatch), forcing the scalar fallback
    that sees the current bytes."""
    from repro.cluster.blockfixer import PayloadRepairBatch
    from repro.cluster.blocks import Stripe

    code = rs_10_4()
    stripe = Stripe("a", 0, code, data_blocks=10, block_size=1e6, payload_bytes=16)
    missing = mask_of((0,))
    usable = mask_of(range(1, code.n))
    batch = PayloadRepairBatch()
    batch.schedule([(stripe, missing, usable)])
    payloads = {p: stripe.payload[p] for p in positions_of(usable)}
    hit = batch.rebuilt_block(stripe, 0, usable, payloads)
    assert hit is not None
    assert np.array_equal(hit, stripe.payload[0])
    stripe.payload[1] ^= 7  # in-place corruption of a survivor
    payloads = {p: stripe.payload[p] for p in positions_of(usable)}
    assert batch.rebuilt_block(stripe, 0, usable, payloads) is None


def test_encode_stripe_payloads_groups_by_width():
    """Stripes of different codes/widths batch independently but all get
    encoded."""
    lrc, pyramid = xorbas_lrc(), PyramidCode(10, 4, 5)
    from repro.cluster.blocks import Stripe

    stripes = [
        Stripe("a", i, lrc, data_blocks=10, block_size=1e6, payload_bytes=16)
        for i in range(3)
    ] + [
        Stripe("b", i, pyramid, data_blocks=10, block_size=1e6, payload_bytes=24)
        for i in range(2)
    ]
    assert encode_stripe_payloads(stripes) == 5
    assert encode_stripe_payloads(stripes) == 0  # idempotent
    for stripe in stripes:
        assert stripe.payload is not None
        assert stripe.payload.shape[0] == stripe.n


@pytest.mark.parametrize(
    "make_code, expected",
    [
        (rs_10_4, dict(light=0, heavy=43, bytes_read=46973281138.79003, stored=336)),
        (xorbas_lrc, dict(light=38, heavy=9, bytes_read=21782500000.0, stored=384)),
        (pyramid_10_4, dict(light=24, heavy=20, bytes_read=31387831325.301197, stored=360)),
    ],
    ids=["rs", "lrc", "pyramid"],
)
def test_second_kill_mid_storm_rebuilds_stale_blocks(monkeypatch, make_code, expected):
    """A second node dies while the first storm's repair tasks are in
    flight: tasks whose erasure pattern changed since the scan miss the
    precomputed rebuild and rebuild it themselves (the stale path).
    Every lost block is written exactly once — a stripe task repairs the
    positions it claimed, not the ones a later scan claimed for another
    task — and the light/heavy split and the bytes read are pinned."""
    from repro.cluster.blockfixer import PayloadRepairBatch
    from repro.cluster.metrics import FailureEventRecord

    stale = []
    lookup = PayloadRepairBatch.rebuilt_block

    def counting_lookup(self, *args):
        rebuilt = lookup(self, *args)
        stale.append(rebuilt is None)
        return rebuilt

    writes = []
    write_block = HadoopCluster.write_block

    def counting_write(self, executor, stripe, position, on_done, on_fail=None):
        writes.append(stripe.block_id(position))
        write_block(self, executor, stripe, position, on_done, on_fail)

    monkeypatch.setattr(PayloadRepairBatch, "rebuilt_block", counting_lookup)
    monkeypatch.setattr(HadoopCluster, "write_block", counting_write)
    cluster = loaded_cluster(make_code())
    fixer = BlockFixer(cluster)
    fixer.start()
    cluster.run(until=60.0)
    namenode = cluster.namenode
    nodes = namenode.nodes
    first, second = sorted(nodes, key=lambda n: (-len(nodes[n].blocks), n))[:2]
    record = cluster.metrics.begin_event(
        FailureEventRecord(label="two kills", nodes_killed=2, time=cluster.sim.now)
    )
    lost = namenode.blocks_on_node(first)
    assert cluster.fail_node(first) == len(lost)
    cluster.run(until=110.0)  # detected, scanned, tasks reading
    assert fixer.jobs_dispatched == 1
    lost += namenode.blocks_on_node(second)
    cluster.fail_node(second)
    run_until_quiescent(cluster, fixer)
    fixer.stop()
    cluster.metrics.end_event()

    assert any(stale)  # the stale-rebuild path ran
    assert cluster.fsck() == {
        "stored_blocks": expected["stored"],
        "missing_blocks": 0,
        "dead_nodes": 2,
        "alive_nodes": 18,
    }
    assert cluster.data_loss_events == []
    assert sorted(writes) == sorted(lost)  # each loss written exactly once
    assert record.light_repairs + record.heavy_repairs == len(lost)
    assert (record.light_repairs, record.heavy_repairs) == (
        expected["light"], expected["heavy"]
    )
    assert cluster.metrics.hdfs_bytes_read == pytest.approx(
        expected["bytes_read"], rel=1e-12
    )
