"""E20: the columnar BlockIndex against the dict NameNode, at scale.

The metadata plane is what caps simulation scale: the paper's warehouse
holds tens of millions of blocks with ~50k block repairs on a median
day, and per-block dict/set bookkeeping makes the scan-heavy NameNode
queries (failure detection, fsck, repair-queue construction) the
simulator's bottleneck long before the codec engine is.

The comparison: at one million stored blocks, one node-failure cycle —
``kill_node`` + ``detect_failures`` + bulk repair-queue construction —
through the columnar :class:`~repro.cluster.blockindex.BlockIndex` must
return answers *identical* to the dict reference
(:class:`~repro.spec.namenode.DictNameNode`, the seed implementation
kept as the executable specification): the same blocks on the victim
before the kill, the same kill and detection counts, the same sorted
missing-block listing after detection, the same repair-queue entries,
the same fsck.  Each queue claims its blocks, as a BlockFixer scan
does, so later events queue only newly lost blocks; releasing half the
claims and claiming again must then return exactly the released blocks
on both backends.  The phase times and their ratio
(``blockindex_speedup``) are recorded, not gated.
"""

import gc
import time

import numpy as np

from repro.cluster import NameNode
from repro.cluster.blocks import Stripe
from repro.cluster import BlockId
from repro.codes import rs_10_4
from repro.codes.base import positions_of
from repro.spec import DictNameNode

from conftest import record_metric, write_report

TARGET_BLOCKS = 1_000_000
NUM_NODES = 50
BLOCK_SIZE = 64e6


def build_population(code):
    """Shared stripes + placement: both backends load identical state."""
    stripes_needed = -(-TARGET_BLOCKS // code.n)
    stripes = []
    for i in range(stripes_needed):
        stripe = Stripe(
            file_name=f"file{i:06d}",
            index=0,
            code=code,
            data_blocks=code.k,
            block_size=BLOCK_SIZE,
        )
        stripe.parities_stored = True
        stripes.append(stripe)
    rng = np.random.default_rng(17)
    # Row s holds stripe s's n distinct node choices.
    placement = np.argsort(
        rng.random((stripes_needed, NUM_NODES)), axis=1
    )[:, : code.n]
    return stripes, placement


def load(namenode, stripes, placement):
    node_ids = [f"node{i:03d}" for i in range(NUM_NODES)]
    for s, stripe in enumerate(stripes):
        namenode.register_stripe(stripe)
        row = placement[s]
        for position in range(stripe.n):
            namenode.add_block(stripe, position, node_ids[int(row[position])])


def failure_cycle(namenode, victim):
    """One failure event: kill, detect (heartbeat expiry), claim queue.

    The kill is the injected fault itself and is timed separately; the
    compared phases are *failure detection* — the NameNode declaring the
    dead node's blocks missing — and repair-queue construction.  The
    victim's blocks before the kill and the missing listing after
    detection are read outside the timed phases.
    """
    held = namenode.blocks_on_node(victim)
    start = time.perf_counter()
    lost = namenode.kill_node(victim)
    kill_seconds = time.perf_counter() - start

    start = time.perf_counter()
    detected = namenode.detect_failures(victim)
    detect_seconds = time.perf_counter() - start
    missing = namenode.missing_block_ids()

    start = time.perf_counter()
    queue = namenode.repair_queue()
    queue_seconds = time.perf_counter() - start
    answers = (held, lost, detected, missing, queue_signature(queue))
    return answers, kill_seconds, detect_seconds, queue_seconds


def queue_signature(queue):
    return [
        (e.stripe.file_name, e.stripe.index, e.claimed, e.missing, e.usable)
        for e in queue
    ]


def claimed_blocks(signature):
    return [
        BlockId(file_name, index, p)
        for file_name, index, claimed, _, _ in signature
        for p in positions_of(claimed)
    ]


def test_columnar_blockindex_10x_faster_and_identical():
    code = rs_10_4()
    stripes, placement = build_population(code)
    total_blocks = len(stripes) * code.n
    assert total_blocks >= TARGET_BLOCKS

    rng = np.random.default_rng(3)
    node_ids = [f"node{i:03d}" for i in range(NUM_NODES)]
    columnar = NameNode(node_ids, np.random.default_rng(0))
    reference = DictNameNode(node_ids, np.random.default_rng(0))
    load(columnar, stripes, placement)
    load(reference, stripes, placement)
    victims = [node_ids[i] for i in rng.choice(NUM_NODES, size=4, replace=False)]

    # The metadata plane is long-lived state (millions of BlockId tuples
    # in the dict backend): exclude it from garbage-collection sweeps so
    # the timings measure the algorithms, not gen-2 GC pauses.
    gc.collect()
    gc.freeze()
    gc.disable()

    # One warm-up failure event (an experiment's first event), then three
    # measured steady-state events — the paper's schedules fire event
    # after event while earlier repairs are still pending.
    warm_ref = failure_cycle(reference, victims[0])[0]
    warm_col = failure_cycle(columnar, victims[0])[0]
    assert warm_col == warm_ref
    claimed = claimed_blocks(warm_ref[-1])

    ref_kill_s = ref_detect_s = ref_queue_s = 0.0
    col_kill_s = col_detect_s = col_queue_s = 0.0
    blocks_lost = 0
    queue_entries = 0
    for victim in victims[1:]:
        ref_answers, kill_s, detect_s, queue_s = failure_cycle(reference, victim)
        ref_kill_s += kill_s
        ref_detect_s += detect_s
        ref_queue_s += queue_s
        col_answers, kill_s, detect_s, queue_s = failure_cycle(columnar, victim)
        col_kill_s += kill_s
        col_detect_s += detect_s
        col_queue_s += queue_s
        # Identical answers, element for element.
        assert col_answers == ref_answers
        held, lost, detected, _, signature = ref_answers
        assert lost == detected == len(held)
        blocks_lost += lost
        queue_entries = len(signature)
        claimed += claimed_blocks(signature)

    # Claim -> release half -> claim: the released blocks, and only
    # they, come back, in identical entries.
    released = sorted(claimed)[::2]
    for namenode in (reference, columnar):
        for block in released:
            namenode.release(namenode.stripe_of(block), block.position)
    ref_requeue = queue_signature(reference.repair_queue())
    col_requeue = queue_signature(columnar.repair_queue())
    assert col_requeue == ref_requeue
    assert claimed_blocks(ref_requeue) == released
    assert columnar.in_repair_count == reference.in_repair_count == len(claimed)
    gc.enable()
    gc.unfreeze()
    assert columnar.fsck() == reference.fsck()
    assert blocks_lost > 30_000  # paper-scale failure events

    ref_seconds = ref_detect_s + ref_queue_s
    col_seconds = col_detect_s + col_queue_s
    speedup = ref_seconds / col_seconds
    report = (
        f"{total_blocks} blocks ({len(stripes)} stripes of {code.name}) "
        f"on {NUM_NODES} nodes; 3 node-failure events, "
        f"{blocks_lost} blocks lost\n"
        f"dict NameNode:       kill {ref_kill_s:.3f} s, "
        f"detect {ref_detect_s:.3f} s, repair queue {ref_queue_s:.3f} s\n"
        f"columnar BlockIndex: kill {col_kill_s:.3f} s, "
        f"detect {col_detect_s:.3f} s, repair queue {col_queue_s:.3f} s\n"
        f"speedup (detect + queue): {speedup:.1f}x over 3 events "
        f"(final queue entries: {queue_entries})"
    )
    write_report("blockindex.txt", report)
    print()
    print(report)
    record_metric("blockindex_dict_seconds_1m_blocks", ref_seconds)
    record_metric("blockindex_columnar_seconds_1m_blocks", col_seconds)
    record_metric("blockindex_speedup", speedup)
    record_metric("blockindex_blocks", float(total_blocks))


def test_fsck_scales_with_counters_not_blocks():
    """fsck at 1M blocks reads O(1) counters on the columnar path."""
    code = rs_10_4()
    stripes, placement = build_population(code)
    node_ids = [f"node{i:03d}" for i in range(NUM_NODES)]
    columnar = NameNode(node_ids, np.random.default_rng(0))
    load(columnar, stripes, placement)
    start = time.perf_counter()
    for _ in range(100):
        report = columnar.fsck()
    fsck_seconds = (time.perf_counter() - start) / 100
    assert report["stored_blocks"] == len(stripes) * code.n
    record_metric("blockindex_fsck_seconds", fsck_seconds)
    assert fsck_seconds < 1e-3
