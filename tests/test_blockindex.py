"""Differential tests: columnar BlockIndex NameNode vs the dict reference.

The columnar :class:`~repro.cluster.namenode.NameNode` must be
*indistinguishable* from the seed's per-block dict implementation
(:class:`~repro.spec.namenode.DictNameNode`): randomized
kill/heal/decommission/remove/claim/release sequences drive both side
by side and every query — locate, placement, missing flags and
listings, repair-queue claims, in-repair counts, fsck, block counts —
must agree at every step.  A full-simulation equivalence test then
proves the migration is invisible end to end.
"""

import math

import numpy as np
import pytest

from repro.cluster import (
    BlockFixer,
    BlockId,
    FailureEventRecord,
    FailureInjector,
    HadoopCluster,
    NameNode,
    Stripe,
    ec2_config,
)
from repro.cluster.metrics import percentile, summary_stats
from repro.cluster.failures import trace_summary
from repro.codes import ReedSolomonCode, rs_10_4, xorbas_lrc
from repro.codes.base import mask_of, positions_of
from repro.experiments.runner import run_until_quiescent
from repro.experiments.workload import WorkloadResult
from repro.spec import DictNameNode, with_specs

NUM_NODES = 15


def make_pair(seed):
    node_ids = [f"n{i:02d}" for i in range(NUM_NODES)]
    return (
        NameNode(node_ids, np.random.default_rng(seed)),
        DictNameNode(node_ids, np.random.default_rng(seed)),
    )


def queue_key(queue):
    return [
        (e.stripe.file_name, e.stripe.index, e.claimed, e.missing, e.usable)
        for e in queue
    ]


def claimed_blocks(key):
    """The blocks a claimed queue (as :func:`queue_key`) dispatched."""
    return [
        BlockId(file_name, index, p)
        for file_name, index, claimed, _, _ in key
        for p in positions_of(claimed)
    ]


def assert_same_claim(columnar: NameNode, reference: DictNameNode):
    """Claim on both implementations: identical queues, identical counts."""
    queue = queue_key(columnar.repair_queue())
    assert queue == queue_key(reference.repair_queue())
    assert columnar.in_repair_count == reference.in_repair_count
    return queue


def assert_equivalent(columnar: NameNode, reference: DictNameNode):
    assert columnar.fsck() == reference.fsck()
    assert columnar.in_repair_count == reference.in_repair_count
    assert columnar.missing_block_ids() == reference.missing_block_ids()
    assert columnar.missing_count == reference.missing_count
    assert columnar.undetected_dead == reference.undetected_dead
    assert columnar.node_block_counts() == reference.node_block_counts()
    assert columnar.detection_pending() == reference.detection_pending()
    for node_id in reference.nodes:
        assert columnar.nodes[node_id].alive == reference.nodes[node_id].alive
        assert (
            columnar.nodes[node_id].decommissioning
            == reference.nodes[node_id].decommissioning
        )
        assert columnar.nodes[node_id].blocks == reference.nodes[node_id].blocks
    for key, stripe in reference.stripes.items():
        assert columnar.available_positions(stripe) == reference.available_positions(
            stripe
        ), key
        assert columnar.missing_positions(stripe) == reference.missing_positions(
            stripe
        ), key
        assert columnar.stripe_node_set(stripe) == reference.stripe_node_set(stripe)
        for position in stripe.stored_positions():
            for query in ("locate", "placement_of", "is_missing"):
                assert getattr(columnar, query)(stripe, position) == getattr(
                    reference, query
                )(stripe, position)


class TestDifferentialProperty:
    """Randomized operation sequences, every query compared each step."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("code_factory", [xorbas_lrc, rs_10_4])
    def test_random_sequences_agree(self, seed, code_factory):
        code = code_factory()
        columnar, reference = make_pair(seed)
        ops_rng = np.random.default_rng(1000 + seed)
        stripes: list[Stripe] = []
        claimed: set[BlockId] = set()
        next_file = 0

        def random_block():
            stripe = stripes[ops_rng.integers(len(stripes))]
            positions = stripe.stored_positions()
            return stripe, int(positions[ops_rng.integers(len(positions))])

        for step in range(150):
            op = ops_rng.choice(
                ["stripe", "kill", "detect", "remove", "missing", "readd",
                 "decom", "claim", "release", "resolve"]
            )
            if op == "stripe" or not stripes:
                stripe = Stripe(
                    file_name=f"f{next_file:03d}",
                    index=0,
                    code=code,
                    data_blocks=int(ops_rng.integers(1, code.k + 1)),
                    block_size=64e6,
                )
                next_file += 1
                stripe.parities_stored = bool(ops_rng.random() < 0.7)
                if not any(n.alive for n in reference.nodes.values()):
                    continue
                columnar.place_stripe(stripe)
                reference.place_stripe(stripe)
                stripes.append(stripe)
            elif op in ("kill", "detect"):
                if op == "kill":
                    node_id = f"n{ops_rng.integers(NUM_NODES):02d}"
                else:
                    pool = sorted(reference.undetected_dead) or [
                        f"n{ops_rng.integers(NUM_NODES):02d}"
                    ]
                    node_id = pool[ops_rng.integers(len(pool))]
                # The node's blocks before the event, then the count each
                # NameNode returns for it (0 for a repeated event).
                held = reference.blocks_on_node(node_id)
                assert columnar.blocks_on_node(node_id) == held
                call = "kill_node" if op == "kill" else "detect_failures"
                count = getattr(reference, call)(node_id)
                assert getattr(columnar, call)(node_id) == count
                assert count in (0, len(held))
                assert columnar.missing_block_ids() == reference.missing_block_ids()
            elif op in ("remove", "missing"):
                stripe, position = random_block()
                for nn in (columnar, reference):
                    nn.remove_block(stripe, position)
                    if op == "missing":
                        # The workload harness's transient-loss injection.
                        nn.mark_missing(stripe, position)
            elif op == "readd":
                missing = reference.missing_block_ids()
                candidates = reference.placement_candidates()
                np.testing.assert_array_equal(
                    columnar.placement_candidates(), candidates
                )
                if not missing or not candidates.size:
                    continue
                block = missing[ops_rng.integers(len(missing))]
                target = reference.node_ids[
                    candidates[ops_rng.integers(len(candidates))]
                ]
                for nn in (columnar, reference):
                    nn.add_block(reference.stripe_of(block), block.position, target)
            elif op == "decom":
                node_id = f"n{ops_rng.integers(NUM_NODES):02d}"
                flag = bool(ops_rng.random() < 0.5)
                columnar.nodes[node_id].decommissioning = flag
                reference.nodes[node_id].decommissioning = flag
            elif op == "claim":
                claimed.update(claimed_blocks(assert_same_claim(columnar, reference)))
            elif op in ("release", "resolve"):
                # Mostly a claimed block, which a "readd" may have made
                # no longer missing; otherwise one that was never claimed.
                if claimed and ops_rng.random() < 0.8:
                    block = sorted(claimed)[ops_rng.integers(len(claimed))]
                    stripe, position = reference.stripe_of(block), block.position
                else:
                    stripe, position = random_block()
                claimed.discard(stripe.block_id(position))
                getattr(columnar, op)(stripe, position)
                getattr(reference, op)(stripe, position)
            assert columnar.in_repair_count == len(claimed)
            if step % 10 == 0 or step > 140:
                assert_equivalent(columnar, reference)
        assert_equivalent(columnar, reference)
        assert_same_claim(columnar, reference)

    @staticmethod
    def placed_pair(seed, stripes_count):
        code = xorbas_lrc()
        columnar, reference = make_pair(seed)
        stripes = []
        for i in range(stripes_count):
            stripe = Stripe(
                file_name=f"f{i:03d}", index=0, code=code, data_blocks=code.k,
                block_size=64e6,
            )
            stripe.parities_stored = True
            for nn in (columnar, reference):
                nn.place_stripe(stripe)
            stripes.append(stripe)
        return columnar, reference, stripes

    @staticmethod
    def fail(victim, *namenodes):
        for nn in namenodes:
            nn.kill_node(victim)
            nn.detect_failures(victim)

    def test_repair_queue_respects_in_repair_exclusions(self):
        columnar, reference, stripes = self.placed_pair(7, 6)
        self.fail(reference.locate(stripes[0], 0), columnar, reference)
        first = reference.missing_block_ids()
        assert len(first) > 1
        assert claimed_blocks(assert_same_claim(columnar, reference)) == first
        assert columnar.in_repair_count == len(first)
        # Everything missing is claimed: a second scan dispatches nothing.
        assert assert_same_claim(columnar, reference) == []

        # A second failure: the next claim returns only the new blocks.
        self.fail(reference.locate(stripes[3], 5), columnar, reference)
        second = sorted(set(reference.missing_block_ids()) - set(first))
        assert second
        assert claimed_blocks(assert_same_claim(columnar, reference)) == second

        # A released block that is still missing is dispatched again; one
        # that was re-placed meanwhile is not, and its release still counts.
        retry, healed = first[0], first[-1]
        retry_at = (reference.stripe_of(retry), retry.position)
        healed_at = (reference.stripe_of(healed), healed.position)
        target = next(
            n for n in reference.node_ids
            if reference.nodes[n].alive
            and n not in reference.stripe_node_set(healed_at[0])
        )
        for nn in (columnar, reference):
            nn.add_block(*healed_at, target)
            nn.release(*retry_at)
            nn.release(*healed_at)
        assert columnar.in_repair_count == len(first) + len(second) - 2
        assert claimed_blocks(assert_same_claim(columnar, reference)) == [retry]
        # resolve clears both flags; releasing twice is a no-op.
        for nn in (columnar, reference):
            nn.resolve(*retry_at)
            nn.release(*retry_at)
        assert not columnar.is_missing(*retry_at)
        assert columnar.in_repair_count == len(first) + len(second) - 2
        assert_equivalent(columnar, reference)

    def test_claims_survive_index_growth(self):
        columnar, reference, stripes = self.placed_pair(3, 4)
        self.fail(reference.locate(stripes[1], 2), columnar, reference)
        claimed = claimed_blocks(assert_same_claim(columnar, reference))
        assert claimed
        index = columnar.index
        capacity = len(index.in_repair)
        code = stripes[0].code
        grown = 0
        while len(index.in_repair) == capacity:  # force _ensure_capacity
            stripe = Stripe(
                file_name=f"g{grown:04d}", index=0, code=code,
                data_blocks=code.k, block_size=64e6,
            )
            stripe.parities_stored = True
            for nn in (columnar, reference):
                nn.place_stripe(stripe)
            grown += 1
        assert all(
            index.in_repair[index.stripe_rows(columnar.stripe_of(b)).start + b.position]
            for b in claimed
        )
        assert index.in_repair_count == len(claimed)
        assert int(index.in_repair.sum()) == len(claimed)
        assert assert_same_claim(columnar, reference) == []
        for nn in (columnar, reference):
            nn.release(nn.stripe_of(claimed[0]), claimed[0].position)
        assert claimed_blocks(assert_same_claim(columnar, reference)) == claimed[:1]

    def test_zero_padded_stripes_expose_virtual_positions_as_usable(self):
        code = xorbas_lrc()
        columnar, reference = make_pair(11)
        stripe = Stripe(
            file_name="small", index=0, code=code, data_blocks=3, block_size=64e6
        )
        stripe.parities_stored = True
        columnar.place_stripe(stripe)
        reference.place_stripe(stripe)
        victim = reference.locate(stripe, 0)
        for nn in (columnar, reference):
            nn.kill_node(victim)
            nn.detect_failures(victim)
        queue_a = columnar.repair_queue()
        queue_b = reference.repair_queue()
        assert queue_a[0].usable == queue_b[0].usable
        # Zero padding [data_blocks, k) is usable by every decoder.
        padding = mask_of(range(3, code.k))
        assert queue_a[0].usable & padding == padding


class TestStripeWidthLimit:
    """Pattern bitmasks are packed into int64 columns: the index takes
    stripes of up to 62 blocks and says so at registration otherwise."""

    @staticmethod
    def loaded(code):
        cluster = HadoopCluster(code, ec2_config(num_nodes=70), seed=0)
        cluster.create_file("wide", code.k * cluster.config.block_size)
        return cluster

    def test_63_block_stripe_rejected_at_registration(self):
        with pytest.raises(ValueError, match=r"63 blocks.*at most 62"):
            self.loaded(ReedSolomonCode(59, 4))

    def test_62_block_stripe_queue_masks_match_oracle(self):
        queues = []
        for specs in ((), ("namenode",)):
            with with_specs(*specs):
                cluster = self.loaded(ReedSolomonCode(58, 4))
                cluster.raid_all_instant()
                namenode = cluster.namenode
                (stripe,) = cluster.all_stripes()
                # Losing the last position exercises the top mask bit.
                victim = namenode.locate(stripe, 61)
                namenode.kill_node(victim)
                namenode.detect_failures(victim)
                queues.append(queue_key(namenode.repair_queue()))
        assert queues[0] == queues[1]
        assert claimed_blocks(queues[0]) == [BlockId("wide", 0, 61)]
        ((_, _, claimed, missing, usable),) = queues[0]
        assert claimed == 1 << 61
        assert missing == 1 << 61
        assert usable == (1 << 61) - 1


@pytest.mark.slow
class TestFullSimulationEquivalence:
    """fsck and the paper's metrics match before/after the migration."""

    def run_events(self):
        cluster = HadoopCluster(xorbas_lrc(), ec2_config(num_nodes=20), seed=5)
        for i in range(4):
            cluster.create_file(f"file{i:05d}", 640e6)
        cluster.raid_all_instant()
        fsck_loaded = cluster.fsck()
        fixer = BlockFixer(cluster)
        fixer.start()
        injector = FailureInjector(cluster, rng=np.random.default_rng(13))
        cluster.run(until=300.0)
        events = []
        for nodes_to_kill in (1, 2):
            record = cluster.metrics.begin_event(
                FailureEventRecord(
                    label=str(nodes_to_kill),
                    nodes_killed=nodes_to_kill,
                    time=cluster.sim.now,
                )
            )
            _, record.blocks_lost = injector.kill(nodes_to_kill)
            run_until_quiescent(cluster, fixer)
            cluster.metrics.end_event()
            events.append(record)
            cluster.run(until=cluster.sim.now + 900.0)
        fixer.stop()
        return cluster, fsck_loaded, events

    def test_fsck_and_metrics_identical(self):
        columnar, fsck_a, events_a = self.run_events()
        with with_specs("namenode"):
            reference, fsck_b, events_b = self.run_events()
        assert type(columnar.namenode) is NameNode
        assert type(reference.namenode) is DictNameNode
        assert fsck_a == fsck_b
        assert columnar.fsck() == reference.fsck()
        assert columnar.metrics.hdfs_bytes_read == reference.metrics.hdfs_bytes_read
        assert (
            columnar.metrics.network_out_bytes
            == reference.metrics.network_out_bytes
        )
        assert columnar.sim.events_processed == reference.sim.events_processed
        for a, b in zip(events_a, events_b):
            assert a.blocks_lost == b.blocks_lost
            assert a.hdfs_bytes_read == b.hdfs_bytes_read
            assert a.repair_duration == b.repair_duration
            assert (a.light_repairs, a.heavy_repairs) == (
                b.light_repairs,
                b.heavy_repairs,
            )


class TestFailureSeedThreading:
    """Regression: failure processes must derive from the experiment seed
    (the seed implementation hard-coded ``default_rng(1234)``)."""

    def make_cluster(self, seed, **config_overrides):
        config = ec2_config(num_nodes=12).scaled(**config_overrides)
        cluster = HadoopCluster(xorbas_lrc(), config, seed=seed)
        cluster.create_file("f0", 640e6)
        cluster.raid_all_instant()
        return cluster

    def test_different_experiment_seeds_draw_different_failures(self):
        draws = []
        for seed in (0, 1):
            injector = FailureInjector(self.make_cluster(seed))
            draws.append(tuple(injector.rng.integers(2**63, size=8).tolist()))
        assert draws[0] != draws[1]

    def test_same_seed_is_reproducible(self):
        kills = []
        for _ in range(2):
            injector = FailureInjector(self.make_cluster(3))
            injector.kill(2)
            injector.kill(1)
            kills.append(list(injector.killed))
        assert kills[0] == kills[1]

    def test_config_failure_seed_pins_the_trace(self):
        # Same failure_seed, different experiment seeds: identical rng
        # streams (placements differ, but the randomness source is pinned).
        a = FailureInjector(self.make_cluster(0, failure_seed=99))
        b = FailureInjector(self.make_cluster(1, failure_seed=99))
        assert (
            a.rng.integers(2**63, size=8).tolist()
            == b.rng.integers(2**63, size=8).tolist()
        )

    def test_explicit_rng_still_wins(self):
        cluster = self.make_cluster(0)
        rng = np.random.default_rng(42)
        assert FailureInjector(cluster, rng=rng).rng is rng

    def test_schedule_injector_honours_failure_seed(self):
        from repro.experiments.runner import make_schedule_injector

        # failure_seed set: the stream is pinned across experiment seeds.
        a = make_schedule_injector(self.make_cluster(0, failure_seed=7), seed=0)
        b = make_schedule_injector(self.make_cluster(1, failure_seed=7), seed=1)
        assert (
            a.rng.integers(2**63, size=8).tolist()
            == b.rng.integers(2**63, size=8).tolist()
        )
        # failure_seed unset: the historical seed + 99 stream is kept,
        # so previously cached schedule results stay valid.
        c = make_schedule_injector(self.make_cluster(4), seed=4)
        expected = np.random.default_rng(4 + 99)
        assert (
            c.rng.integers(2**63, size=8).tolist()
            == expected.integers(2**63, size=8).tolist()
        )


class TestRepairAccounting:
    """Regression: each rebuilt block counts exactly once even when a
    partially failed write batch is retried while the first attempt's
    surviving writes are still in flight."""

    @pytest.mark.slow
    def test_partial_write_failure_counts_each_block_once(self):
        cluster = HadoopCluster(rs_10_4(), ec2_config(num_nodes=20), seed=2)
        cluster.create_file("f0", 640e6)
        cluster.raid_all_instant()
        stripe = cluster.files["f0"].stripes[0]
        victims = {
            cluster.namenode.locate(stripe, 0),
            cluster.namenode.locate(stripe, 1),
        }
        for victim in victims:
            cluster.fail_node(victim)
        cluster.run(until=700.0)  # past the detection delay
        missing = cluster.namenode.missing_positions(stripe)
        assert len(missing) == 2

        real_write = cluster.write_block
        calls = {"n": 0}

        def flaky_write(executor, stripe, position, on_done, on_fail=None):
            calls["n"] += 1
            if calls["n"] == 1:
                # First write: survives, but lands long after the retry.
                cluster.sim.schedule(
                    600.0,
                    lambda: real_write(executor, stripe, position, on_done, on_fail),
                )
            elif calls["n"] == 2:
                # Second write: fails fast, failing the whole task.
                cluster.sim.schedule(1.0, on_fail)
            else:
                real_write(executor, stripe, position, on_done, on_fail)

        cluster.write_block = flaky_write
        record = cluster.metrics.begin_event(
            FailureEventRecord(label="evt", nodes_killed=len(victims), time=0.0)
        )
        fixer = BlockFixer(cluster)
        assert fixer.scan() is not None
        cluster.run(until=cluster.sim.now + 4000.0)
        cluster.metrics.end_event()
        assert calls["n"] >= 3  # the retry actually happened
        assert cluster.namenode.missing_count == 0
        assert record.heavy_repairs == 2  # not 3: no double-counted block
        assert cluster.fsck()["stored_blocks"] == stripe.n


class TestEmptyWindowStats:
    def test_percentile_of_empty_window_is_nan(self):
        assert math.isnan(percentile([], 95))
        assert percentile([1.0, 3.0], 50) == pytest.approx(2.0)

    def test_summary_stats_empty(self):
        stats = summary_stats([])
        assert stats["count"] == 0.0
        assert all(math.isnan(stats[k]) for k in ("mean", "median", "min", "max"))

    def test_trace_summary_empty_trace_does_not_crash(self):
        summary = trace_summary([])
        assert summary["days"] == 0.0
        assert math.isnan(summary["mean"])
        assert summary["days_over_20"] == 0.0

    def test_workload_average_of_no_jobs_is_nan(self):
        empty = WorkloadResult("baseline", [], 0.0, 0, 0)
        assert math.isnan(empty.average_minutes)
        ran = WorkloadResult("baseline", [80.0, 90.0], 0.0, 0, 0)
        assert ran.average_minutes == pytest.approx(85.0)
