"""Unit tests for cluster configuration and scheduler details."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HadoopCluster, MapReduceJob, Task, ec2_config, facebook_config
from repro.cluster.blocks import block_kind
from repro.codes import rs_10_4, xorbas_lrc


class TestConfig:
    def test_presets_valid(self):
        assert ec2_config().num_nodes == 50
        assert facebook_config().block_size == 256e6

    def test_scaled_returns_new_validated_config(self):
        base = ec2_config()
        scaled = base.scaled(num_nodes=10)
        assert scaled.num_nodes == 10
        assert base.num_nodes == 50  # immutable original

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_nodes", 0),
            ("block_size", 0),
            ("node_bandwidth", 0),
            ("core_bandwidth", -1),
            ("map_slots_per_node", 0),
            ("num_racks", 0),
            ("rack_bandwidth", 0.0),
        ],
    )
    def test_validation_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            ec2_config().scaled(**{field: value})


class TestBlockKind:
    def test_lrc_kinds(self):
        code = xorbas_lrc()
        assert block_kind(code, 0) == "data"
        assert block_kind(code, 9) == "data"
        assert block_kind(code, 10) == "parity"
        assert block_kind(code, 13) == "parity"
        assert block_kind(code, 14) == "local_parity"
        assert block_kind(code, 15) == "local_parity"

    def test_rs_kinds(self):
        code = rs_10_4()
        assert block_kind(code, 0) == "data"
        assert block_kind(code, 13) == "parity"


class TestJobMechanics:
    def test_take_task_prefers_local(self):
        tasks = [Task(preferred_node="nodeB"), Task(preferred_node="nodeA")]
        job = MapReduceJob("j", tasks)
        picked = job.take_task("nodeA")
        assert picked.preferred_node == "nodeA"
        picked = job.take_task("nodeA")  # no local left: FIFO
        assert picked.preferred_node == "nodeB"
        assert job.take_task("nodeA") is None

    def test_rotation_preserves_all_tasks(self):
        tasks = [Task(preferred_node=f"n{i}") for i in range(5)]
        job = MapReduceJob("j", tasks)
        seen = {job.take_task("n3").preferred_node for _ in range(5)}
        assert seen == {f"n{i}" for i in range(5)}

    @staticmethod
    def rotate_scan(pending: deque, node_id: str):
        """The take_task the per-node pending counts shortcut: rotate to
        the first task local to the node, else take the head."""
        if not pending:
            return None
        for _ in range(len(pending)):
            if pending[0].preferred_node == node_id:
                return pending.popleft()
            pending.rotate(-1)
        return pending.popleft()

    @settings(max_examples=150, deadline=None)
    @given(
        preferences=st.lists(st.sampled_from([None, "n0", "n1", "n2"]), max_size=12),
        ops=st.lists(
            st.tuples(st.sampled_from(["take", "requeue"]), st.integers(0, 100)),
            max_size=40,
        ),
    )
    def test_take_task_matches_rotate_scan(self, preferences, ops):
        """Same picks and same final queue order as the full rotate-scan,
        with failed attempts re-queued in between and nodes (n3, n4) no
        task prefers."""
        job = MapReduceJob("j", [Task(preferred_node=p) for p in preferences])
        reference = deque(job.pending)
        taken = []
        for op, value in ops:
            if op == "take":
                node_id = f"n{value % 5}"
                task = job.take_task(node_id)
                assert task is self.rotate_scan(reference, node_id)
                if task is not None:
                    taken.append(task)
            elif taken:
                task = taken.pop(value % len(taken))
                job.requeue(task)
                reference.append(task)
            assert list(job.pending) == list(reference)

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            MapReduceJob("j", [], weight=0.0)

    def test_elapsed_requires_finish(self):
        job = MapReduceJob("j", [Task()])
        with pytest.raises(RuntimeError):
            _ = job.elapsed

    def test_job_ids_are_per_cluster(self):
        """Two identical clusters built back to back in one process hand
        out identical job ids: the JobTracker numbers its submissions."""

        def job_ids():
            cluster = HadoopCluster(xorbas_lrc(), ec2_config(num_nodes=20), seed=0)
            for index in range(3):
                cluster.jobtracker.submit(MapReduceJob(f"j{index}", []))
            return [job.job_id for job in cluster.jobtracker.jobs]

        assert job_ids() == job_ids() == [1, 2, 3]


class TestFairSharePicks:
    """One JobTracker assignment pass on hand-built jobs: each free slot
    goes to the job with the least ``running / weight``, ties to the
    earlier ``submit_time``, then the smaller ``job_id``."""

    @staticmethod
    def run_pass(jobs, free):
        """``jobs``: (name, running, pending, weight, submit_time, job_id);
        ``free``: free slots per node, in node order.  Returns the
        (job name, node) of every launch, in launch order."""
        cluster = HadoopCluster(xorbas_lrc(), ec2_config(num_nodes=len(free)), seed=0)
        tracker = cluster.jobtracker
        for node_id, slots in zip(sorted(tracker.slots_free), free):
            tracker.slots_free[node_id] = slots
        for name, running, pending, weight, submit_time, job_id in jobs:
            job = MapReduceJob(name, [Task() for _ in range(pending)], weight=weight)
            job.running = {Task() for _ in range(running)}
            job.job_id, job.submit_time, job.ready_time = job_id, submit_time, 0.0
            tracker.jobs.append(job)
        launches = []
        launch = tracker._launch

        def record(job, task, node_id):
            launches.append((job.name, node_id))
            launch(job, task, node_id)

        tracker._launch = record
        tracker._assignment_pass()  # the tasks start only once the sim runs
        return launches

    def test_lower_running_per_weight_first(self):
        jobs = [
            ("A", 2, 9, 1.0, 0.0, 1),
            ("B", 0, 9, 1.0, 1.0, 2),
            ("C", 1, 9, 1.0, 2.0, 3),
        ]
        # Keys A=2, B=0, C=1: B to 1 ties C and wins on submit_time,
        # then C, then all three tie at 2 and A submitted first.
        picks = self.run_pass(jobs, [4])
        assert [name for name, _ in picks] == ["B", "B", "C", "A"]

    def test_submit_time_then_job_id_break_ties(self):
        jobs = [
            ("X", 0, 9, 1.0, 5.0, 2),
            ("Y", 0, 9, 1.0, 5.0, 1),
            ("Z", 0, 9, 1.0, 3.0, 3),
        ]
        picks = self.run_pass(jobs, [2, 2])
        assert [name for name, _ in picks] == ["Z", "Y", "X", "Z"]

    def test_fractional_weights(self):
        # Keys J1: 1.0, 1.33, 1.67, 2.0; J2: 1.43, 2.86; J3: 1.6, 2.0:
        # 6 / 3.0 and 5 / 2.5 are both exactly 2.0, and J1 was first.
        jobs = [
            ("J1", 3, 9, 3.0, 5.0, 1),
            ("J2", 1, 9, 0.7, 1.0, 2),
            ("J3", 4, 9, 2.5, 9.0, 3),
        ]
        picks = self.run_pass(jobs, [7])
        assert [name for name, _ in picks] == ["J1", "J1", "J2", "J3", "J1", "J1", "J3"]

    def test_fewer_pending_tasks_than_slots(self):
        jobs = [("P", 0, 1, 1.0, 0.0, 1), ("Q", 0, 2, 1.0, 0.0, 2)]
        # Slots are taken in node order, a node's free slots back to back.
        picks = self.run_pass(jobs, [2, 0, 3])
        assert picks == [("P", "node000"), ("Q", "node000"), ("Q", "node002")]


class TestRepairPlanValidation:
    def test_mismatched_coefficients_rejected(self):
        from repro.codes import RepairPlan

        with pytest.raises(ValueError):
            RepairPlan(lost=0, sources=(1, 2), coefficients=(1,))

    def test_self_source_rejected(self):
        from repro.codes import RepairPlan

        with pytest.raises(ValueError):
            RepairPlan(lost=1, sources=(1, 2), coefficients=(1, 1))

    def test_xor_only_detection(self):
        from repro.codes import RepairPlan

        xor_plan = RepairPlan(lost=0, sources=(1, 2), coefficients=(1, 1))
        gf_plan = RepairPlan(lost=0, sources=(1, 2), coefficients=(1, 3))
        assert xor_plan.is_xor_only()
        assert not gf_plan.is_xor_only()


class TestAnalysisOptions:
    def test_cheapest_target_never_worse_than_first(self):
        from repro.codes import repair_cost_summary

        code = xorbas_lrc()
        for lost in range(1, 4):
            first = repair_cost_summary(code, lost, heavy_reads=10, target="first")
            cheapest = repair_cost_summary(
                code, lost, heavy_reads=10, target="cheapest"
            )
            assert cheapest.expected_reads <= first.expected_reads + 1e-12

    def test_invalid_target_rejected(self):
        from repro.codes import repair_cost_summary

        with pytest.raises(ValueError):
            repair_cost_summary(xorbas_lrc(), 1, target="bogus")

    def test_invalid_lost_count(self):
        from repro.codes import repair_cost_summary, rs_10_4, three_replication

        with pytest.raises(ValueError):
            repair_cost_summary(xorbas_lrc(), 0)
        # Fewer than k survivors leave nothing to repair from: no price.
        for code in (three_replication(), rs_10_4(), xorbas_lrc()):
            with pytest.raises(ValueError, match=rf"n - k = {code.n - code.k}"):
                repair_cost_summary(code, code.n - code.k + 1)
