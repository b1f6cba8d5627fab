"""The crash-safe checkpoint/restore plane (``repro.recovery``).

Three layers under test: the checksummed atomic snapshot store, the
named-callback simulation codec, and the headline kill-resume
equivalence guarantee — a run killed at an epoch boundary and resumed
from its snapshot finishes element-identical to one that was never
interrupted, with the FairScheduler on its engine or its scalar spec,
with corrupted snapshots detected by checksum and skipped back to the
previous good epoch.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Simulation, ec2_config
from repro.cluster.sim import SnapshotError
from repro.codes import xorbas_lrc
from repro.experiments.runner import (
    build_loaded_cluster,
    run_failure_schedule,
    schedule_run_key,
)
from repro.recovery import (
    SNAPSHOT_SCHEMA,
    CheckpointPolicy,
    CheckpointStore,
    CorruptSnapshotError,
    FaultPlan,
    InjectedCrash,
)
from repro.recovery.equivalence import (
    assert_runs_equivalent,
    run_chaos_sweep,
    run_uninterrupted,
    run_with_kill_resume,
)
from repro.spec import with_specs

SMALL = dict(num_files=3, seed=5, num_nodes=20, pattern=(1, 2), event_gap=120.0)


# ---------------------------------------------------------------------------
# Snapshot store
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    def test_write_read_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {"epoch": 3, "values": list(range(10))}
        path = store.write("run", 3, payload)
        assert path.name == "run-e0003.ckpt"
        assert store.read("run", 3) == payload
        assert store.epochs("run") == [3]

    def test_key_with_path_separator_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.path_for("../escape", 0)

    def test_bitflip_detected_by_checksum(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write("run", 0, {"values": list(range(100))})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # mid-payload: header still parses
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptSnapshotError, match="checksum"):
            store.read("run", 0)

    def test_truncation_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write("run", 0, {"values": list(range(100))})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptSnapshotError):
            store.read("run", 0)
        path.write_bytes(raw[:4])  # not even a whole header
        with pytest.raises(CorruptSnapshotError, match="truncated"):
            store.read("run", 0)

    def test_wrong_magic_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write("run", 0, "x")
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTACKPT"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptSnapshotError, match="magic"):
            store.read("run", 0)

    def test_latest_falls_back_past_corrupt_and_quarantines(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("run", 0, "epoch0")
        store.write("run", 1, "epoch1")
        path = store.write("run", 2, "epoch2")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.latest("run") == (1, "epoch1")
        assert not path.exists()  # moved aside, not deleted
        assert path.with_suffix(path.suffix + ".corrupt").exists()

    def test_latest_respects_max_epoch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in range(4):
            store.write("run", epoch, f"epoch{epoch}")
        assert store.latest("run", max_epoch=2) == (2, "epoch2")

    def test_latest_none_when_everything_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write("run", 0, "only")
        path.write_bytes(b"garbage")
        assert store.latest("run") is None

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in range(5):
            store.write("run", epoch, epoch)
        store.prune("run", keep=2)
        assert store.epochs("run") == [3, 4]

    def test_keys_are_isolated(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("a", 0, "A")
        store.write("b", 0, "B")
        assert store.latest("a") == (0, "A")
        assert store.latest("b") == (0, "B")


# ---------------------------------------------------------------------------
# Simulation codec: named callbacks
# ---------------------------------------------------------------------------


class TestSimulationCodec:
    def test_named_event_roundtrip(self):
        sim = Simulation()
        fired = []
        sim.register_callback("tick", lambda: fired.append(sim.now))
        sim.schedule_named(5.0, "tick")
        state = sim.snapshot_state()

        restored = Simulation()
        restored.register_callback("tick", lambda: fired.append(restored.now))
        restored.restore_state(state)
        assert restored.now == sim.now
        restored.run()
        assert fired == [5.0]

    def test_restored_seq_preserves_tie_breaks(self):
        """A restored event keeps its original seq, so a later-scheduled
        same-time event still fires after it."""
        sim = Simulation()
        sim.register_callback("first", lambda: None)
        sim.schedule_named(1.0, "first")
        state = sim.snapshot_state()

        restored = Simulation()
        order = []
        restored.register_callback("first", lambda: order.append("first"))
        restored.restore_state(state)
        restored.schedule(1.0, lambda: order.append("second"))
        restored.run()
        assert order == ["first", "second"]

    def test_anonymous_live_event_refuses_snapshot(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SnapshotError, match="anonymous"):
            sim.snapshot_state()

    def test_cancelled_anonymous_event_is_ignored(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.snapshot_state()["events"] == []

    def test_restore_without_registration_refuses(self):
        sim = Simulation()
        sim.register_callback("tick", lambda: None)
        sim.schedule_named(1.0, "tick")
        state = sim.snapshot_state()
        with pytest.raises(SnapshotError, match="tick"):
            Simulation().restore_state(state)

    def test_conflicting_rebind_rejected(self):
        sim = Simulation()
        sim.register_callback("tick", lambda: None)
        with pytest.raises(ValueError, match="tick"):
            sim.register_callback("tick", lambda: 1)

    def test_schedule_named_requires_registration(self):
        with pytest.raises(KeyError):
            Simulation().schedule_named(1.0, "nobody")


# ---------------------------------------------------------------------------
# Policy, fault plans, run keys
# ---------------------------------------------------------------------------


class TestPolicyAndPlans:
    def test_policy_validates_knobs(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            CheckpointPolicy(store=store, interval_epochs=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(store=store, keep=0)

    def test_policy_due_follows_interval(self, tmp_path):
        policy = CheckpointPolicy(CheckpointStore(tmp_path), interval_epochs=3)
        assert [policy.due(e) for e in range(7)] == [
            True, False, False, True, False, False, True,
        ]

    def test_config_carries_and_validates_checkpoint_knobs(self, tmp_path):
        config = ec2_config().scaled(checkpoint_interval_epochs=2, checkpoint_keep=3)
        policy = CheckpointPolicy.from_config(tmp_path, config)
        assert policy.interval_epochs == 2 and policy.keep == 3
        with pytest.raises(ValueError):
            ec2_config().scaled(checkpoint_interval_epochs=0)
        with pytest.raises(ValueError):
            ec2_config().scaled(checkpoint_keep=0)

    def test_run_key_ignores_checkpoint_knobs(self):
        base = ec2_config(num_nodes=20)
        tuned = base.scaled(checkpoint_interval_epochs=4, checkpoint_keep=7)
        args = ([640e6] * 3, (1, 2), 5, 120.0, 300.0)
        assert schedule_run_key("s", base, *args) == schedule_run_key(
            "s", tuned, *args
        )
        assert schedule_run_key("s", base, *args) != schedule_run_key(
            "s", base.scaled(num_nodes=21), *args
        )

    def test_fault_plan_draw_is_deterministic(self):
        first = FaultPlan.draw(7, num_epochs=8, kills=1, corruptions=2)
        second = FaultPlan.draw(7, num_epochs=8, kills=1, corruptions=2)
        assert first == second
        assert len(first.kill_epochs) == 1 and len(first.corrupt_epochs) == 2
        assert not first.kill_epochs & first.corrupt_epochs

    def test_fault_plan_rejects_overdrawn(self):
        with pytest.raises(ValueError):
            FaultPlan.draw(0, num_epochs=2, kills=2, corruptions=1)

    def test_kill_fires_exactly_once(self, tmp_path):
        store = CheckpointStore(tmp_path)
        plan = FaultPlan(seed=0, kill_epochs=frozenset({1}))
        assert not plan.should_kill(store, "run", 0)
        assert plan.should_kill(store, "run", 1)
        assert not plan.should_kill(store, "run", 1)  # marker persists

    def test_maybe_corrupt_breaks_only_the_checksum(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write("run", 0, {"values": list(range(50))})
        plan = FaultPlan(seed=0, corrupt_epochs=frozenset({0}))
        assert plan.maybe_corrupt(store, "run", 0)
        with pytest.raises(CorruptSnapshotError, match="checksum"):
            store.read("run", 0)


# ---------------------------------------------------------------------------
# Cluster snapshot overlay
# ---------------------------------------------------------------------------


class TestClusterOverlay:
    def test_blockindex_restore_rejects_mismatched_build(self):
        small = build_loaded_cluster(
            xorbas_lrc(), ec2_config(num_nodes=20), [640e6] * 2, seed=5
        )
        large = build_loaded_cluster(
            xorbas_lrc(), ec2_config(num_nodes=20), [640e6] * 3, seed=5
        )
        state = small.namenode.index.snapshot_state()
        with pytest.raises(ValueError, match="rebuilt"):
            large.namenode.index.restore_state(state)

    def test_snapshot_schema_is_checked(self, tmp_path):
        import dataclasses

        from repro.cluster import BlockFixer
        from repro.experiments.runner import make_schedule_injector
        from repro.recovery import restore_run, snapshot_run

        cluster = build_loaded_cluster(
            xorbas_lrc(), ec2_config(num_nodes=20), [640e6] * 2, seed=5
        )
        fixer = BlockFixer(cluster)
        fixer.start()
        cluster.run(until=300.0)
        injector = make_schedule_injector(cluster, 5)
        snapshot = snapshot_run("s", "key", 0, cluster, fixer, injector)
        assert snapshot.schema == SNAPSHOT_SCHEMA
        stale = dataclasses.replace(snapshot, schema=SNAPSHOT_SCHEMA + 1)
        with pytest.raises(ValueError, match="schema"):
            restore_run(stale, cluster, fixer, injector)


# ---------------------------------------------------------------------------
# Kill-resume equivalence (the headline guarantee)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def spec_summary():
    """The uninterrupted small-sim run, shared across equivalence tests."""
    return run_uninterrupted(**SMALL)


class TestKillResumeEquivalence:
    def test_checkpointing_does_not_perturb_results(self, tmp_path, spec_summary):
        """Snapshot writes are observation, not intervention: a run that
        checkpoints every epoch finishes identical to one that never
        does."""
        policy = CheckpointPolicy(CheckpointStore(tmp_path))
        run = run_failure_schedule(
            "HDFS-Xorbas",
            xorbas_lrc(),
            ec2_config(num_nodes=SMALL["num_nodes"]),
            [640e6] * SMALL["num_files"],
            SMALL["pattern"],
            seed=SMALL["seed"],
            event_gap=SMALL["event_gap"],
            checkpoint=policy,
        )
        assert_runs_equivalent(spec_summary, run.summary())

    def test_kill_resume_smoke(self, tmp_path, spec_summary):
        """The CI smoke gate: kill at the last epoch boundary, resume,
        finish bit-identical."""
        resumed = run_with_kill_resume(tmp_path, **SMALL, kill_epoch=1)
        assert_runs_equivalent(spec_summary, resumed)

    def test_injected_crash_reports_epoch(self, tmp_path):
        policy = CheckpointPolicy(CheckpointStore(tmp_path))
        plan = FaultPlan(seed=0, kill_epochs=frozenset({0}))
        with pytest.raises(InjectedCrash) as info:
            run_failure_schedule(
                "HDFS-Xorbas",
                xorbas_lrc(),
                ec2_config(num_nodes=SMALL["num_nodes"]),
                [640e6] * SMALL["num_files"],
                SMALL["pattern"],
                seed=SMALL["seed"],
                event_gap=SMALL["event_gap"],
                checkpoint=policy,
                fault_plan=plan,
            )
        assert info.value.epoch == 0

    def test_resume_requires_checkpoint_policy(self):
        with pytest.raises(ValueError, match="checkpoint"):
            run_failure_schedule(
                "HDFS-Xorbas",
                xorbas_lrc(),
                ec2_config(num_nodes=20),
                [640e6] * 2,
                (1,),
                resume=True,
            )

    @pytest.mark.slow
    def test_corrupted_snapshot_falls_back_to_previous_good(
        self, tmp_path, spec_summary
    ):
        """Corruption at the kill epoch forces the resume one snapshot
        back; the extra replayed epoch must change nothing."""
        resumed = run_with_kill_resume(
            tmp_path, **SMALL, kill_epoch=1, corrupt_epochs=frozenset({1})
        )
        assert list(tmp_path.glob("*.corrupt"))
        assert_runs_equivalent(spec_summary, resumed)

    @pytest.mark.slow
    def test_kill_at_first_epoch_with_nothing_valid_restarts(self, tmp_path, spec_summary):
        """Epoch 0's snapshot corrupted and no earlier one on disk: the
        resume degrades to a clean from-scratch run, not a crash."""
        resumed = run_with_kill_resume(
            tmp_path, **SMALL, kill_epoch=0, corrupt_epochs=frozenset({0})
        )
        assert_runs_equivalent(spec_summary, resumed)

    @pytest.mark.slow
    def test_seed_engines_equivalent_too(self, tmp_path, spec_summary):
        """The scalar FairScheduler spec (the one oracle a failure
        schedule exercises that still checkpoints) resumes identically —
        and identically to the engine run."""
        with with_specs("mapreduce"):
            spec = run_uninterrupted(**SMALL)
            resumed = run_with_kill_resume(tmp_path, **SMALL, kill_epoch=1)
        assert_runs_equivalent(spec, resumed)
        assert_runs_equivalent(spec_summary, resumed)

    @pytest.mark.slow
    def test_rs_scheme_equivalent_too(self, tmp_path):
        spec = run_uninterrupted(**SMALL, scheme="HDFS-RS")
        resumed = run_with_kill_resume(
            tmp_path, **SMALL, scheme="HDFS-RS", kill_epoch=1
        )
        assert_runs_equivalent(spec, resumed)


_HASH_SEED_RUN = """
import pickle, sys
from repro.recovery.equivalence import run_uninterrupted
runs = {
    scheme: run_uninterrupted(scheme=scheme, num_files=10, pattern=(1, 1, 2))
    for scheme in ("HDFS-RS", "HDFS-Xorbas")
}
with open(sys.argv[1], "wb") as fh:
    pickle.dump((hash("hash seed probe"), runs), fh)
"""


def test_results_do_not_depend_on_hash_seed(tmp_path):
    """Set and str-keyed hash order follow ``PYTHONHASHSEED``; simulated
    results must not.  Two processes with different hash seeds run the
    same schedules and must finish bit-identical."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{hash_seed}.pkl"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUN, str(out)], env=env, check=True
        )
        with open(out, "rb") as fh:
            outputs.append(pickle.load(fh))
    (probe_a, runs_a), (probe_b, runs_b) = outputs
    assert probe_a != probe_b  # the two processes really hashed differently
    for scheme in ("HDFS-RS", "HDFS-Xorbas"):
        assert len(runs_a[scheme].events) >= 3
        assert_runs_equivalent(runs_a[scheme], runs_b[scheme])


_SWEEP_PATTERN = (1, 2, 1)
_SWEEP_SPECS: dict[tuple, object] = {}


def _sweep_spec(specs: tuple):
    if specs not in _SWEEP_SPECS:
        with with_specs(*specs):
            _SWEEP_SPECS[specs] = run_uninterrupted(
                **{**SMALL, "pattern": _SWEEP_PATTERN}
            )
    return _SWEEP_SPECS[specs]


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(
    kill_epoch=st.integers(min_value=0, max_value=len(_SWEEP_PATTERN) - 1),
    specs=st.sampled_from([(), ("mapreduce",)]),
)
def test_kill_resume_equivalent_at_every_kill_point(
    tmp_path_factory, kill_epoch, specs
):
    """Hypothesis-swept kill points x (engine, scalar-spec scheduler):
    equivalence holds wherever the crash lands."""
    scratch = tmp_path_factory.mktemp(f"kill{kill_epoch}-{len(specs)}")
    with with_specs(*specs):
        resumed = run_with_kill_resume(
            scratch,
            **{**SMALL, "pattern": _SWEEP_PATTERN},
            kill_epoch=kill_epoch,
        )
    assert_runs_equivalent(_sweep_spec(specs), resumed)


@pytest.mark.slow
def test_chaos_sweep_reports_all_equivalent(tmp_path):
    report = run_chaos_sweep(tmp_path, trials=2, base_seed=0, **{
        "num_files": SMALL["num_files"],
        "num_nodes": SMALL["num_nodes"],
        "pattern": SMALL["pattern"],
        "event_gap": SMALL["event_gap"],
    })
    assert report["num_trials"] == 2
    assert report["all_equivalent"], report["trials"]
    for trial in report["trials"]:
        assert trial["corrupt_epochs"] == [trial["kill_epoch"]]
