"""The crash-safe checkpoint/restore plane (``repro.recovery``).

Three layers under test: the checksummed atomic store (checkpoint side), the
snapshot itself (the pickled quiescent run, keyed by the source
fingerprint), and the headline kill-resume equivalence guarantee — a
run killed at an epoch boundary and resumed from its snapshot, in the
same process or another, finishes element-identical to one that was
never interrupted, with the scheduler, fabric and metadata plane on
their engines or their scalar specs, with corrupted snapshots detected
by checksum and skipped back to the previous good epoch.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BlockFixer, Simulation, ec2_config
from repro.codes import xorbas_lrc
from repro.experiments import runner
from repro.experiments.runner import (
    build_loaded_cluster,
    make_schedule_injector,
    run_failure_schedule,
    schedule_run_key,
)
from repro.recovery import (
    FaultPlan,
    InjectedCrash,
    ResultCache,
    SnapshotError,
    checkpoint_key,
    snapshot,
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


def _write(store, key, epoch, value):
    store.put(checkpoint_key(key, epoch), value)
    return store.path_for(checkpoint_key(key, epoch))


def _assert_quarantined(store, path):
    """The entry read as a miss and was moved aside, not deleted."""
    assert not path.exists()
    assert path.with_suffix(path.suffix + ".corrupt").exists()
    assert store.misses >= 1


class TestCheckpointStore:
    """The store's checkpoint side: ``checkpoint_key`` entries, ``latest``."""

    def test_write_read_roundtrip(self, tmp_path):
        store = ResultCache(tmp_path)
        payload = {"epoch": 3, "values": list(range(10))}
        path = _write(store, "run", 3, payload)
        assert path.name == "run-e3.pkl"
        assert store.get("run-e3") == payload
        assert store.latest("run", max_epoch=3) == (3, payload)

    def test_key_with_path_separator_rejected(self, tmp_path):
        store = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            store.path_for("../escape")

    def test_bitflip_detected_by_checksum(self, tmp_path):
        store = ResultCache(tmp_path)
        path = _write(store, "run", 0, {"values": list(range(100))})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # mid-payload: header still parses
        path.write_bytes(bytes(raw))
        assert store.get("run-e0") is None
        _assert_quarantined(store, path)

    def test_truncation_detected(self, tmp_path):
        store = ResultCache(tmp_path)
        for cut in (lambda raw: raw[: len(raw) // 2], lambda raw: raw[:4]):
            path = _write(store, "run", 0, {"values": list(range(100))})
            path.write_bytes(cut(path.read_bytes()))
            assert store.get("run-e0") is None
            _assert_quarantined(store, path)

    def test_wrong_magic_detected(self, tmp_path):
        store = ResultCache(tmp_path)
        path = _write(store, "run", 0, "x")
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTACKPT"
        path.write_bytes(bytes(raw))
        assert store.get("run-e0") is None
        _assert_quarantined(store, path)

    def test_latest_falls_back_past_corrupt_and_quarantines(self, tmp_path):
        store = ResultCache(tmp_path)
        _write(store, "run", 0, "epoch0")
        _write(store, "run", 1, "epoch1")
        path = _write(store, "run", 2, "epoch2")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.latest("run", max_epoch=2) == (1, "epoch1")
        _assert_quarantined(store, path)

    def test_latest_respects_max_epoch(self, tmp_path):
        store = ResultCache(tmp_path)
        for epoch in range(4):
            _write(store, "run", epoch, f"epoch{epoch}")
        assert store.latest("run", max_epoch=2) == (2, "epoch2")

    def test_latest_none_when_everything_corrupt(self, tmp_path):
        store = ResultCache(tmp_path)
        path = _write(store, "run", 0, "only")
        path.write_bytes(b"garbage")
        assert store.latest("run", max_epoch=0) is None

    def test_prune_keeps_newest(self, tmp_path):
        """A checkpointing run keeps the newest two epochs' snapshots:
        the one a resume reads first, and one to fall back to."""
        store = ResultCache(tmp_path)
        config, sizes = ec2_config(num_nodes=SMALL["num_nodes"]), [640e6] * 2
        schedule = ((1, 1, 1, 1), SMALL["seed"], SMALL["event_gap"], 300.0)
        run_failure_schedule(
            "HDFS-Xorbas", xorbas_lrc(), config, sizes, schedule[0],
            seed=schedule[1], event_gap=schedule[2], checkpoint=store,
        )
        key = schedule_run_key("HDFS-Xorbas", config, sizes, *schedule)
        assert sorted(path.name for path in tmp_path.glob("*.pkl")) == [
            f"{key}-e2.pkl", f"{key}-e3.pkl",
        ]

    def test_keys_are_isolated(self, tmp_path):
        store = ResultCache(tmp_path)
        _write(store, "a", 0, "A")
        _write(store, "b", 0, "B")
        assert store.latest("a", max_epoch=0) == (0, "A")
        assert store.latest("b", max_epoch=0) == (0, "B")


# ---------------------------------------------------------------------------
# Simulation codec: pickling
# ---------------------------------------------------------------------------


class _Recorder:
    """A daemon stand-in whose timer is a bound method, so it pickles."""

    def __init__(self) -> None:
        self.order: list[str] = []

    def first(self) -> None:
        self.order.append("first")


class TestSimulationCodec:
    def test_named_event_roundtrip(self):
        """A daemon timer — a bound method, here with a label — survives
        the pickle and fires at its original time."""
        sim, recorder = Simulation(), _Recorder()
        sim.schedule_at(5.0, recorder.first, name="tick")
        sim, recorder = pickle.loads(snapshot((sim, recorder)))
        assert [event.name for event in sim._queue] == ["tick"]
        sim.run()
        assert sim.now == 5.0 and recorder.order == ["first"]

    def test_restored_seq_preserves_tie_breaks(self):
        """An unpickled event keeps its original seq, so a later-scheduled
        same-time event still fires after it."""
        sim, recorder = Simulation(), _Recorder()
        sim.schedule(1.0, recorder.first)
        sim, recorder = pickle.loads(snapshot((sim, recorder)))
        sim.schedule(1.0, lambda: recorder.order.append("second"))
        sim.run()
        assert recorder.order == ["first", "second"]

    def test_anonymous_live_event_refuses_snapshot(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SnapshotError, match="lambda.*quiescent"):
            snapshot(sim)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


class TestPolicyAndPlans:
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
        store = ResultCache(tmp_path)
        plan = FaultPlan(seed=0, kill_epochs=frozenset({1}))
        assert not plan.should_kill(store, "run", 0)
        assert plan.should_kill(store, "run", 1)
        assert not plan.should_kill(store, "run", 1)  # marker persists

    def test_maybe_corrupt_breaks_only_the_checksum(self, tmp_path):
        store = ResultCache(tmp_path)
        path = _write(store, "run", 0, {"values": list(range(50))})
        header = path.read_bytes()[:52]  # magic, schema, length, sha256
        plan = FaultPlan(seed=0, corrupt_epochs=frozenset({0}))
        assert plan.maybe_corrupt(store, "run", 0)
        assert path.read_bytes()[:52] == header
        assert store.get("run-e0") is None


# ---------------------------------------------------------------------------
# Cluster snapshots
# ---------------------------------------------------------------------------


class TestClusterSnapshot:
    def test_mid_repair_snapshot_raises(self):
        """Repairs in flight leave closures queued: the snapshot refuses
        and names the object, instead of writing an unrestorable file."""
        cluster = build_loaded_cluster(
            xorbas_lrc(), ec2_config(num_nodes=20), [640e6] * 2, seed=5
        )
        fixer = BlockFixer(cluster)
        fixer.start()
        cluster.run(until=300.0)
        injector = make_schedule_injector(cluster, 5)
        snapshot((cluster, fixer, injector, []))  # quiescent: pickles
        injector.kill(2)
        while not fixer.in_repair:
            assert cluster.sim.step()
        with pytest.raises(SnapshotError, match="local object.*quiescent"):
            snapshot((cluster, fixer, injector, []))

    def test_stale_source_fingerprint_is_not_resumed(
        self, tmp_path, monkeypatch, spec_summary
    ):
        """A checkpoint keyed by another source fingerprint is never
        read: the resume starts from scratch and still matches."""
        store = ResultCache(tmp_path)
        config = ec2_config(num_nodes=SMALL["num_nodes"])
        sizes = [640e6] * SMALL["num_files"]
        schedule = (SMALL["pattern"], SMALL["seed"], SMALL["event_gap"], 300.0)
        fresh_key = schedule_run_key("HDFS-Xorbas", config, sizes, *schedule)
        monkeypatch.setattr(runner, "source_fingerprint", lambda: "other code")
        stale_key = schedule_run_key("HDFS-Xorbas", config, sizes, *schedule)
        monkeypatch.undo()
        assert stale_key != fresh_key
        # Restoring this would crash the resume: it is not a pickled run.
        _write(store, stale_key, 1, b"written by other code")
        run = run_failure_schedule(
            "HDFS-Xorbas",
            xorbas_lrc(),
            config,
            sizes,
            SMALL["pattern"],
            seed=SMALL["seed"],
            event_gap=SMALL["event_gap"],
            checkpoint=store,
            resume=True,
        )
        assert_runs_equivalent(spec_summary, run.summary())
        assert store.path_for(checkpoint_key(stale_key, 1)).exists()
        for epoch in (0, 1):
            assert store.path_for(checkpoint_key(fresh_key, epoch)).exists()


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
        run = run_failure_schedule(
            "HDFS-Xorbas",
            xorbas_lrc(),
            ec2_config(num_nodes=SMALL["num_nodes"]),
            [640e6] * SMALL["num_files"],
            SMALL["pattern"],
            seed=SMALL["seed"],
            event_gap=SMALL["event_gap"],
            checkpoint=ResultCache(tmp_path),
        )
        assert_runs_equivalent(spec_summary, run.summary())

    def test_kill_resume_smoke(self, tmp_path, spec_summary):
        """The CI smoke gate: kill at the last epoch boundary, resume,
        finish bit-identical."""
        resumed = run_with_kill_resume(tmp_path, **SMALL, kill_epoch=1)
        assert_runs_equivalent(spec_summary, resumed)

    def test_injected_crash_reports_epoch(self, tmp_path):
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
                checkpoint=ResultCache(tmp_path),
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


def _run_python(script: str, hash_seed: str, *args: str) -> None:
    """Run ``script`` in a fresh interpreter under ``PYTHONHASHSEED``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
    subprocess.run([sys.executable, "-c", script, *args], env=env, check=True)


def test_results_do_not_depend_on_hash_seed(tmp_path):
    """Set and str-keyed hash order follow ``PYTHONHASHSEED``; simulated
    results must not.  Two processes with different hash seeds run the
    same schedules and must finish bit-identical."""
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{hash_seed}.pkl"
        _run_python(_HASH_SEED_RUN, hash_seed, str(out))
        with open(out, "rb") as fh:
            outputs.append(pickle.load(fh))
    (probe_a, runs_a), (probe_b, runs_b) = outputs
    assert probe_a != probe_b  # the two processes really hashed differently
    for scheme in ("HDFS-RS", "HDFS-Xorbas"):
        assert len(runs_a[scheme].events) >= 3
        assert_runs_equivalent(runs_a[scheme], runs_b[scheme])


_CROSS_PROCESS_STEP = """
import ast, pickle, sys
from repro.cluster import ec2_config
from repro.codes import xorbas_lrc
from repro.experiments import runner
from repro.recovery import FaultPlan, InjectedCrash, ResultCache
step, root, out, small = sys.argv[1:]
kw = ast.literal_eval(small)
run = lambda **extra: runner.run_failure_schedule(
    "HDFS-Xorbas", xorbas_lrc(), ec2_config(num_nodes=kw["num_nodes"]),
    [640e6] * kw["num_files"], kw["pattern"], seed=kw["seed"],
    event_gap=kw["event_gap"], checkpoint=ResultCache(root),
    **extra,
)
if step == "kill":
    try:
        run(fault_plan=FaultPlan(seed=5, kill_epochs=frozenset({1})))
    except InjectedCrash:
        sys.exit(0)
    sys.exit("the fault plan did not fire")
runner.build_loaded_cluster = None  # a resume unpickles; it never rebuilds
with open(out, "wb") as fh:
    pickle.dump(run(resume=True).summary(), fh)
"""


def test_kill_resume_across_processes(tmp_path, spec_summary):
    """The ``repro ec2 --resume`` path: one process is killed after its
    epoch-1 checkpoint, a second one with another hash seed resumes
    from it, and the result matches the uninterrupted run."""
    out = tmp_path / "resumed.pkl"
    for hash_seed, step in (("1", "kill"), ("2", "resume")):
        _run_python(
            _CROSS_PROCESS_STEP, hash_seed, step, str(tmp_path), str(out), repr(SMALL)
        )
    with open(out, "rb") as fh:
        assert_runs_equivalent(spec_summary, pickle.load(fh))


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
@settings(max_examples=8, deadline=None)
@given(
    kill_epoch=st.integers(min_value=0, max_value=len(_SWEEP_PATTERN) - 1),
    specs=st.sampled_from([(), ("network",), ("namenode",)]),
)
def test_kill_resume_equivalent_at_every_kill_point(
    tmp_path_factory, kill_epoch, specs
):
    """Hypothesis-swept kill points x (engines, or the scalar spec of
    the fabric or the metadata plane): equivalence holds
    wherever the crash lands."""
    scratch = tmp_path_factory.mktemp(f"kill{kill_epoch}-{'-'.join(specs)}")
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
