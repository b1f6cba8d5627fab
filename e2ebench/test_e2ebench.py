"""Self-tests of the e2ebench harness (``python -m pytest e2ebench -q``).

Not part of tier-1: the harness measures the repo from outside, so its
tests live beside it.  Everything runs at ``--scale 0.05``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import compare, metrics, run, trace, workloads  # noqa: E402

SCALE = "0.05"


def _run(*args: str, env=None, cwd=None, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_repeats_the_declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["command"] == ["python3", "e2ebench/run.py"]
    assert doc["paths"] == ["e2ebench"]
    assert doc["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, why) for name, why, _ in metrics.WORKLOADS
    ]
    assert list(workloads.WORKLOADS) == [name for name, _, _ in metrics.WORKLOADS]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == metrics.PER_LAYER
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert metrics.EXACT <= {m[0] for m in metrics.PER_LAYER}
    assert set(json.loads(run.GOLDEN.read_text())) == set(workloads.WORKLOADS)


def test_smoke_every_workload_reports_every_declared_metric():
    """All four workloads, traced and not, in < 30 s; tracing changes no result.

    One interpreter per pass: one for the untraced run, two (one traced,
    one not) for the traced run.
    """
    started = time.perf_counter()
    for name in workloads.WORKLOADS:
        digests = []
        for trace_flag, declared in (("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)):
            result = _result(_run(
                "--workload", name, "--scale", SCALE, "--seconds", "0",
                "--min-passes", "1", "--trace", trace_flag, "--seed", "3",
            ))
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [m[0] for m in declared]
            for metric, unit, *_ in declared:
                value = result["metrics"][metric]
                assert value["unit"] == unit
                assert math.isfinite(value["value"]), metric
            if trace_flag == "0":
                assert all(v["value"] > 0 for v in result["metrics"].values())
            detail = json.loads(
                (run.OUT / f"{name}.seed3.trace{trace_flag}.json").read_text()
            )
            digests.append(detail["digest"])
            if trace_flag == "1":
                # run.py itself fails the run if an exact count differs
                # between its traced and untraced passes.
                assert detail["traced_passes"] >= 1 and detail["untraced_passes"] >= 1
                assert not detail["problems"]
        assert digests[0] == digests[1]
    assert time.perf_counter() - started < 30


def test_layers_a_workload_does_not_run_report_zero():
    result = _result(_run(
        "--workload", "codec_stripe_bytes", "--scale", SCALE, "--seconds", "0",
        "--min-passes", "1", "--trace", "1",
    ))["metrics"]
    for name in ("flownet.busy_s", "sim.events", "readservice.reads", "runner.load_s"):
        assert result[name]["value"] == 0
    assert result["codec.encode_mb_per_s"]["value"] > 0
    assert result["galois.matmul_batch_s"]["value"] > 0


def _patch_targets():
    from repro import codes, galois
    from repro.cluster import blockfixer, degraded, failures, flownet, hdfs
    from repro.cluster import mapreduce, namenode, readservice, sim
    from repro.codes import engine, xorplane
    from repro.experiments import runner
    from repro.galois import bitplane, linalg

    return [
        runner, codes, galois, engine, xorplane, linalg, bitplane, degraded,
        readservice, hdfs.HadoopCluster, namenode.NameNode, namenode.NameNodeAPI,
        sim.Simulation, flownet.FlowTable, mapreduce.JobTracker,
        mapreduce.MapReduceJob, blockfixer.BlockFixer, blockfixer.PayloadRepairBatch,
        blockfixer.LightRepairTask, blockfixer.StripeRepairTask,
        failures.FailureInjector, engine.CodecEngine, engine.RepairPlanner,
        xorplane.XorSchedule, readservice.ReadSchedule, readservice.OutageWindows,
        readservice.ReadServiceEngine, degraded.ReadServiceStats,
    ]


def test_wrappers_restore_every_patched_attribute():
    targets = _patch_targets()
    before = [dict(vars(t)) for t in targets]
    tracer = trace.Tracer(capacity=1024)
    with trace.install(tracer):
        changed = sum(dict(vars(t)) != b for t, b in zip(targets, before))
        assert changed >= 20
    for target, snapshot in zip(targets, before):
        after = dict(vars(target))
        assert after.keys() == snapshot.keys(), target
        assert all(after[k] is snapshot[k] for k in snapshot), target


def test_traced_pass_attributes_event_time_to_the_owning_module():
    make_inputs, run_pass = workloads.WORKLOADS["ec2_repair_storm"]
    tracer = trace.Tracer(capacity=64)  # forces the columns to grow
    inputs = make_inputs(0, float(SCALE))
    with trace.install(tracer) as patches:
        traced = run_pass(inputs, workloads.Timer(tracer))
    # Inputs carry the code objects and their caches: one pass each.
    plain = run_pass(make_inputs(0, float(SCALE)), workloads.Timer())
    assert workloads.simstat_digest(traced.simstat) == workloads.simstat_digest(plain.simstat)
    assert traced.counts == plain.counts
    table = tracer.table()
    assert len(table) == tracer.span_count > 1000
    assert (table.parent < 0).sum() == 2  # one root per scheme
    assert (table.self_time >= 0).all()
    assert (table.parent < table.name.size).all()
    # One span per simulated event, each named after its callback's module.
    assert table.count("event:*") == traced.counts["sim.events"]
    assert table.count("event:none") == 0
    assert table.count("event:flownet") > 0 and table.count("event:blockfixer") > 0
    layers = metrics.layer_metrics(table, patches.samples, traced.counts)
    assert layers["flownet.busy_s"] > 0.3 * table.root_s()
    assert layers["flownet.peak_active_flows"] > 0
    assert layers["trace.unattributed_frac"] < 0.05
    assert abs(sum(table.layer_self_s().values()) - table.root_s()) < 1e-6


def _results(wall: float) -> dict:
    summary = lambda v: {"median": v, "min": v * 0.99, "max": v * 1.01, "n": 3}
    end_to_end = {name: summary(10.0) for name, *_ in metrics.END_TO_END}
    end_to_end["wall_s"] = summary(wall)
    untraced = {"end_to_end": end_to_end, "failed": 0, "digest": "d" * 64}
    traced = {"per_layer": {name: 1.0 for name, *_ in metrics.PER_LAYER}}
    return {"workloads": {"ec2_repair_storm": {"untraced": untraced, "traced": traced}}}


def test_compare_flags_a_regression_beyond_the_bound_and_passes_3_percent():
    base = _results(10.0)
    bound = {name: bound for name, _, _, bound in metrics.END_TO_END}["wall_s"]
    lines, regressed = compare.compare(base, _results(10.0 * (1 + bound + 0.05)))
    assert regressed == 1
    assert any("wall_s" in line and "regressed" in line for line in lines)
    assert compare.compare(base, _results(10.3))[1] == 0
    # An improvement is never a regression.
    assert compare.compare(base, _results(8.0))[1] == 0


def test_compare_requires_exact_counts_and_digests_to_match():
    base = _results(10.0)
    moved = copy.deepcopy(base)
    moved["workloads"]["ec2_repair_storm"]["traced"]["per_layer"]["sim.events"] = 2.0
    assert compare.compare(base, moved)[1] == 1
    moved = copy.deepcopy(base)
    moved["workloads"]["ec2_repair_storm"]["untraced"]["digest"] = "e" * 64
    assert compare.compare(base, moved)[1] == 1


def test_compare_reports_wide_overlapping_spreads_as_unresolved():
    base = {"median": 10.0, "min": 8.0, "max": 12.0}
    change = {"median": 11.5, "min": 9.0, "max": 13.0}
    assert compare.verdict(base, change, "lower", 0.10)[0] == "unresolved"
    tight = {"median": 11.5, "min": 11.4, "max": 11.6}
    steady = {"median": 10.0, "min": 9.9, "max": 10.1}
    assert compare.verdict(steady, tight, "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, tight, "lower", 0.20)[0] == "ok"
    assert compare.verdict(steady, tight, "higher", 0.10)[0] == "ok"


@pytest.mark.parametrize("var,value", [("REPRO_CACHE_DIR", "/tmp/c"), ("REPRO_JOBS", "4")])
def test_refuses_to_run_with_caching_or_worker_pools(var, value):
    done = _run("--workload", "codec_stripe_bytes", "--scale", SCALE,
                env={**os.environ, var: value})
    assert done.returncode != 0
    assert var in done.stderr and not done.stdout.strip()


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "ec2_repair_storm", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / "e2ebench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
