"""E24: the columnar decommission planner against its spec, at scale.

Decommissioning drains every block of a retiring node (Section 3.1.2's
recreate path); at warehouse scale that is tens of thousands of
per-block repair decisions, each a pure function of (code, position,
readable pattern).  The spec plans block by block, rebuilding the
available-position set from the namenode for each; the engine computes
readable bitmasks in one columnar BlockIndex pass and hands them to the
RepairPlanner as they are, whose memo decides once per *distinct*
(code, position, pattern) key.

The comparison (``decommission_speedup``, recorded and not gated):
planning the drain of one node in a 15,000-file LRC cluster (with a
second node already dead, so plans mix light, heavy and copy kinds)
must give element-identical
:class:`~repro.cluster.decommission.RecreateDecision` lists from the
spec and the vectorized planner.
"""

import gc

from repro.cluster import HadoopCluster, ec2_config
from repro.cluster.decommission import plan_recreates_vectorized
from repro.codes import xorbas_lrc
from repro.difftest import compare_speed
from repro.spec import plan_recreates_seed

from conftest import record_metric, write_report

NUM_FILES = 15000
DEAD_NODE = "node013"
VICTIM = "node002"


def compare_plans(spec_plan, engine_plan):
    assert spec_plan == engine_plan
    assert len(spec_plan) > NUM_FILES // 5  # the victim actually holds blocks
    kinds = {decision.kind for decision in spec_plan}
    assert "light" in kinds  # the dead node degraded some stripes


def test_decommission_planning_10x_faster_and_plans_identical():
    cluster = HadoopCluster(xorbas_lrc(), ec2_config(num_nodes=50), seed=0)
    for i in range(NUM_FILES):
        cluster.create_file(f"f{i}", 640e6)
    cluster.raid_all_instant()
    cluster.fail_node(DEAD_NODE)

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        record = compare_speed(
            "decommission",
            spec_fn=lambda: plan_recreates_seed(cluster, VICTIM),
            engine_fn=lambda: plan_recreates_vectorized(cluster, VICTIM),
            compare=compare_plans,
            metrics=record_metric,
            report=lambda line: write_report("decommission.txt", line),
        )
    finally:
        gc.enable()
        gc.unfreeze()
    print(
        f"\n{NUM_FILES} files, victim {VICTIM}: spec "
        f"{record.spec_seconds:.3f}s, engine {record.engine_seconds:.3f}s "
        f"-> {record.speedup:.1f}x"
    )
