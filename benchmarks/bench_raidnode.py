"""E26: the RaidNode scan index against its spec, at scale.

The RaidNode daemon periodically scans the whole namespace for
un-RAIDed files (Section 3.1.1).  The spec re-sorts and re-filters all
F files every period — O(F log F) forever, even when nearly everything
is already RAIDed.  The engine (`RaidScanIndex`) tracks the pending
set incrementally: ingest is O(new files) via dict insertion order,
RAIDed files leave the set by notification (or a lazy stale sweep),
and each scan touches only the pending few.

The comparison (``raidnode_speedup``, recorded and not gated): a
steady-state scan over 200,000 files (98% RAIDed) must return the
identical candidate list through the index and the spec scan (same
files, same name order, same policy-callback semantics).
"""

import gc

import numpy as np

from repro.cluster.raidscan import RaidScanIndex, RaidScanSchedule
from repro.difftest import compare_speed
from repro.spec import scan_candidates_seed

from conftest import record_metric, write_report

NUM_FILES = 200000
RAIDED_FRACTION = 0.98


class FakeFile:
    """The two attributes the scan reads from a StoredFile."""

    __slots__ = ("name", "raided")

    def __init__(self, name: str, raided: bool):
        self.name = name
        self.raided = raided


def build_namespace():
    schedule = RaidScanSchedule.draw(
        np.random.default_rng(5), files=NUM_FILES, raided_fraction=RAIDED_FRACTION
    )
    schedule.check()
    order = np.random.default_rng(1).permutation(NUM_FILES)
    names = [f"f{i:07d}" for i in order]
    files = {
        name: FakeFile(name, bool(schedule.raided[i]))
        for i, name in enumerate(names)
    }
    in_flight = {name for i, name in enumerate(names) if schedule.in_flight[i]}
    policy = {name: bool(schedule.policy[i]) for i, name in enumerate(names)}
    return files, in_flight, policy


def test_steady_state_scan_10x_faster_and_candidates_identical():
    files, in_flight, policy = build_namespace()

    def should_raid(stored):
        return policy[stored.name]

    index = RaidScanIndex()
    index.candidates(files, in_flight, should_raid)  # one-time ingest

    def compare_candidates(spec_result, engine_result):
        assert [f.name for f in spec_result] == [f.name for f in engine_result]
        assert len(spec_result) > 1000  # the pending tail is non-trivial

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        record = compare_speed(
            "raidnode",
            spec_fn=lambda: scan_candidates_seed(files, in_flight, should_raid),
            engine_fn=lambda: index.candidates(files, in_flight, should_raid),
            compare=compare_candidates,
            metrics=record_metric,
            report=lambda line: write_report("raidnode.txt", line),
        )
    finally:
        gc.enable()
        gc.unfreeze()
    print(
        f"\n{NUM_FILES} files ({RAIDED_FRACTION:.0%} RAIDed): spec "
        f"{record.spec_seconds:.3f}s, engine {record.engine_seconds:.3f}s "
        f"-> {record.speedup:.1f}x"
    )
