"""Crash-safe checkpoint/restore for long simulation runs.

ROADMAP item: month-long traces at production scale must "survive
interruption".  At quiescent epoch boundaries the recovery plane
pickles the running failure-schedule simulation whole (cluster,
BlockFixer, failure injector and event log), writes the pickle
crash-safely (tmp file + fsync + atomic rename, schema version +
content checksum) under a run key that carries the source fingerprint,
and resumes by unpickling it — so a killed-and-resumed run is
**bit-identical** to one that was never interrupted.  The same store
holds the experiment runner's cached results.
``repro.recovery.chaos`` adds deterministic fault injection (seeded
kill/corruption plans) and ``repro.recovery.equivalence`` holds the
kill-resume harness proven by the differential tests.

``equivalence`` is intentionally not imported here: it depends on
``repro.experiments.runner``, which itself uses this package, and the
lazy edge keeps the import graph acyclic.
"""

from .chaos import FaultPlan, InjectedCrash
from .snapshot import SnapshotError, snapshot, source_fingerprint
from .store import ResultCache, checkpoint_key

__all__ = [
    "FaultPlan",
    "InjectedCrash",
    "ResultCache",
    "SnapshotError",
    "checkpoint_key",
    "snapshot",
    "source_fingerprint",
]
