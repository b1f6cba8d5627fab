"""Vectorized RaidNode candidate scanning.

The spec scan re-sorts and re-filters *every* file on every tick —
O(F log F) per scan even when the cluster is 99% RAIDed, which is
exactly the steady state of a long simulation.  The engine keeps a
columnar view of the file population: an append-only ingest of new
files (dicts preserve insertion order, and the cluster never deletes
files), a ``pending`` bool column, and a name-rank column for the
spec's sorted-by-name candidate order.  A steady-state scan touches
only the pending rows; files observed RAIDed (by the encode job's
completion callback or instantly by the test helpers) leave ``pending``
forever.

Both implementations return the same candidate list — same files, same
(name-sorted) order, same ``should_raid`` call pattern — which is what
the pair's difftest asserts on shared :class:`RaidScanSchedule`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Mapping

import numpy as np

from repro.difftest import ArraySchedule

from .blocks import StoredFile

__all__ = ["RaidScanSchedule", "RaidScanIndex"]


@dataclass(frozen=True)
class RaidScanSchedule(ArraySchedule):
    """A file-population state as arrays: one row per stored file.

    ``raided``/``in_flight``/``policy`` are the three predicates the
    scan applies; the difftest materializes a file dict from them and
    feeds the identical dict to both implementations.
    """

    raided: np.ndarray  # bool: already RAIDed
    in_flight: np.ndarray  # bool: an encode job is running for it
    policy: np.ndarray  # bool: the should_raid verdict

    @classmethod
    def draw(
        cls,
        rng: np.random.Generator,
        files: int,
        raided_fraction: float = 0.95,
    ) -> "RaidScanSchedule":
        return cls(
            raided=rng.random(files) < raided_fraction,
            in_flight=rng.random(files) < 0.01,
            policy=rng.random(files) < 0.9,
        )

    def check(self) -> None:
        if not (self.raided.shape == self.in_flight.shape == self.policy.shape):
            raise ValueError("schedule columns must align")


class RaidScanIndex:
    """Columnar pending-file tracker behind the vectorized scan."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._names_arr = np.empty(0, dtype=object)
        self._pending = np.empty(0, dtype=bool)
        self._index_of: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._names)

    @property
    def pending_count(self) -> int:
        return int(self._pending.sum())

    def ingest(self, files: Mapping[str, StoredFile]) -> None:
        """Pick up files created since the last scan (append-only)."""
        seen = len(self._names)
        if len(files) == seen:
            return
        if len(files) < seen:  # defensive: rebuild on the impossible case
            self._names, self._index_of = [], {}
            self._names_arr = np.empty(0, dtype=object)
            self._pending = np.empty(0, dtype=bool)
            seen = 0
        new_names = list(islice(files.keys(), seen, None))
        for offset, name in enumerate(new_names):
            self._index_of[name] = seen + offset
        self._names.extend(new_names)
        self._names_arr = np.asarray(self._names, dtype=object)
        fresh = np.array(
            [not files[name].raided for name in new_names], dtype=bool
        )
        self._pending = np.concatenate((self._pending[:seen], fresh))

    def mark_raided(self, name: str) -> None:
        """Completion fast path: drop the file from the pending set."""
        idx = self._index_of.get(name)
        if idx is not None:
            self._pending[idx] = False

    def candidates(
        self,
        files: Mapping[str, StoredFile],
        in_flight: set[str],
        should_raid: Callable[[StoredFile], bool],
    ) -> list[StoredFile]:
        """Un-RAIDed files passing the policy, in name-sorted order.

        Files found RAIDed out-of-band (e.g. the instant-raid test
        helpers) are lazily swept out of ``pending`` here, so each file
        costs at most one stale observation over its lifetime.
        """
        self.ingest(files)
        pending_idx = np.flatnonzero(self._pending)
        if pending_idx.size == 0:
            return []
        ordered = pending_idx[np.argsort(self._names_arr[pending_idx])]
        names = self._names
        out: list[StoredFile] = []
        for i in ordered.tolist():
            name = names[i]
            stored = files[name]
            if stored.raided:
                self._pending[i] = False
                continue
            if name in in_flight or not should_raid(stored):
                continue
            out.append(stored)
        return out
