"""Deterministic fault injection: seeded crash and corruption plans.

A :class:`FaultPlan` decides, purely from its seed, at which epoch
boundaries a run "crashes" (an :class:`InjectedCrash` is raised right
after the checkpoint is written, simulating a process kill) and which
freshly written snapshots get corrupted in place (simulating torn
writes/bit rot the checksum layer must catch).  Kill decisions are
armed exactly once per (run, epoch) via an on-disk marker next to the
checkpoints, so the resumed attempt sails past the fault the first one
absorbed: :func:`repro.recovery.equivalence.run_with_kill_resume`
catches the crash and resumes.  Nothing retries it for you —
``InjectedCrash`` is a ``RuntimeError``, and ``parallel_map`` retries
only ``OSError``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .store import ResultCache, checkpoint_key

__all__ = ["FaultPlan", "InjectedCrash"]


class InjectedCrash(RuntimeError):
    """A FaultPlan killed the run (stands in for SIGKILL in tests)."""

    def __init__(self, epoch: int):
        super().__init__(f"fault plan killed the run at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class FaultPlan:
    """Epochs to crash at and snapshots to corrupt, fixed by a seed."""

    seed: int
    kill_epochs: frozenset[int] = frozenset()
    corrupt_epochs: frozenset[int] = frozenset()

    @classmethod
    def draw(
        cls,
        seed: int,
        num_epochs: int,
        kills: int = 1,
        corruptions: int = 0,
    ) -> "FaultPlan":
        """Sample distinct fault epochs from a dedicated seeded stream."""
        if num_epochs < 1:
            raise ValueError("need at least one epoch to plan faults over")
        if kills + corruptions > num_epochs:
            raise ValueError("more faults than epochs")
        rng = np.random.default_rng(np.random.SeedSequence([0xC4A05, int(seed)]))
        picks = rng.choice(num_epochs, size=kills + corruptions, replace=False)
        picks = [int(p) for p in picks]
        return cls(
            seed=seed,
            kill_epochs=frozenset(picks[:kills]),
            corrupt_epochs=frozenset(picks[kills:]),
        )

    # -- firing --------------------------------------------------------------

    def _marker(self, store: ResultCache, run_key: str, epoch: int):
        return store.root / f"{run_key}-chaos-e{epoch:04d}.fired"

    def should_kill(self, store: ResultCache, run_key: str, epoch: int) -> bool:
        """True exactly once per (run, epoch) across process restarts."""
        if epoch not in self.kill_epochs:
            return False
        marker = self._marker(store, run_key, epoch)
        if marker.exists():
            return False
        marker.write_text(f"killed at epoch {epoch}\n", encoding="utf-8")
        return True

    def maybe_corrupt(self, store: ResultCache, run_key: str, epoch: int) -> bool:
        """Flip bytes in the snapshot just written for ``epoch``.

        The damage lands mid-payload so only the content checksum — not
        the header parse — can catch it, exercising the fallback path.
        """
        if epoch not in self.corrupt_epochs:
            return False
        path = store.path_for(checkpoint_key(run_key, epoch))
        size = os.path.getsize(path)
        offset = max(0, size // 2)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            original = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([original[0] ^ 0xFF if original else 0xFF]))
        return True
