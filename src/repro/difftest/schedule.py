"""Schedule capture/replay: a subsystem's randomness frozen as arrays.

The trick that made PR 5's read-service differential tests *exact* was
pulling every random draw out of both implementations into one plain
data object (``ReadSchedule``): draw once, feed both, and any
divergence in the outputs is a real implementation difference, never
RNG stream drift.  This module generalizes that idiom:

* :class:`Schedule` — the structural protocol: a bag of numpy arrays
  with a cheap ``check`` validating it against its context.
* :class:`ArraySchedule` — a dataclass mixin giving frozen array
  dataclasses ``arrays()``/equality/size introspection for free.
* ``require_*`` helpers — the bounds/order validations every schedule's
  ``check`` repeats (negative indices silently alias through numpy
  fancy indexing *identically in both engines*, so only validation can
  catch them).
* :func:`spawn_streams` — named ``SeedSequence`` spawning, so each
  concern of a schedule owns an independent stream and adding a new
  concern never shifts an existing one (the controlled-comparison
  contract).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ArraySchedule",
    "Schedule",
    "require_nonnegative",
    "require_sorted",
    "require_within",
    "spawn_streams",
]


@runtime_checkable
class Schedule(Protocol):
    """What the differential harness needs from a captured schedule."""

    def arrays(self) -> dict[str, np.ndarray]:
        """The schedule's columns, by field name."""
        ...

    def check(self, *context: Any) -> None:
        """Validate shapes/bounds against the consuming context."""
        ...


class ArraySchedule:
    """Mixin for frozen dataclasses whose fields are numpy arrays.

    Subclasses declare their columns as dataclass fields; this mixin
    supplies ``arrays()``, value-based equality (dataclass ``eq`` is
    identity-ish for arrays) and ``total_rows``.
    """

    def arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                out[field.name] = value
        return out

    @property
    def total_rows(self) -> int:
        return sum(int(column.shape[0]) for column in self.arrays().values())

    def same_as(self, other: "ArraySchedule") -> bool:
        """Element-wise equality of every array column (NaN != NaN)."""
        mine, theirs = self.arrays(), other.arrays()
        if mine.keys() != theirs.keys():
            return False
        return all(np.array_equal(mine[name], theirs[name]) for name in mine)

    def check(self, *context: Any) -> None:  # pragma: no cover - default
        """Schedules with invariants override this."""


def spawn_streams(seed: int, count: int) -> list[np.random.SeedSequence]:
    """Independent child streams of one experiment seed.

    Mirrors the spawn-per-concern layout the read service established:
    quantities drawn from different children stay identical when an
    unrelated concern changes how much randomness it consumes.
    """
    return np.random.SeedSequence(seed).spawn(count)


def require_sorted(values: np.ndarray, what: str = "events") -> None:
    """Non-decreasing order — part of every replay contract (specs replay
    through heaps, engines in array order)."""
    values = np.asarray(values)
    if values.size and np.any(np.diff(values) < 0):
        raise ValueError(f"{what} must be in time order")


def require_nonnegative(values: np.ndarray, what: str) -> None:
    """Every value ``>= 0``; NaN fails too (``np.min`` propagates it)."""
    values = np.asarray(values)
    if values.size and not float(np.min(values)) >= 0:
        raise ValueError(f"{what} must be non-negative")


def require_within(
    values: np.ndarray,
    high: float,
    what: str,
    low: float | None = 0.0,
) -> None:
    """Half-open bounds check: ``low <= values < high`` (``low=None``
    skips the lower bound)."""
    values = np.asarray(values)
    if not values.size:
        return
    if low is not None and float(np.min(values)) < low:
        raise ValueError(f"{what} must be >= {low}")
    if float(np.max(values)) >= high:
        raise ValueError(f"{what} must stay below {high}")
