"""The spec/engine registry: which oracle checks which implementation.

Every vectorized subsystem keeps its scalar seed implementation alive
as the executable specification — a test-only oracle, never a
production option.  Each pair is declared once (in
:mod:`~repro.difftest.pairs`) as an :class:`EnginePair` of dotted
names.  Reprolint's RL003 and the README "Spec/engine pairs" table read
the same declarations.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnginePair"]


@dataclass(frozen=True)
class EnginePair:
    """One subsystem's scalar-spec / vectorized-engine pairing."""

    subsystem: str
    spec: str  # dotted name of the scalar specification
    engine: str  # dotted name of the vectorized engine
