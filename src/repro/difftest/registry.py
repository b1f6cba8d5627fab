"""The spec/engine registry: which oracle checks which implementation.

Every vectorized subsystem keeps its scalar seed implementation alive
as the executable specification — a test-only oracle, never a
production option.  Each pair is declared once (in
:mod:`~repro.difftest.pairs`) as an :class:`EnginePair` of dotted
names.  Reprolint's RL002/RL003 and the README "Spec/engine pairs" table
read the same declarations.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["EnginePair"]


@dataclass(frozen=True)
class EnginePair:
    """One subsystem's scalar-spec / vectorized-engine pairing."""

    subsystem: str
    spec: str  # dotted name of the scalar specification
    engine: str  # dotted name of the vectorized engine

    @property
    def spec_symbol(self) -> str:
        """Terminal symbol of the spec's dotted name ("" for a module)."""
        return _split_dotted(self.spec)[1]

    @property
    def engine_module(self) -> str:
        return _split_dotted(self.engine)[0]

    @property
    def engine_symbol(self) -> str:
        """Terminal symbol of the engine's dotted name ("" for a module)."""
        return _split_dotted(self.engine)[1]


@lru_cache(maxsize=None)
def _split_dotted(dotted: str) -> tuple[str, str]:
    """Split ``pkg.mod.Symbol.attr`` into (module, terminal symbol).

    The longest importable prefix is the module; the final remaining
    component is the symbol (``""`` when the dotted name is itself a
    module).  Used by reprolint's RL002/RL003 to anchor registrations to
    concrete classes/functions without importing the target modules.
    """
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        try:
            spec = importlib.util.find_spec(candidate)
        except (ImportError, ValueError):
            continue
        if spec is not None:
            return candidate, parts[-1] if end < len(parts) else ""
    return "", parts[-1]
