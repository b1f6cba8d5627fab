"""The per-file reprolint rules (RL001, RL006).

Each rule encodes one determinism or conformance contract the repo
learned the hard way (DESIGN.md "Enforced invariants" names the PR or
bug class behind each).  Whole-program rules — RL003 plus the v2
dataflow rules RL009–RL011 — live in :mod:`repro.analysis.project`; the
single source of truth for the full rule set is
:mod:`repro.analysis.registry`.
"""

from __future__ import annotations

import ast
import re

from .core import LintContext, Rule

__all__ = [
    "FILE_RULES",
    "FILE_RULE_CLASSES",
]


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call's function, '' when not a plain name chain."""
    parts: list[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return ""


# --------------------------------------------------------------------------
# RL001: RNG discipline (global-state entry points)
# --------------------------------------------------------------------------

#: Stdlib ``random`` entry points that read or mutate hidden global state.
_RANDOM_GLOBAL_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)


class RngDisciplineRule(Rule):
    """RL001: no hidden global RNG state.

    Flags, inside ``src/repro`` only, stdlib ``random.*`` global-state
    functions and legacy ``np.random.<fn>`` calls — ambient state that
    no config seed can reach.  (Seedless and literal-seeded
    ``default_rng`` calls, RL001's old syntactic check, are now the
    strictly stronger RL009 dataflow rule's job.)
    """

    code = "RL001"
    description = (
        "RNG discipline: no stdlib random.* or legacy np.random.* "
        "global-state calls in src/repro; every Generator comes from "
        "default_rng/spawn_streams with a threaded seed (see RL009)"
    )
    contract = (
        "Inside src/repro, never call stdlib random.* functions or legacy "
        "np.random.<fn> module-level functions: both draw from hidden "
        "global state that no config seed controls, so runs are not "
        "reproducible and parallel workers silently share streams."
    )
    example_bad = "delay = random.uniform(0.0, jitter)"
    example_good = "delay = rng.uniform(0.0, jitter)  # rng threaded from config seed"
    escape = "# reprolint: disable=RL001 on the call line"

    def visit_Call(self, context: LintContext, node: ast.Call) -> None:
        name = _call_name(node)
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _RANDOM_GLOBAL_FNS:
            context.report(
                self.code,
                node,
                f"stdlib {name}() uses hidden global RNG state; use a "
                "seeded np.random.Generator instead",
            )
        elif (
            len(parts) >= 2
            and parts[-2] == "random"
            and parts[0] in ("np", "numpy")
            and parts[-1] in _RANDOM_GLOBAL_FNS
        ):
            context.report(
                self.code,
                node,
                f"legacy {name}() draws from numpy's global state; use a "
                "seeded np.random.Generator instead",
            )


# --------------------------------------------------------------------------
# RL006: config-validation coverage
# --------------------------------------------------------------------------

_GUARDED_FIELD = re.compile(r"rate|duration|timeout|bandwidth|latency|rtt")
_CONFIG_CLASS = re.compile(r"(Config|Parameters|Topology|Link)$")
_NUMERIC_ANNOTATION = re.compile(r"\b(int|float)\b")


class ConfigValidationRule(Rule):
    """RL006: a rate/duration/timeout knob nobody validates is a latent
    ZeroDivisionError (the PR 5 ``outage_rate_per_node`` bug class).

    For every dataclass in ``src/repro`` that defines ``validate()``,
    each numeric field whose name matches the guarded patterns must be
    referenced (``self.<field>``) somewhere in ``validate``.  A
    config-like dataclass (``*Config``/``*Parameters``/``*Topology``/
    ``*Link``) carrying guarded numeric fields with no ``validate()`` at
    all is flagged once at the class line.
    """

    code = "RL006"
    description = (
        "config validation: numeric dataclass-config fields named like "
        "*_rate*/*_duration*/*_timeout* (also bandwidth/latency/rtt) must be "
        "referenced by the config's validate()"
    )
    contract = (
        "Every numeric dataclass-config field whose name matches "
        "rate/duration/timeout/bandwidth/latency/rtt must be referenced "
        "by the config's validate() method; config-like dataclasses with "
        "guarded fields and no validate() at all are flagged.  Degenerate "
        "values (0 rates, negative durations) must fail fast, not surface "
        "as ZeroDivisionError mid-simulation."
    )
    example_bad = (
        "@dataclass(frozen=True)\n"
        "class LinkConfig:\n"
        "    drain_rate: float = 1.0  # validate() never checks it"
    )
    example_good = (
        "def validate(self):\n"
        "    if self.drain_rate <= 0:\n"
        "        raise ValueError('drain_rate must be positive')"
    )
    escape = "# reprolint: disable=RL006 on the field (or class) line"

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = _call_name(ast.Call(func=target, args=[], keywords=[]))
            if name.rsplit(".", 1)[-1] == "dataclass":
                return True
        return False

    def visit_ClassDef(self, context: LintContext, node: ast.ClassDef) -> None:
        if not self._is_dataclass(node):
            return
        guarded: list[tuple[str, ast.AnnAssign]] = []
        validate: ast.FunctionDef | None = None
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                annotation = ast.unparse(stmt.annotation)
                if "ClassVar" in annotation:
                    continue
                if _GUARDED_FIELD.search(name) and _NUMERIC_ANNOTATION.search(
                    annotation
                ):
                    guarded.append((name, stmt))
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "validate":
                validate = stmt
        if not guarded:
            return
        if validate is None:
            if _CONFIG_CLASS.search(node.name):
                context.report(
                    self.code,
                    node,
                    f"config dataclass {node.name} has guarded numeric "
                    f"fields ({', '.join(name for name, _ in guarded)}) "
                    "but no validate() method",
                )
            return
        referenced = {
            sub.attr
            for sub in ast.walk(validate)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        }
        for name, field_node in guarded:
            if name not in referenced:
                context.report(
                    self.code,
                    field_node,
                    f"{node.name}.{name} is never referenced in "
                    "validate(): degenerate values (0, negatives) reach "
                    "the simulation unchecked",
                )


#: Per-file rule classes in code order (the registry composes these with
#: the project rules; keep this the only hand-maintained list here).
FILE_RULE_CLASSES: tuple[type[Rule], ...] = (
    RngDisciplineRule,
    ConfigValidationRule,
)


def FILE_RULES() -> list[Rule]:
    """Fresh instances of every per-file rule (they carry no state, but
    fresh construction keeps fixture tests isolated)."""
    return [cls() for cls in FILE_RULE_CLASSES]
