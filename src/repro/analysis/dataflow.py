"""Intraprocedural reaching-definitions/taint lattice for reprolint.

The whole-program rules (RL009 seed provenance above all) need to answer
one question about an expression: *where could this value have come
from?*  This module supplies the small dataflow engine behind that
answer.  It is deliberately a lattice of provenance classes, not a full
abstract interpreter:

``SEEDED``
    flows from a sanctioned entropy source — a seed-like parameter of
    the enclosing function, a seed-named attribute (``config.seed``,
    ``self.failure_seed``), or a seed factory (``SeedSequence``,
    ``spawn_streams``, ``.spawn()``).
``CONST``
    built purely from literals — the hidden-constant-seed bug class.
``UNKNOWN``
    cannot be traced to either (module globals of other files, opaque
    external calls with no seeded argument).
``Param(i)``
    symbolic: the i-th parameter of the function under summary.
``CallTaint(name, args)``
    a call to a project function, unresolved until the whole-program
    phase looks the callee's summary up in the ProjectGraph.
``Join(parts)``
    a value mixed from several of the above (``helper(x) + seed``),
    kept symbolic so resolution can still find the sanctioned part.

Evaluation is a forward walk of the function body in source order:
assignments bind names to taint trees, branches evaluate both arms and
join per-name, loops bind their target to the element taint of the
iterable.  The join is *optimistic for mixtures* (``seed + 99`` stays
SEEDED: constant offsets on a threaded seed are the documented
derivation idiom) and *pessimistic for absences* (a value no sanctioned
source ever reaches is CONST or UNKNOWN, both of which RL009 reports).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

__all__ = [
    "CONST",
    "SEEDED",
    "UNKNOWN",
    "CallTaint",
    "Join",
    "Param",
    "TaintEvaluator",
    "dotted_name",
    "is_seed_name",
    "join",
    "resolve_taint",
]

#: Names that count as sanctioned seed carriers when they appear as
#: parameters or attributes: the threading vocabulary the repo settled
#: on in PRs 3/5/8 (``seed``, ``rng``, ``*_seed``, ``seed_*``, ``*_rng``,
#: ``*_ss``, spawned-stream locals).  Case-sensitive on purpose: a
#: module-level ``DEFAULT_SEED = 42`` constant is exactly the hidden
#: literal seed the rule exists to flag.
_SEED_NAME = re.compile(
    r"^(seed|seeds|rng|rngs|entropy|seed_sequence|ss)$"
    r"|_seed$|^seed_|_rng$|_rngs$|_ss$|_streams$|_entropy$"
)

#: Callables whose *result* is sanctioned entropy-shaped state; whether
#: the entropy itself is sanctioned is decided by their arguments.
_SEED_FACTORIES = frozenset(
    {"SeedSequence", "default_rng", "spawn_streams", "spawn", "generate_state"}
)

#: Builtins/conversions that pass provenance straight through their
#: arguments (``int(seed)``, ``abs(seed)``...).
_TRANSPARENT_CALLS = frozenset(
    {"int", "float", "abs", "min", "max", "round", "sum", "tuple", "list", "sorted"}
)


def is_seed_name(name: str) -> bool:
    """Does ``name`` read as a threaded seed/rng carrier?"""
    return bool(_SEED_NAME.search(name))


def dotted_name(func: ast.expr) -> str:
    """Dotted name of an attribute/name chain, '' for anything else."""
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return ""


# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Atom:
    label: str

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return self.label


SEEDED = _Atom("SEEDED")
CONST = _Atom("CONST")
UNKNOWN = _Atom("UNKNOWN")


@dataclass(frozen=True)
class Param:
    """Symbolic reference to parameter ``index`` of the summarized
    function (``name`` kept for seed-name matching at resolution)."""

    index: int
    name: str


@dataclass(frozen=True)
class CallTaint:
    """A call whose provenance depends on the callee's summary.

    ``callee`` is the name as written at the call site until fact
    extraction qualifies it to ``module:symbol``; unqualifiable names
    (builtins, externals) stay plain and resolve from their arguments.
    """

    callee: str
    args: tuple[object, ...]


@dataclass(frozen=True)
class Join:
    """A value mixed from several symbolic parts, none of them already
    known-SEEDED.  Kept un-collapsed so resolution can still discover a
    sanctioned component inside a summary or call argument."""

    parts: tuple[object, ...]


Taint = object  # _Atom | Param | CallTaint | Join


def join(*parts: Taint) -> Taint:
    """Combine the component taints of one value.

    Sanctioned entropy anywhere makes the whole value sanctioned
    (``seed + 99``, ``[0xFA11, int(seed)]``).  Constants dissolve into
    any symbolic part (offsets don't change provenance).  Multiple
    symbolic parts stay a :class:`Join` for later resolution.
    """
    flat: list[Taint] = []
    for part in parts:
        if part is SEEDED:
            return SEEDED
        if isinstance(part, Join):
            flat.extend(part.parts)
        else:
            flat.append(part)
    symbolic: list[Taint] = []
    for part in flat:
        if isinstance(part, (Param, CallTaint)) and part not in symbolic:
            symbolic.append(part)
    if not symbolic:
        if any(part is UNKNOWN for part in flat):
            return UNKNOWN
        return CONST
    if len(symbolic) == 1 and not any(part is UNKNOWN for part in flat):
        return symbolic[0]
    if any(part is UNKNOWN for part in flat):
        symbolic.append(UNKNOWN)
    return Join(tuple(symbolic))


# ---------------------------------------------------------------------------
# Intraprocedural evaluation
# ---------------------------------------------------------------------------


class TaintEvaluator:
    """Forward reaching-definitions walk over one function (or module)
    scope, producing an environment rules can query expression taint in.

    Parameters bind to symbolic :class:`Param` leaves, so the scope's
    :meth:`summary` can be applied at any call site.
    ``call_hook(node, taints)`` fires for every evaluated call with its
    argument taints — fact extraction uses it to record
    ``default_rng``/``spawn_streams`` sites with the env as of that
    program point.
    """

    def __init__(
        self,
        scope: ast.AST,
        *,
        outer_env: Mapping[str, Taint] | None = None,
        call_hook: Callable[[ast.Call, list], None] | None = None,
    ):
        self.env: dict[str, Taint] = dict(outer_env or {})
        self._returns: list[Taint] = []
        self._call_hook = call_hook
        args = getattr(scope, "args", None)
        if args is not None:
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            for index, name in enumerate(names):
                self_like = name in ("self", "cls")
                self.env[name] = UNKNOWN if self_like else Param(index, name)
        self._walk(getattr(scope, "body", []))

    # -- statement walk ----------------------------------------------------

    def _walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(stmt, "value", None)
            if value is None:
                return
            taint = self.eval(value)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(stmt, ast.AugAssign) and isinstance(target, ast.Name):
                    taint = join(self.env.get(target.id, UNKNOWN), taint)
                self._bind(target, taint)
        elif isinstance(stmt, ast.Return):
            self._returns.append(CONST if stmt.value is None else self.eval(stmt.value))
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self._walk(stmt.body)
            then_env = self.env
            self.env = dict(before)
            self._walk(stmt.orelse)
            self.env = self._join_envs(then_env, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self.eval(stmt.iter))
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint)
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes summarize separately
        else:
            # Expr / Assert / Raise / Delete ... — nothing binds, but the
            # expressions must still be evaluated so the call hook sees
            # sites like a bare ``run(default_rng(seed))`` statement.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    @staticmethod
    def _join_envs(a: dict[str, Taint], b: dict[str, Taint]) -> dict[str, Taint]:
        merged = dict(a)
        for name, taint in b.items():
            merged[name] = join(a[name], taint) if name in a else taint
        return merged

    def _bind(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Unpacking distributes the source taint to every name:
            # ``a, b = SeedSequence(seed).spawn(2)`` seeds both.
            for element in target.elts:
                self._bind(element, taint)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.eval(target.value)  # mutates an object, binds no name

    # -- expression evaluation ---------------------------------------------

    def eval(self, node: ast.expr) -> Taint:
        """Provenance class of one expression under the current env."""
        if isinstance(node, ast.Constant):
            return CONST
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            # Free variable (closure/global): trust the naming contract.
            return SEEDED if is_seed_name(node.id) else UNKNOWN
        if isinstance(node, ast.Attribute):
            if is_seed_name(node.attr):
                return SEEDED  # config.failure_seed, self.seed, args.seed
            base = self.eval(node.value)
            return base if base is SEEDED else UNKNOWN
        if isinstance(node, ast.Subscript):
            self.eval(node.slice)
            return self.eval(node.value)
        if isinstance(node, ast.BinOp):
            return join(self.eval(node.left), self.eval(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            return join(*(self.eval(v) for v in node.values))
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return join(*(self.eval(e) for e in node.elts)) if node.elts else CONST
        if isinstance(node, ast.Dict):
            parts = [self.eval(v) for v in node.values if v is not None]
            parts += [self.eval(k) for k in node.keys if k is not None]
            return join(*parts) if parts else CONST
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return join(*(self.eval(gen.iter) for gen in node.generators))
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comparator in node.comparators:
                self.eval(comparator)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value)
            self._bind(node.target, taint)
            return taint
        return UNKNOWN

    def _eval_call(self, node: ast.Call) -> Taint:
        name = dotted_name(node.func)
        tail = name.rsplit(".", 1)[-1] if name else ""
        if not tail and isinstance(node.func, ast.Attribute):
            # Chained receivers (``SeedSequence(seed).spawn(n)``) defeat
            # dotted_name; the method name alone still identifies
            # factories and transparents.
            tail = node.func.attr
        arg_taints = [self.eval(a) for a in node.args] + [
            self.eval(k.value) for k in node.keywords
        ]
        base: Taint | None = None
        if isinstance(node.func, ast.Attribute):
            # Evaluating the base also visits chained inner calls like
            # ``SeedSequence(seed).spawn(n)`` so the hook records them.
            base = self.eval(node.func.value)
        if self._call_hook is not None:
            self._call_hook(node, list(arg_taints))
        if tail in _SEED_FACTORIES:
            # The factory's output carries the provenance of everything
            # fed in: its arguments and (for method-form factories like
            # ``ss.spawn(n)``) the receiver itself.
            parts = list(arg_taints)
            if base is not None:
                parts.append(base)
            return join(*parts) if parts else CONST
        if tail in _TRANSPARENT_CALLS:
            return join(*arg_taints) if arg_taints else CONST
        if name and "." not in name:
            # Plain-name call: defer to the whole-program phase, which
            # resolves it through the import graph to a summary.
            return CallTaint(callee=name, args=tuple(arg_taints))
        if base is SEEDED:
            # Method calls on seeded objects keep their provenance
            # (``rng.integers(...)``, ``ss.entropy``).
            return SEEDED
        if any(t is SEEDED for t in arg_taints):
            return SEEDED
        return UNKNOWN

    def summary(self) -> Taint:
        """The scope's interprocedural summary: the joined taint of every
        ``return`` expression, with :class:`Param` leaves symbolic."""
        return join(*self._returns) if self._returns else CONST


# ---------------------------------------------------------------------------
# Whole-program resolution
# ---------------------------------------------------------------------------

#: Call-chain depth cap: the rules promise one call-graph level, but
#: summaries themselves may return calls; a small cap keeps resolution
#: linear and terminating on recursive helpers.
_MAX_DEPTH = 4


def resolve_taint(taint: Taint, lookup, depth: int = _MAX_DEPTH) -> Taint:
    """Collapse a taint tree to an atom using function summaries.

    ``lookup(callee)`` returns the summary (return taint) of a
    qualified project function (None when external/unresolvable).
    Unresolvable calls fall back to the join of their argument taints —
    an external transformation of a seeded value stays seeded, while an
    external call fed only constants is UNKNOWN (it cannot *create*
    sanctioned entropy).
    """
    if isinstance(taint, _Atom):
        return taint
    if isinstance(taint, Param):
        # A parameter still symbolic at resolution time is a value
        # threaded into the function under analysis; seed-like names are
        # the sanctioned carriers, everything else is untraceable.
        return SEEDED if is_seed_name(taint.name) else UNKNOWN
    if isinstance(taint, Join):
        parts = [resolve_taint(p, lookup, depth) for p in taint.parts]
        if any(p is SEEDED for p in parts):
            return SEEDED
        if parts and all(p is CONST for p in parts):
            return CONST
        return UNKNOWN
    if isinstance(taint, CallTaint):
        args = tuple(resolve_taint(a, lookup, depth) for a in taint.args)
        summary = lookup(taint.callee) if depth > 0 else None
        if summary is None:
            if any(a is SEEDED for a in args):
                return SEEDED
            return UNKNOWN
        return resolve_taint(_apply_summary(summary, args), lookup, depth - 1)
    return UNKNOWN


def _apply_summary(summary: Taint, args: tuple) -> Taint:
    """Substitute call-site argument taints into a summary's return."""

    def substitute(taint: Taint) -> Taint:
        if isinstance(taint, Param):
            if taint.index < len(args):
                return args[taint.index]
            # Defaulted parameter: seed-like names default sanctioned
            # (the default is part of the function's own contract),
            # anything else defaults to a literal — CONST.
            return SEEDED if is_seed_name(taint.name) else CONST
        if isinstance(taint, CallTaint):
            return CallTaint(
                callee=taint.callee, args=tuple(substitute(a) for a in taint.args)
            )
        if isinstance(taint, Join):
            return join(*(substitute(p) for p in taint.parts))
        return taint

    return substitute(summary)
