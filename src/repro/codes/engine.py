"""The batched codec engine: cached decode matrices + vectorised repair.

The paper's evaluation is about *which blocks* a repair reads, but a
simulator that verifies every rebuilt byte also cares how fast the field
arithmetic runs: a cluster losing a node presents the *same* erasure
pattern for thousands of stripes.  :class:`DecoderCache` memoises, per
survival bitmask, the chosen survivor columns and the precomputed
reconstruction matrix (a second one holds each pattern's row
classification and, once the plane wins a call, its compiled XOR
schedule); :class:`CodecEngine` applies those matrices to whole batches
of stripes through one dispatch, priced per call by its slab size — the
compiled XOR plane where it wins, else the gather kernel
:func:`~repro.galois.linalg.gf_matmul_batch` — reading each survivor
slab where it lies, never stacking the inputs; and
:class:`RepairPlanner` is the single light-vs-heavy planning contract
every scheme exposes to the cluster layer (the selection logic that used
to live inside the BlockFixer tasks), keyed on the int pattern bitmasks
the metadata plane, the daemons and the read service hand it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..galois import gf_inv, gf_matmul, gf_matmul_batch
from .base import DecodingError, RepairPlan, mask_of, positions_of
from .xorplane import RowClasses, XorSchedule, classify_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .base import ErasureCode
    from .linear import LinearCode

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DecoderCache",
    "CodecEngine",
    "EngineStats",
    "RepairDecision",
    "RepairPlanner",
]

DEFAULT_CACHE_SIZE = 256


class DecoderCache:
    """LRU cache of per-erasure-pattern decoding artefacts.

    Keys are survival bitmasks (plus a tag for what is being cached);
    values are whatever the builder produced — chosen survivor
    columns with their reconstruction matrix, or a row classification
    with its compiled XOR schedule.  Bounded LRU so adversarial pattern
    streams cannot grow memory without limit (the values are matrices
    and programs).
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries")

    _MISSING = object()  # sentinel: builders may legitimately return None

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError("cache needs room for at least one pattern")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def lookup(self, key: Hashable, build: Callable[[], object]):
        """Return the cached value for ``key``, building it on a miss."""
        entry = self._entries.get(key, self._MISSING)
        if entry is not self._MISSING:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        self.misses += 1
        value = build()  # exceptions propagate; failures are not cached
        self._entries[key] = value
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class EngineStats:
    """Counters describing one engine's life so far."""

    encode_calls: int
    stripes_encoded: int
    reconstruct_calls: int
    stripes_reconstructed: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_size: int
    schedule_hits: int = 0
    schedule_misses: int = 0
    schedule_evictions: int = 0
    schedule_size: int = 0
    xor_plane_calls: int = 0
    xor_plane_stripes: int = 0
    gather_calls: int = 0
    gather_stripes: int = 0

    def __str__(self) -> str:
        return (
            f"encode: {self.encode_calls} calls / {self.stripes_encoded} stripes; "
            f"reconstruct: {self.reconstruct_calls} calls / "
            f"{self.stripes_reconstructed} stripes; "
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses, "
            f"{self.cache_evictions} evictions; "
            f"schedules: {self.schedule_hits} hits, {self.schedule_misses} misses, "
            f"{self.xor_plane_calls} XOR-plane calls / {self.xor_plane_stripes} "
            f"stripes, {self.gather_calls} gather calls / {self.gather_stripes} stripes"
        )


class CodecEngine:
    """Batched encode/decode for one :class:`~repro.codes.linear.LinearCode`.

    The engine owns the code's :class:`DecoderCache` and turns the three
    per-stripe hot-path operations into batch operations:

    * ``encode_stripes`` — one batched product for any number of
      stripes;
    * ``reconstruct`` — rebuild a set of lost blocks for a whole batch of
      stripes with one cached ``(lost, survivors)`` reconstruction matrix
      and one batched product;
    * ``repair_stripes`` — light-decoder-first single-block repair across
      a batch, falling back to ``reconstruct``.

    Each product goes through :meth:`_run`, the one plane-or-gather
    dispatch, which prices every call by its slab size.

    All arithmetic is the exact field algebra of the seed scalar codec,
    so the outputs are byte-identical to :mod:`repro.spec.codec`.
    """

    def __init__(self, code: "LinearCode", cache_size: int = DEFAULT_CACHE_SIZE):
        self.code = code
        self.field = code.field
        self.cache = DecoderCache(cache_size)
        # Row classifications (and compiled XOR schedules), keyed like
        # ``cache`` so a node failure that plans once also compiles once.
        self.schedules = DecoderCache(cache_size)
        self.encode_calls = 0
        self.stripes_encoded = 0
        self.reconstruct_calls = 0
        self.stripes_reconstructed = 0
        self.xor_plane_calls = 0
        self.xor_plane_stripes = 0
        self.gather_calls = 0
        self.gather_stripes = 0

    # -- the one dispatch ----------------------------------------------------

    def _rows(self, key, build_matrix: Callable[[], np.ndarray]) -> RowClasses:
        """The pattern's row classification, built on first sight."""
        return self.schedules.lookup(key, lambda: classify_rows(self.field, build_matrix()))

    def _schedule(self, key, build_matrix, symbols: int) -> XorSchedule | None:
        """The schedule if the plane wins a call over ``symbols`` symbols per
        input slab, else ``None`` (:meth:`~repro.codes.xorplane.RowClasses.route`)."""
        return self._rows(key, build_matrix).route(symbols)

    def _run(self, key, build_matrix: Callable[[], np.ndarray], slabs) -> np.ndarray:
        """``build_matrix() @ slabs`` for a whole batch, on the plane or gather route.

        Every engine call lands here with its cache key, the builder of its
        coefficient matrix and one survivor slab per matrix column, read
        where it lies (see :func:`~repro.galois.linalg.gf_slabs`).
        """
        schedule = self._schedule(key, build_matrix, len(slabs) and np.size(slabs[0]))
        if schedule is None:
            out = gf_matmul_batch(self.field, build_matrix(), slabs)
            self.gather_calls += 1
            self.gather_stripes += out.shape[0]
            return out
        out = schedule.apply(slabs)
        self.xor_plane_calls += 1
        self.xor_plane_stripes += out.shape[0]
        return out

    def _rebuilt(self, out: np.ndarray) -> np.ndarray:
        """Count one decode/rebuild call over ``out``'s stripes."""
        self.reconstruct_calls += 1
        self.stripes_reconstructed += out.shape[0]
        return out

    def encode_schedule(self) -> XorSchedule:
        """The compiled encode program (for introspection; compiled on first use)."""
        return self._rows(("encode",), lambda: self.code.generator.T).compiled()

    # -- encoding -----------------------------------------------------------

    def encode_stripes(self, data3d: np.ndarray) -> np.ndarray:
        """Encode a ``(stripes, k, width)`` batch into ``(stripes, n, width)``."""
        data3d = np.asarray(data3d, dtype=self.field.dtype)
        if data3d.ndim != 3 or data3d.shape[1] != self.code.k:
            raise ValueError(
                f"expected a (stripes, {self.code.k}, width) batch, "
                f"got shape {data3d.shape}"
            )
        self.encode_calls += 1
        self.stripes_encoded += data3d.shape[0]
        return self._run(
            ("encode",), lambda: self.code.generator.T, data3d.transpose(1, 0, 2)
        )

    # -- cached decode/reconstruction matrices ------------------------------

    def decode_matrix(self, survivors: int) -> tuple[tuple[int, ...], np.ndarray]:
        """Survivor columns + the matrix recovering the data from them.

        Returns ``(chosen, M)`` with ``chosen`` the greedily selected
        independent survivor positions (same selection as the seed
        decoder: sorted order, accept any rank-increasing column) and
        ``M = (G[:, chosen]^T)^-1`` so that ``data = M @ stacked``.
        Cached per ``survivors``, a survival bitmask (``mask_of``).
        """
        return self.cache.lookup(
            ("decode", survivors), lambda: self._build_decode(survivors)
        )

    def _require_positions(self, positions: Iterable[int]) -> None:
        """A negative position would alias a generator column from the end."""
        for p in positions:
            if not 0 <= p < self.code.n:
                raise ValueError(f"block position {p} out of range [0, {self.code.n})")

    def _survivors(self, available: Iterable[int]) -> int:
        """The survival bitmask the caches key on, of in-range positions."""
        available = tuple(available)
        self._require_positions(available)
        return mask_of(available)

    def _build_decode(self, survivors: int) -> tuple[tuple[int, ...], np.ndarray]:
        code = self.code
        indices = list(positions_of(survivors))
        if len(indices) < code.k:
            raise DecodingError(
                f"{len(indices)} blocks available, at least {code.k} required"
            )
        chosen = code._independent_columns(indices)
        if chosen is None:
            raise DecodingError(
                f"available blocks do not span the data space (indices={indices})"
            )
        matrix = gf_inv(self.field, code.generator[:, chosen].T)
        return tuple(chosen), matrix

    def reconstruction_matrix(
        self, lost: tuple[int, ...], survivors: int
    ) -> tuple[tuple[int, ...], np.ndarray]:
        """Survivor columns + the matrix rebuilding ``lost`` from them.

        ``R = G[:, lost]^T @ M`` maps stacked survivors straight to the
        lost blocks, folding decode and re-encode into one product.
        Cached per ``(lost, survivors)``.
        """

        def build() -> tuple[tuple[int, ...], np.ndarray]:
            self._require_positions(lost)
            chosen, decode = self.decode_matrix(survivors)
            rebuild = gf_matmul(
                self.field, self.code.generator[:, list(lost)].T, decode
            )
            return chosen, rebuild

        return self.cache.lookup(("reconstruct", lost, survivors), build)

    # -- batched decode / repair --------------------------------------------

    def decode_stripes(self, available: Mapping[int, np.ndarray]) -> np.ndarray:
        """Recover the data blocks of a whole batch: ``(stripes, k, width)``."""
        survivors = self._survivors(available.keys())
        chosen, matrix = self.decode_matrix(survivors)
        return self._rebuilt(self._run(
            ("decode", survivors), lambda: matrix, [available[p] for p in chosen]
        ))

    def reconstruct(
        self, lost: Sequence[int], available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild the ``lost`` blocks for every stripe in the batch.

        ``available`` maps survivor position to a ``(stripes, width)``
        slab (or a single ``(width,)`` payload).  Returns
        ``(stripes, len(lost), width)``, byte-identical to decoding and
        re-encoding each stripe with the seed codec.
        """
        lost = tuple(int(p) for p in lost)
        survivors = self._survivors(available.keys())
        chosen, rebuild = self.reconstruction_matrix(lost, survivors)
        return self._rebuilt(self._run(
            ("reconstruct", lost, survivors),
            lambda: rebuild,
            [available[p] for p in chosen],
        ))

    def repair_stripes(
        self, lost: int, available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Light-first single-block repair across a batch: ``(stripes, width)``.

        Uses the cheapest feasible light plan and falls back to the
        cached heavy reconstruction.
        """
        plan = self.code.light_plan(lost, self._survivors(available.keys()))
        if plan is None:
            return self.reconstruct((lost,), available)[:, 0, :]
        return self.execute_plan_stripes(plan, available)

    def execute_plan_stripes(
        self, plan: RepairPlan, available: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Apply one repair plan to every stripe of a batch at once.

        A plan is the 1-row matrix of its coefficients over its sources,
        so it takes the one dispatch too: an LRC local group (all
        coefficients 1) compiles to a single word row of the XOR plane, a
        Pyramid light plan's field coefficients stay on the gather kernel
        until the slabs are large enough to pay for slicing.
        """
        return self._rebuilt(self._run(
            ("plan", plan),
            lambda: np.asarray([plan.coefficients], dtype=self.field.dtype),
            [available[p] for p in plan.sources],
        ))[:, 0, :]

    # -- introspection ------------------------------------------------------

    def stats(self) -> EngineStats:
        cache = self.cache.stats()
        schedules = self.schedules.stats()
        return EngineStats(
            encode_calls=self.encode_calls,
            stripes_encoded=self.stripes_encoded,
            reconstruct_calls=self.reconstruct_calls,
            stripes_reconstructed=self.stripes_reconstructed,
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            cache_evictions=cache["evictions"],
            cache_size=cache["size"],
            schedule_hits=schedules["hits"],
            schedule_misses=schedules["misses"],
            schedule_evictions=schedules["evictions"],
            schedule_size=schedules["size"],
            xor_plane_calls=self.xor_plane_calls,
            xor_plane_stripes=self.xor_plane_stripes,
            gather_calls=self.gather_calls,
            gather_stripes=self.gather_stripes,
        )

    def __repr__(self) -> str:
        return f"CodecEngine({self.code!r}, cached_patterns={len(self.cache)})"


@dataclass(frozen=True)
class RepairDecision:
    """One planning outcome: how (and whether) a repair can run.

    ``kind`` is ``"light"`` (a local plan's sources suffice),
    ``"heavy"`` (full decode over the survivors) or ``"loss"`` (the
    pattern is undecodable).  ``sources`` lists the *readable* positions
    the repair streams in — light plans keep plan order, heavy repairs
    read every readable survivor in sorted order.
    """

    kind: str
    lost: tuple[int, ...]
    sources: tuple[int, ...]
    plan: RepairPlan | None = None

    @property
    def feasible(self) -> bool:
        return self.kind != "loss"

    @property
    def light(self) -> bool:
        return self.kind == "light"

    @property
    def num_reads(self) -> int:
        return len(self.sources)


class RepairPlanner:
    """The one light-vs-heavy planning contract all schemes expose.

    The selection logic that used to be replicated inside the BlockFixer
    tasks, the degraded-read service, the scrubber and the decommission
    manager now lives here.  Erasure patterns arrive as int bitmasks
    (:func:`~repro.codes.base.mask_of`): given the *usable* mask
    (readable blocks plus known-zero padding) and the *readable* mask
    (what physically exists on live nodes), decide light plan / heavy
    decode / data loss.  The cluster's scalar decisions are memoised in a
    plain dict keyed ``(lost, usable, readable)``, so a node failure
    hitting thousands of same-shaped stripes plans once; ``hits``/``misses``
    count lookups.  :meth:`plan_reads` decides a whole array of patterns
    in one call, by the same rule and without the memo.
    """

    def __init__(self, code: "ErasureCode"):
        self.code = code
        self.hits = 0
        self.misses = 0
        self._memo: dict[tuple, RepairDecision] = {}

    def _lookup(self, key: tuple, decide: Callable[[], RepairDecision]) -> RepairDecision:
        decision = self._memo.get(key)
        if decision is None:
            self.misses += 1
            decision = self._memo[key] = decide()  # a raising decide caches nothing
        else:
            self.hits += 1
        return decision

    def plan_block(
        self, lost: int, usable: int, readable: int | None = None
    ) -> RepairDecision:
        """Plan the repair of one block given the surviving pattern."""
        lost = int(lost)
        usable &= ~(1 << lost)
        if readable is None:
            readable = usable
        return self._lookup(
            (lost, usable, readable),
            lambda: self._decide_block(lost, usable, readable),
        )

    def plan_reads(self, lost, usable) -> np.ndarray:
        """Blocks read to serve each ``lost`` position under each ``usable``
        mask, as an int64 array: the cheapest light plan's ``num_reads``,
        ``code.k`` for a heavy decode, ``-1`` for data loss.

        The batched form of :meth:`plan_block`'s outcome for int64 arrays
        of positions and survival bitmasks (stripes of up to 63 blocks):
        every plan's source mask is tested against every usable mask at
        once, and the patterns no light plan fits go through one
        :meth:`~repro.codes.base.ErasureCode.decodable` call.
        """
        lost = np.asarray(lost, dtype=np.int64)
        usable = np.asarray(usable, dtype=np.int64) & ~(np.int64(1) << lost)
        sources, reads = self._plan_arrays
        fits = (sources[lost] & ~usable[:, None]) == 0
        out = np.where(fits, reads[lost], self.code.n).min(axis=1, initial=self.code.n)
        heavy = ~fits.any(axis=1)
        out[heavy] = np.where(self.code.decodable(usable[heavy]), self.code.k, -1)
        return out

    @cached_property
    def _plan_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The code's light plans as ``(n, plans)`` int64 arrays of source
        masks and read counts; a ``-1`` mask pads a short row (no usable
        mask holds every bit)."""
        plans = self.code.light_plans
        width = max(map(len, plans))
        sources = np.full((self.code.n, width), -1, dtype=np.int64)
        reads = np.zeros((self.code.n, width), dtype=np.int64)
        for lost, row in enumerate(plans):
            for j, (mask, plan) in enumerate(row):
                sources[lost, j] = mask
                reads[lost, j] = plan.num_reads
        return sources, reads

    def _decide_block(self, lost: int, usable: int, readable: int) -> RepairDecision:
        plan = self.code.light_plan(lost, usable)
        if plan is None:
            return self._decide_heavy((lost,), usable, readable)
        return RepairDecision(
            kind="light",
            lost=(lost,),
            sources=tuple(p for p in plan.sources if readable >> p & 1),
            plan=plan,
        )

    def _decide_heavy(
        self, lost: tuple[int, ...], usable: int, readable: int
    ) -> RepairDecision:
        if self.code.decodable([usable])[0]:
            return RepairDecision(
                kind="heavy", lost=lost, sources=positions_of(readable)
            )
        return RepairDecision(kind="loss", lost=lost, sources=())

    def plan_stripe(
        self, missing: int, usable: int, readable: int | None = None
    ) -> RepairDecision:
        """Plan a whole-stripe repair (the HDFS-RS BlockFixer unit)."""
        usable &= ~missing
        if readable is None:
            readable = usable
        return self._lookup(
            ("stripe", missing, usable, readable),
            lambda: self._decide_heavy(positions_of(missing), usable, readable),
        )
