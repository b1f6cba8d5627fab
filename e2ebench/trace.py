"""Outside-in span recorder for e2ebench.

Nothing under ``src/`` knows it is being traced: every span is recorded
here, by wrapping *public* callables of the repo at the namespaces that
hold them (class attributes for methods, every ``repro.*`` module
global that is the function for module-level functions) and restoring
them afterwards.  Callbacks that cross a layer boundary as an argument
of a public call (``Simulation.schedule_at``'s callback,
``HadoopCluster.read_blocks``' ``on_done``/``on_fail``, ...) run inside
a span named after the module that *defines* them, which is what lets
event-driven work be attributed to the layer that owns it.

A span is ``(name id, start ns, end ns, parent id)`` in preallocated
``array`` columns; ids are handed out at entry, rows are written at
exit.  Nothing is reduced while the workload runs — :class:`SpanTable`
computes self times, counts and percentiles afterwards.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Iterable

import numpy as np

__all__ = ["SpanTable", "Tracer", "install"]

_MISSING = object()


class Tracer:
    """Span storage plus the wrapper factories that fill it."""

    def __init__(self, capacity: int = 1 << 20):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._owner_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._grow(capacity)
        # [next span id, id of the span currently open (-1 at top level)]
        self._state = [0, -1]
        self._record = self._make_record()

    # -- storage ---------------------------------------------------------------

    def _grow(self, rows: int) -> None:
        # In place, so closures holding the columns stay valid.
        for column in (self._name, self._parent, self._start, self._end):
            column.frombytes(bytes(rows * column.itemsize))

    def _make_record(self):
        """The row writer every wrapper shares: columns bound once."""
        name_col, parent_col = self._name, self._parent
        start_col, end_col = self._start, self._end
        grow = self._grow

        def record(index: int, name: int, start: int, end: int, parent: int) -> None:
            try:
                end_col[index] = end
            except IndexError:
                grow(max(index + 1 - len(end_col), len(end_col)))
                end_col[index] = end
            name_col[index] = name
            parent_col[index] = parent
            start_col[index] = start

        return record

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    @property
    def span_count(self) -> int:
        return self._state[0]

    def table(self) -> "SpanTable":
        count = self._state[0]
        return SpanTable(
            list(self.names),
            np.frombuffer(self._name, dtype=np.int32, count=count).copy(),
            np.frombuffer(self._start, dtype=np.int64, count=count).copy(),
            np.frombuffer(self._end, dtype=np.int64, count=count).copy(),
            np.frombuffer(self._parent, dtype=np.int32, count=count).copy(),
        )

    # -- wrappers --------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        callback_params: Iterable[str] = (),
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` running inside a span called ``name``.

        ``callback_params`` names parameters of ``fn`` that carry
        callables handed across the layer boundary; each is replaced by
        :meth:`callback` of itself.  ``after(args, result)`` runs once
        the span has closed (for sampling public counters).
        """
        name_id = self.name_id(name)
        state = self._state
        record = self._record
        positions = _positions(fn, callback_params)
        wrap_callback = self.callback

        def traced(*args, **kwargs):
            if positions:
                args = _swap(positions, wrap_callback, args, kwargs)
            index = state[0]
            state[0] = index + 1
            parent = state[1]
            state[1] = index
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                state[1] = parent
                record(index, name_id, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _owner_id(self, fn: Callable, prefix: str) -> int:
        """Name id of ``<prefix>:<module defining fn>`` (cached per module)."""
        module = getattr(fn, "e2ebench_owner", None) or getattr(fn, "__module__", None)
        key = f"{prefix}:{(module or 'unknown').rpartition('.')[2]}"
        found = self._owner_ids.get(key)
        if found is None:
            found = self._owner_ids[key] = self.name_id(key)
        return found

    def callback(self, fn: Callable | None) -> Callable | None:
        """``fn`` running inside a ``cb:<defining module>`` span."""
        if fn is None or hasattr(fn, "e2ebench_owner"):
            return fn
        name_id = self._owner_id(fn, "cb")
        state = self._state
        record = self._record

        def run(*args):
            index = state[0]
            state[0] = index + 1
            parent = state[1]
            state[1] = index
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                end = perf_counter_ns()
                state[1] = parent
                record(index, name_id, start, end, parent)

        run.e2ebench_owner = fn.__module__
        return run

    def wrap_event_loop(self, step: Callable, schedule_at: Callable):
        """One span per simulated event, named after the callback's module.

        Returns replacements for ``Simulation.step`` and
        ``Simulation.schedule_at``.  A full span around ``step`` *and*
        around the callback would cost two spans and a timed closure per
        event; instead the scheduled callback only notes who owns it and
        the ``step`` span takes that as its name (``event:<module>``).
        The heap pop is thereby counted with the event's owner — about a
        microsecond in events that take a hundred.
        """
        state = self._state
        record = self._record
        owner = [self.name_id("event:none")]
        idle = owner[0]
        owner_id = self._owner_id

        def traced_step(sim):
            index = state[0]
            state[0] = index + 1
            parent = state[1]
            state[1] = index
            owner[0] = idle
            start = perf_counter_ns()
            try:
                return step(sim)
            finally:
                end = perf_counter_ns()
                state[1] = parent
                record(index, owner[0], start, end, parent)

        def tagging_schedule_at(sim, time, callback, name=None):
            name_id = owner_id(callback, "event")

            def run():
                owner[0] = name_id
                callback()

            return schedule_at(sim, time, run, name=name)

        return traced_step, tagging_schedule_at

    def root(self, name: str) -> "_Root":
        """Context manager: one top-level span around a timed public call."""
        return _Root(self, self.name_id(name))


class _Root:
    def __init__(self, tracer: Tracer, name_id: int):
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self) -> None:
        state = self._tracer._state
        self._index = state[0]
        state[0] += 1
        self._parent = state[1]
        state[1] = self._index
        self._start = perf_counter_ns()

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        self._tracer._state[1] = self._parent
        self._tracer._record(
            self._index, self._name_id, self._start, end, self._parent
        )


def _positions(fn: Callable, params: Iterable[str]) -> list[tuple[str, int]]:
    params = tuple(params)
    if not params:
        return []
    names = list(inspect.signature(fn).parameters)
    return [(param, names.index(param)) for param in params]


def _swap(positions, wrap_callback, args: tuple, kwargs: dict) -> list:
    """``args`` (and ``kwargs``, in place) with the callbacks wrapped."""
    args = list(args)
    for param, index in positions:
        if index < len(args):
            args[index] = wrap_callback(args[index])
        elif param in kwargs:
            kwargs[param] = wrap_callback(kwargs[param])
    return args


class SpanTable:
    """Recorded spans as numpy columns, with the reductions metrics need."""

    def __init__(self, names, name, start, end, parent):
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent],
            weights=self.duration[has_parent],
            minlength=name.size,
        )
        #: Duration minus the part of it child spans cover.
        self.self_time = self.duration - covered
        self._index = {n: i for i, n in enumerate(names)}
        size = len(names)
        self._count = np.bincount(name, minlength=size)
        self._inclusive = np.bincount(name, weights=self.duration, minlength=size)
        self._self = np.bincount(name, weights=self.self_time, minlength=size)

    def __len__(self) -> int:
        return int(self.name.size)

    def _ids(self, names: Iterable[str]) -> list[int]:
        """Ids of the named spans; a trailing ``*`` matches a prefix."""
        found = []
        for name in names:
            if name.endswith("*"):
                found += [i for n, i in self._index.items() if n.startswith(name[:-1])]
            elif name in self._index:
                found.append(self._index[name])
        return found

    def count(self, *names: str) -> int:
        return int(sum(self._count[i] for i in self._ids(names)))

    def inclusive_s(self, *names: str) -> float:
        """Summed durations (a span nested in a same-named one counts twice)."""
        return float(sum(self._inclusive[i] for i in self._ids(names))) / 1e9

    def self_s(self, *names: str) -> float:
        return float(sum(self._self[i] for i in self._ids(names))) / 1e9

    def toplevel_s(self, name: str, under: str) -> float:
        """Summed durations of ``name`` spans whose parent is not ``under``."""
        ids = self._ids((name,))
        if not ids:
            return 0.0
        mask = self.name == ids[0]
        outer = self._ids((under,))
        if outer:
            parent_name = np.where(
                self.parent >= 0, self.name[np.maximum(self.parent, 0)], -1
            )
            mask &= parent_name != outer[0]
        return float(self.duration[mask].sum()) / 1e9

    def percentile_us(self, name: str, q: float) -> float:
        durations = self.duration[np.isin(self.name, self._ids((name,)))]
        return float(np.percentile(durations, q)) / 1e3 if durations.size else 0.0

    def root_self_s(self) -> float:
        """Self time of the top-level spans: time no wrapped layer owns."""
        return float(self.self_time[self.parent < 0].sum()) / 1e9

    def root_s(self) -> float:
        return float(self.duration[self.parent < 0].sum()) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per span name, largest first."""
        order = np.argsort(-self._self)
        return {
            self.names[i]: float(self._self[i]) / 1e9
            for i in order.tolist()
            if self._count[i]
        }

    def dump_chrome(self, path: str) -> None:
        """Write Chrome trace-event JSON; one ``tid`` per top-level span."""
        run = np.arange(self.name.size)
        has_parent = self.parent >= 0
        # Parents precede children, so ids resolve in one forward sweep.
        for index in np.flatnonzero(has_parent).tolist():
            run[index] = run[self.parent[index]]
        origin = int(self.start.min()) if self.start.size else 0
        events = [
            {
                "name": self.names[n],
                "ph": "X",
                "ts": (s - origin) / 1e3,
                "dur": d / 1e3,
                "pid": 0,
                "tid": r,
            }
            for n, s, d, r in zip(
                self.name.tolist(),
                self.start.tolist(),
                self.duration.tolist(),
                run.tolist(),
            )
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class Patches:
    """Every attribute :func:`install` replaced, and how to put it back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        #: Public counters sampled by ``after`` hooks while tracing.
        self.samples = {"peak_active_flows": 0, "distinct_patterns": 0}

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _patch_method(patches: Patches, tracer: Tracer, cls, attr, name, **options) -> None:
    raw = vars(cls).get(attr, _MISSING)
    if isinstance(raw, classmethod):
        wrapped = classmethod(tracer.wrap(raw.__func__, name, **options))
    else:
        # Inherited methods are wrapped on the subclass and removed on
        # restore, leaving the base class untouched.
        wrapped = tracer.wrap(getattr(cls, attr), name, **options)
    patches.set(cls, attr, wrapped)


def _patch_function(patches: Patches, tracer: Tracer, module, attr, name) -> None:
    original = getattr(module, attr)
    wrapped = tracer.wrap(original, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, key, wrapped)


def install(tracer: Tracer) -> Patches:
    """Wrap the public layer boundaries; ``Patches.restore()`` undoes it.

    Import every module a workload touches *before* calling this: a
    ``from x import f`` executed later would bind the wrapper for good.
    """
    from repro.cluster import blockfixer, degraded, failures, flownet, hdfs
    from repro.cluster import mapreduce, namenode, readservice, sim
    from repro.codes import engine, xorplane
    from repro.experiments import degraded as degraded_experiment  # noqa: F401
    from repro.experiments import runner
    from repro.galois import bitplane, linalg

    patches = Patches()

    def method(cls, attr, name, **options):
        _patch_method(patches, tracer, cls, attr, name, **options)

    def function(module, attr, name):
        _patch_function(patches, tracer, module, attr, name)

    function(runner, "build_loaded_cluster", "runner.build_loaded_cluster")
    function(runner, "run_until_quiescent", "runner.run_until_quiescent")

    cluster = hdfs.HadoopCluster
    method(cluster, "create_file", "hdfs.create_file")
    method(cluster, "raid_all_instant", "hdfs.raid_all_instant")
    method(cluster, "read_blocks", "hdfs.read_blocks",
           callback_params=("on_done", "on_fail"))
    method(cluster, "write_block", "hdfs.write_block",
           callback_params=("on_done", "on_fail"))
    method(cluster, "choose_repair_target", "hdfs.choose_repair_target")

    node = namenode.NameNode
    method(node, "placement_candidates", "namenode.placement_candidates")
    method(node, "place_stripe", "namenode.place_stripe")
    method(node, "repair_queue", "namenode.repair_queue")
    method(node, "kill_node", "namenode.kill_node")
    method(node, "detect_failures", "namenode.detect_failures")

    step, schedule_at = tracer.wrap_event_loop(
        sim.Simulation.step, sim.Simulation.schedule_at
    )
    patches.set(sim.Simulation, "step", step)
    patches.set(sim.Simulation, "schedule_at", schedule_at)

    def sample_flows(args, _result):
        active = args[0].active_flow_count
        if active > patches.samples["peak_active_flows"]:
            patches.samples["peak_active_flows"] = active

    # Completion callbacks are not spanned (a span per flow costs more
    # than the few hdfs closure lines it would move out of flownet).
    method(flownet.FlowTable, "start_transfer", "flownet.start_transfer",
           after=sample_flows)
    method(flownet.FlowTable, "abort_node", "flownet.abort_node")

    method(mapreduce.JobTracker, "submit", "mapreduce.submit")
    method(mapreduce.JobTracker, "handle_node_death", "mapreduce.handle_node_death")
    method(mapreduce.MapReduceJob, "take_task", "mapreduce.take_task")

    method(blockfixer.BlockFixer, "scan", "blockfixer.scan")
    method(blockfixer.PayloadRepairBatch, "schedule", "blockfixer.batch_schedule")
    for task in (blockfixer.LightRepairTask, blockfixer.StripeRepairTask):
        method(task, "execute", "blockfixer.task_execute",
               callback_params=("finish",))
    method(failures.FailureInjector, "kill", "failures.kill")

    codec = engine.CodecEngine
    method(codec, "encode_stripes", "codec.encode_stripes")
    method(codec, "reconstruct", "codec.reconstruct")
    method(codec, "repair_stripes", "codec.repair_stripes")
    method(codec, "decode_stripes", "codec.decode_stripes")
    method(engine.RepairPlanner, "plan_block", "planner.plan_block")
    method(engine.RepairPlanner, "plan_stripe", "planner.plan_stripe")
    function(xorplane, "compile_xor_schedule", "codec.compile_xor_schedule")
    method(xorplane.XorSchedule, "apply", "codec.xor_apply")

    function(linalg, "gf_matmul_batch", "galois.gf_matmul_batch")
    function(linalg, "gf_inv", "galois.gf_inv")
    function(bitplane, "pack_bitplanes", "galois.pack_bitplanes")
    function(bitplane, "unpack_bitplanes", "galois.unpack_bitplanes")

    def sample_patterns(args, _result):
        patches.samples["distinct_patterns"] += args[0].distinct_patterns

    method(readservice.ReadSchedule, "draw", "readservice.draw_schedule")
    function(degraded, "draw_placement", "readservice.draw_placement")
    method(readservice.OutageWindows, "is_up", "readservice.is_up")
    method(readservice.ReadServiceEngine, "run", "readservice.run",
           after=sample_patterns)
    method(degraded.ReadServiceStats, "from_arrays", "readservice.stats")
    return patches
