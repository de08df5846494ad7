"""Host-clock layer tracer, applied to the program from outside.

The traced pass of the benchmark answers "which layer of *this* stack
does a host second go to".  Nothing in ``src/`` knows about it: the
tracer replaces class attributes with timing wrappers before the system
is built (each traced pass is its own process, so nothing is restored).

A span is one call that crosses into a layer: (layer, function, start,
end, parent span, request id).  A call from a layer into itself opens no
span -- it cannot change the attribution -- and is only counted.  A
layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of all layers sum to the root span (the
timed region).  Three kinds of call sites are wrapped:

- the engine's two heap sinks, ``Engine.schedule_at`` and
  ``Engine._push_chain_abs`` (every ``schedule``/``schedule_chain``/
  ``ChainBuilder.commit`` ends in one of them; ``QueuePair.post_write``
  calls the private one directly, which is why it is wrapped rather
  than ``schedule_chain``): the callback is re-routed through the
  tracer's dispatcher, so when the engine later runs it, it runs inside
  a span of the module that *defines* the callback;
- ``Cpu.submit`` and every cluster's ``submit``: the continuation /
  commit callback they are handed is re-routed the same way;
- the public entry points of each layer, listed in :func:`_entry_points`.

Where a flattened hot path skips a wrapped entry point, the time stays
with the calling layer; ``README.md`` lists the known cases.

Spans are timed with ``perf_counter_ns`` (wall): two clock reads per
span is the floor on tracing overhead, and ``process_time`` costs a
syscall per read.  The wrappers are closures over plain lists because
their own cost is what ``harness.trace_overhead_ratio`` reports.
"""

from __future__ import annotations

import json
from time import perf_counter_ns as _clock
from typing import Any, Callable, Optional

#: Layer names are this repo's modules; ``other`` is everything not
#: named (``sim.disk``, ``sim.failure``, ``apps``, ``harness``, and the
#: benchmark's own driver code in the root span).
LAYERS = ("sim.engine", "sim.process", "rdma", "net.tcp", "protocols",
          "core", "workloads", "shard", "monitors", "obs", "other")
_L = {name: name for name in LAYERS}    # canonical objects: frames compare with `is`

_MODULE_LAYERS = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.process", "sim.process"),
    ("repro.rdma", "rdma"),
    ("repro.net", "net.tcp"),
    ("repro.protocols", "protocols"),
    ("repro.core", "core"),
    ("repro.workloads", "workloads"),
    ("workloads", "workloads"),     # the benchmark's AckTimedClosedLoop
    ("repro.shard", "shard"),
    ("repro.monitors", "monitors"),
    ("repro.obs", "obs"),
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module's code is charged to."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return _L[layer]
    return _L["other"]


def request_id(obj: Any) -> Optional[int]:
    """The client request a payload or wire carrier belongs to.

    The workload clients name requests ``("cl", i)`` / ``("ol", i[,
    key])``; Acuerdo wraps them in a ``Message`` and the TCP protocols
    in ``(KIND, ..., payload)`` tuples."""
    for _ in range(3):
        if isinstance(obj, tuple):
            if len(obj) >= 2 and obj[0] in ("cl", "ol") and isinstance(obj[1], int):
                return obj[1]
            if not obj:
                return None
            obj = obj[-1]
        else:
            obj = getattr(obj, "payload", None)
            if obj is None:
                return None
    return None


# Online aggregate of one wrapped function, as a list for speed.
_CALLS, _SELF, _LAYER, _NAME = range(4)
# Tracer state, one shared list: when the running span last changed,
# the running span's aggregate, and its kept record (-1: not kept).
_LAST, _CUR, _REC = range(3)


class _Routed:
    """A commit callback that runs through the dispatcher when called."""

    __slots__ = ("dispatch", "fn")

    def __init__(self, dispatch: Callable, fn: Callable):
        self.dispatch = dispatch
        self.fn = fn

    def __call__(self, x: Any) -> Any:
        return self.dispatch(self.fn, (x,))


class HostTracer:
    """Installs the wrappers, accumulates per-function aggregates online
    and keeps the first ``keep_spans`` spans of the timed region.

    Time is charged by *switching*: entering or leaving a span reads the
    clock once and charges the interval since the last switch to the
    span that was running.  Every nanosecond of the timed region is so
    charged to exactly one function, which is the self-time definition
    (duration minus what child spans cover) without per-span frames."""

    def __init__(self, keep_spans: int = 100_000):
        self.keep_spans = keep_spans
        #: kept spans: [layer, function, start, end, parent index, request]
        self.spans: list[list] = []
        self._keeping = False
        self._stats: dict[Any, list] = {}
        # Outside the timed region time is charged to a throwaway
        # aggregate whose layer matches nothing.
        self._state: list = [0, [0, 0, None, "outside"], -1]
        self._root_t0 = 0
        self.root_ns = 0
        self._dispatch = self._make_dispatch()

    # ------------------------------------------------------------ wrappers

    def _stat(self, key: Any, layer: str, name: str) -> list:
        st = self._stats.get(key)
        if st is None:
            st = self._stats[key] = [0, 0, _L[layer], name]
        return st

    def _keep(self, st: list, t0: int, rid_of: Any) -> int:
        """Start a kept record under the running span; returns its index."""
        spans = self.spans
        spans.append([st[_LAYER], st[_NAME], t0, t0, self._state[_REC],
                      request_id(rid_of)])
        if len(spans) >= self.keep_spans:
            self._keeping = False
        return len(spans) - 1

    def _span(self, st: list, fn: Callable, rid_arg: Optional[int] = None) -> Callable:
        """``fn`` inside a span of ``st``'s layer (pass-through when the
        caller is already in that layer)."""
        tracer, state, spans, layer = self, self._state, self.spans, st[_LAYER]

        def wrapper(*args, **kwargs):
            st[_CALLS] += 1
            caller = state[_CUR]
            if caller[_LAYER] is layer:
                return fn(*args, **kwargs)
            t = _clock()
            caller[_SELF] += t - state[_LAST]
            state[_LAST] = t
            state[_CUR] = st
            rec = -1
            if tracer._keeping:
                caller_rec = state[_REC]
                state[_REC] = rec = tracer._keep(
                    st, t, args[rid_arg] if rid_arg is not None
                    and len(args) > rid_arg else None)
            try:
                return fn(*args, **kwargs)
            finally:
                t = _clock()
                st[_SELF] += t - state[_LAST]
                state[_LAST] = t
                state[_CUR] = caller
                if rec >= 0:
                    spans[rec][3] = t
                    state[_REC] = caller_rec

        wrapper.__wrapped__ = fn
        return wrapper

    def _make_dispatch(self) -> Callable:
        """The callable re-routed callbacks are scheduled as: runs
        ``fn(*args)`` inside a span of the module that defines ``fn``."""
        tracer, state, spans, stats = self, self._state, self.spans, self._stats

        def resolve(fn):
            code = getattr(fn, "__code__", None)
            return tracer._stat(
                code if code is not None else type(fn),
                layer_of_module(getattr(fn, "__module__", None)),
                getattr(fn, "__qualname__", type(fn).__name__))

        # Same body as _span's wrapper, spelled out again: the aggregate
        # is only known per call here, and one more Python call per
        # event is what the overhead ratio is made of.
        def dispatch(fn, args):
            try:
                st = stats[fn.__code__]
            except (KeyError, AttributeError):
                if type(fn) is _Routed:     # opens its own span when called
                    return fn(*args)
                st = resolve(fn)
            st[_CALLS] += 1
            caller = state[_CUR]
            if caller[_LAYER] is st[_LAYER]:
                return fn(*args)
            t = _clock()
            caller[_SELF] += t - state[_LAST]
            state[_LAST] = t
            state[_CUR] = st
            rec = -1
            if tracer._keeping:
                caller_rec = state[_REC]
                state[_REC] = rec = tracer._keep(st, t, None)
            try:
                return fn(*args)
            finally:
                t = _clock()
                st[_SELF] += t - state[_LAST]
                state[_LAST] = t
                state[_CUR] = caller
                if rec >= 0:
                    spans[rec][3] = t
                    state[_REC] = caller_rec

        return dispatch

    # -------------------------------------------------------- installation

    def _patch(self, cls: type, name: str,
               make: Callable[[list, Callable], Callable]) -> None:
        orig = cls.__dict__[name]
        st = self._stat((cls, name), layer_of_module(cls.__module__),
                        f"{cls.__name__}.{name}")
        setattr(cls, name, make(st, orig))

    def install(self) -> None:
        """Replace the class attributes.  Call before the system is
        built: constructors cache bound methods."""
        from repro.sim.engine import Engine
        from repro.sim.process import Cpu

        dispatch = self._dispatch

        def schedule_at(st, orig):
            inner = self._span(st, orig)
            return lambda eng, when, fn, *args: inner(eng, when, dispatch, fn, args)

        def push_chain(st, orig):
            inner = self._span(st, orig)
            return lambda eng, steps, dynamic=False: inner(
                eng, [(t, dispatch, (fn, args)) for t, fn, args in steps], dynamic)

        def cpu_submit(st, orig):
            inner = self._span(st, orig)
            return lambda cpu, cost_ns, fn, *args: inner(
                cpu, cost_ns, dispatch, fn, args)

        def cluster_submit(st, orig):
            inner = self._span(st, orig, 1)

            def submit(system, payload, size_bytes, on_commit=None):
                if on_commit is not None:
                    on_commit = _Routed(dispatch, on_commit)
                return inner(system, payload, size_bytes, on_commit)

            return submit

        for cls, name, rid_arg in _entry_points():
            self._patch(cls, name,
                        lambda st, orig, r=rid_arg: self._span(st, orig, r))
        self._patch(Engine, "schedule_at", schedule_at)
        self._patch(Engine, "_push_chain_abs", push_chain)
        self._patch(Cpu, "submit", cpu_submit)
        for cls in _cluster_classes():
            self._patch(cls, "submit", cluster_submit)

    # ------------------------------------------------------- timed region

    def begin_region(self) -> None:
        """Zero the aggregates (set-up ran through the wrappers too) and
        open the root span."""
        for st in self._stats.values():
            st[_CALLS] = st[_SELF] = 0
        self.spans.clear()
        self._keeping = self.keep_spans > 0
        root = self._stat("root", "other", "bench.timed_region")
        root[_CALLS] = 1
        state = self._state
        self._outside = state[_CUR]
        state[_CUR] = root
        state[_REC] = -1
        self._root_t0 = state[_LAST] = _clock()
        if self._keeping:
            state[_REC] = self._keep(root, self._root_t0, None)

    def end_region(self) -> None:
        t = _clock()
        state = self._state
        state[_CUR][_SELF] += t - state[_LAST]
        state[_LAST] = t
        state[_CUR] = self._outside
        self._keeping = False
        self.root_ns = t - self._root_t0
        if self.spans:
            self.spans[0][3] = t

    # -------------------------------------------------------------- output

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for st in self._stats.values():
            out[st[_LAYER]] += st[_SELF]
        return out

    def calls(self, *names: str) -> int:
        """Calls of the wrapped functions with these ``Class.method``
        names (every class, for a bare ``.method`` suffix)."""
        return sum(st[_CALLS] for st in self._stats.values()
                   if any(st[_NAME] == n or (n[0] == "." and st[_NAME].endswith(n))
                          for n in names))

    def functions(self) -> list[dict]:
        """Per-function aggregates.  ``calls`` counts every call;
        ``self_us`` is charged to the function whose span was running,
        so a function only ever called from its own layer shows 0."""
        rows = [{"layer": st[_LAYER], "function": st[_NAME], "calls": st[_CALLS],
                 "self_us": st[_SELF] / 1e3}
                for st in self._stats.values() if st[_CALLS]]
        rows.sort(key=lambda r: -r["self_us"])
        return rows

    def write(self, path: str, header: dict) -> None:
        """Write aggregates and the kept spans (times in ns from the
        root span's start; ``parent`` indexes ``spans``, -1 for none)."""
        t0 = self._root_t0
        doc = dict(header)
        doc["root_us"] = self.root_ns / 1e3
        doc["layer_self_us"] = {k: v / 1e3 for k, v in self.layer_self_ns().items()}
        doc["functions"] = self.functions()
        doc["span_fields"] = ["layer", "function", "start_ns", "end_ns",
                              "parent", "request"]
        doc["spans"] = [[layer, fn, a - t0, b - t0, parent, rid]
                        for layer, fn, a, b, parent, rid in self.spans]
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
            f.write("\n")


def _subclasses(base: type) -> list[type]:
    out, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        out.append(cls)
    return out


def _cluster_classes() -> list[type]:
    """Every concrete ``BroadcastSystem`` that defines ``submit``."""
    import repro.harness.factory  # noqa: F401  (imports every cluster class)
    from repro.protocols.base import BroadcastSystem

    return [c for c in _subclasses(BroadcastSystem) if "submit" in c.__dict__]


def _entry_points() -> list[tuple[type, str, Optional[int]]]:
    """(class, method, index of the payload argument or None) for the
    public entry points of each layer."""
    import repro.harness.factory  # noqa: F401
    from repro.monitors import MonitorRegistry
    from repro.net.tcp import TcpEndpoint, TcpNetwork
    from repro.obs.spans import SpanRecorder
    from repro.rdma.fabric import RdmaFabric
    from repro.rdma.nic import Nic
    from repro.rdma.qp import QueuePair
    from repro.rdma.ringbuffer import RingBuffer, RingReceiver
    from repro.rdma.sst import SharedStateTable
    from repro.shard import ShardedDeployment, ShardRouter
    from repro.sim.engine import Engine
    from repro.sim.process import Process
    from repro.workloads.closedloop import ClosedLoopClient
    from repro.workloads.openloop import OpenLoopClient

    points: list[tuple[type, str, Optional[int]]] = [
        (Engine, "run", None),
        (Process, "doorbell", None), (Process, "request_poll", None),
        (Process, "wake", None),
        (QueuePair, "post_write", 4), (SharedStateTable, "push", None),
        (RingBuffer, "try_send", 1), (RingReceiver, "poll", None),
        (RdmaFabric, "send", 3), (RdmaFabric, "broadcast", 3),
        (RdmaFabric, "write", 6), (Nic, "occupy_tx", None),
        (TcpNetwork, "send", 3), (TcpNetwork, "broadcast", 3),
        (TcpEndpoint, "deliver", 2), (TcpEndpoint, "drain", None),
        (ShardedDeployment, "submit_keyed", 2), (ShardRouter, "shard_of", None),
        (MonitorRegistry, "note", None), (MonitorRegistry, "ingest", None),
        (MonitorRegistry, "finish", None),
        (SpanRecorder, "begin", 1), (SpanRecorder, "bind", 2),
        (SpanRecorder, "mark", 1), (SpanRecorder, "finish", 1),
        (ClosedLoopClient, "start", None), (ClosedLoopClient, "stop", None),
        (OpenLoopClient, "start", None), (OpenLoopClient, "stop", None),
    ]
    points += [(c, "on_poll", None) for c in _subclasses(Process)
               if "on_poll" in c.__dict__]
    return points
