"""Outside-in span tracer for the benchmark's traced mode.

The tracer wraps methods of the program's classes from the outside: it
replaces entries of the class ``__dict__`` with timing wrappers while a
traced repetition runs, and puts the originals back afterwards.  Nothing
under ``src/`` changes, and an untraced run executes the program's own
functions (see :func:`find_wrapped`, which the tests use to prove it).

Every wrapper records one span per call — name, start, end and the span
that was open when it started — and folds it into per-span call counts,
inclusive time and self time (inclusive time minus the time of the
spans it encloses).  A garbage-collector pause is a span of its own, fed
by ``gc.callbacks``, so GC time is not charged to whatever layer
happened to allocate.  Spans are kept in memory (the first
``KEEP_SPANS`` of them in full, every one of them in the aggregates) and
written out when the run ends.

Each wrapped function belongs to one *bucket*, named after the repo
module it lives in (``sim``, ``net``, ``fleet``, ``stack``, ``protocols.
<layer>``, ``core``, ``sim.monitor``, ``obs``, ``workloads``) or, for
the trace theory, after the job it does (``traces.holds``,
``traces.variants``, ``traces.composable``).  The self times of all
buckets add up to the time covered by top-level spans; the rest of the
traced wall time is the benchmark's ``other`` remainder.
"""

from __future__ import annotations

import enum
import functools
import gc
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_MODULES", "Tracer", "find_wrapped"]

#: Module -> bucket.  Every class defined in one of these modules has its
#: methods wrapped (dunder methods, properties and classmethods excepted).
LAYER_MODULES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim"),
    ("repro.runtime.sim_runtime", "sim"),
    ("repro.net.base", "net"),
    ("repro.net.ptp", "net"),
    ("repro.net.ethernet", "net"),
    ("repro.net.faults", "net"),
    ("repro.fleet.port", "fleet"),
    ("repro.fleet.manager", "fleet"),
    ("repro.fleet.pool", "fleet"),
    ("repro.stack.layer", "stack"),
    ("repro.stack.stack", "stack"),
    ("repro.stack.multiplex", "stack"),
    ("repro.stack.batching", "stack"),
    ("repro.stack.transport", "stack"),
    ("repro.stack.message", "stack"),
    ("repro.stack.membership", "stack"),
    ("repro.protocols.sequencer", "protocols.sequencer"),
    ("repro.protocols.tokenring", "protocols.tokenring"),
    ("repro.protocols.reliable", "protocols.reliable"),
    ("repro.core.base", "core"),
    ("repro.core.switch", "core"),
    ("repro.core.token_switch", "core"),
    ("repro.core.switchable", "core"),
    ("repro.core.oracle", "core"),
    ("repro.core.hybrid", "core"),
    ("repro.core.stats", "core"),
    ("repro.sim.monitor", "sim.monitor"),
    ("repro.obs.bus", "obs"),
    ("repro.obs.metrics", "obs"),
    ("repro.workloads.generator", "workloads"),
    ("repro.workloads.latency", "workloads"),
    ("repro.scenarios.signals", "workloads"),
)

#: Classes whose private methods are reached only through their own
#: public ones, so wrapping the public methods moves no time between
#: layers and keeps the per-call overhead off the hottest helpers.
PUBLIC_ONLY = frozenset({"Simulator", "EventHandle", "Message"})

#: Trace-theory entry points, wrapped per subclass: (base class, method,
#: bucket).  Helpers on ``Trace`` stay unwrapped, so their time counts
#: toward the job that called them.
TRACE_ENTRY_POINTS = (
    ("Property", "holds", "traces.holds"),
    ("Property", "explain", "traces.holds"),
    ("MetaProperty", "variants", "traces.variants"),
    ("Composable", "composable_pair", "traces.composable"),
    ("Composable", "compose", "traces.composable"),
)

#: Classes whose ``stats`` counter is read once the repetition ends.
STATS_OWNERS = (
    ("repro.net.ptp", "PointToPointNetwork", "net"),
    ("repro.net.ethernet", "EthernetNetwork", "net"),
    ("repro.fleet.port", "NodePort", "port"),
    ("repro.core.token_switch", "TokenSwitchProtocol", "sp"),
    ("repro.protocols.reliable", "ReliableLayer", "reliable"),
)

_MARK = "_perfbench_span"

#: Spans kept in full for writing out; every span counts in the totals.
KEEP_SPANS = 20000


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _classes_of(module) -> List[type]:
    return [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    ]


def find_wrapped() -> List[str]:
    """Qualified names of every class attribute a tracer wrapper holds.

    Empty whenever no :class:`Tracer` is installed.
    """
    found = []
    modules = [name for name, __ in LAYER_MODULES] + [
        "repro.traces.properties",
        "repro.traces.meta",
    ]
    for module_name in modules:
        module = importlib.import_module(module_name)
        for cls in _classes_of(module):
            for name, raw in vars(cls).items():
                func = getattr(raw, "__func__", raw)
                if getattr(func, _MARK, False):
                    found.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
    return found


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use :meth:`install` before the traced repetition builds anything (so
    every bound method the program captures is a wrapper) and
    :meth:`uninstall` in a ``finally`` right after it.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[str] = []
        self.buckets: List[str] = []
        self.calls: List[int] = []
        self.inclusive: List[float] = []
        self.self_time: List[float] = []
        self.spans: List[Tuple[int, int, float, float, int]] = []
        self.span_count = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self.stats: Dict[str, List[Any]] = defaultdict(list)
        self.gc_collections = [0, 0, 0]
        self._stack: List[List[float]] = []
        self._seq = [0]
        self._patches: List[Tuple[type, str, Any]] = []
        self._ids: Dict[str, int] = {}
        self._gc_id = self._span_id("gc.collect", "gc")
        self._gc_frame: Optional[List[float]] = None
        self._gc_start = 0.0

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _span_id(self, name: str, bucket: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = len(self.names)
            self._ids[name] = sid
            self.names.append(name)
            self.buckets.append(bucket)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
        return sid

    def _close(self, sid: int, frame: List[float], start: float, end: float) -> None:
        # Exit path of GC, generator and manual spans; the call wrapper
        # inlines the same steps, since it runs millions of times.
        elapsed = end - start
        self.calls[sid] += 1
        self.inclusive[sid] += elapsed
        self.self_time[sid] += elapsed - frame[0]
        stack = self._stack
        parent = -1
        if stack:
            stack[-1][0] += elapsed
            parent = int(stack[-1][1])
        self.span_count += 1
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((int(frame[1]), sid, start, end, parent))

    def span_fn(self, fn: Callable, name: str, bucket: str) -> Callable:
        """``fn`` wrapped so that each call records one span."""
        sid = self._span_id(name, bucket)
        clock = self.clock
        stack = self._stack
        push = stack.append
        pop = stack.pop
        seq = self._seq
        calls = self.calls
        inclusive = self.inclusive
        self_time = self.self_time
        spans = self.spans
        keep = KEEP_SPANS
        tracer = self
        counts = self.counts
        yields = f"{bucket}.yields"

        if inspect.isgeneratorfunction(fn):
            # A generator does its work in next(), not in the call that
            # creates it: one span per step.
            def traced_gen(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    index = seq[0]
                    seq[0] = index + 1
                    frame = [0.0, index]
                    start = clock()
                    push(frame)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        pop()
                        tracer._close(sid, frame, start, end)
                    counts[yields] += 1
                    yield item

            traced = traced_gen
        else:

            def traced(*args, **kwargs):
                # The frame is allocated before the clock starts: a GC
                # pause triggered by this allocation belongs to the
                # caller, not to this span.
                index = seq[0]
                seq[0] = index + 1
                frame = [0.0, index]
                start = clock()
                push(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    pop()
                    elapsed = end - start
                    calls[sid] += 1
                    inclusive[sid] += elapsed
                    self_time[sid] += elapsed - frame[0]
                    parent = -1
                    if stack:
                        top = stack[-1]
                        top[0] += elapsed
                        parent = top[1]
                    tracer.span_count += 1
                    if len(spans) < keep:
                        spans.append((index, sid, start, end, parent))

        functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, True)
        return traced

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            index = self._seq[0]
            self._seq[0] = index + 1
            self._gc_frame = [0.0, index]
            self._stack.append(self._gc_frame)
            self._gc_start = self.clock()
            return
        end = self.clock()
        frame = self._gc_frame
        if frame is None:  # collection began before install
            return
        self._gc_frame = None
        self._stack.pop()
        self._close(self._gc_id, frame, self._gc_start, end)
        self.gc_collections[info["generation"]] += 1

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, cls: type, name: str, value: Any) -> None:
        self._patches.append((cls, name, vars(cls)[name]))
        setattr(getattr(value, "__func__", value), _MARK, True)
        setattr(cls, name, value)

    def _original(self, cls: type, name: str) -> Any:
        """The attribute ``cls.__dict__[name]`` held before any patch."""
        for patched_cls, patched_name, original in self._patches:
            if patched_cls is cls and patched_name == name:
                return original
        return vars(cls)[name]

    def _wrap_method(self, cls: type, name: str, bucket: str) -> None:
        """Wrap ``cls.__dict__[name]`` if it is a function or staticmethod."""
        raw = vars(cls)[name]
        qualname = f"{bucket}:{cls.__qualname__}.{name}"
        if isinstance(raw, staticmethod):
            self._patch(cls, name, staticmethod(self.span_fn(raw.__func__, qualname, bucket)))
        elif inspect.isfunction(raw):
            self._patch(cls, name, self.span_fn(raw, qualname, bucket))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, bucket in LAYER_MODULES:
            module = importlib.import_module(module_name)
            for cls in _classes_of(module):
                if issubclass(cls, (enum.Enum, BaseException)):
                    continue
                public_only = cls.__name__ in PUBLIC_ONLY
                for name in list(vars(cls)):
                    if _is_dunder(name) or (public_only and name.startswith("_")):
                        continue
                    self._wrap_method(cls, name, bucket)
        self._install_traces()
        self._install_counters()
        gc.callbacks.append(self._on_gc)

    def _install_traces(self) -> None:
        modules = [
            importlib.import_module("repro.traces.properties"),
            importlib.import_module("repro.traces.meta"),
        ]
        classes = [cls for module in modules for cls in _classes_of(module)]
        for base_name, method, bucket in TRACE_ENTRY_POINTS:
            for cls in classes:
                bases = [base.__name__ for base in cls.__mro__]
                if base_name in bases and method in vars(cls):
                    if getattr(vars(cls)[method], "__isabstractmethod__", False):
                        continue
                    self._wrap_method(cls, method, bucket)

    def _install_counters(self) -> None:
        """Counting hooks layered under the span wrappers.

        Each reads a value the program itself keeps (or an argument it
        passes) and never alters what the wrapped call does.
        """
        counts = self.counts
        stats = self.stats

        for module_name, class_name, kind in STATS_OWNERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            init = vars(cls)["__init__"]

            def registering_init(obj, *args, _init=init, _kind=kind, **kwargs):
                _init(obj, *args, **kwargs)
                stats[_kind].append(obj.stats)

            self._patch(cls, "__init__", functools.update_wrapper(registering_init, init))

        engine = importlib.import_module("repro.sim.engine")
        step = vars(engine.Simulator)["step"]  # already a span wrapper
        pending_of = self._original(engine.Simulator, "pending")

        def counting_step(sim, _step=step):
            fired = _step(sim)
            if fired:
                counts["sim.events"] += 1
                pending = pending_of(sim)
                if pending > counts["sim.max_pending"]:
                    counts["sim.max_pending"] = pending
            return fired

        self._patch(engine.Simulator, "step", counting_step)

        generator = importlib.import_module("repro.workloads.generator")
        fire = vars(generator._SenderBase)["_fire"]

        def counting_fire(sender, _fire=fire):
            before = sender.sent
            _fire(sender)
            counts["workloads.casts"] += sender.sent - before

        self._patch(generator._SenderBase, "_fire", counting_fire)

        for module_name, class_name in (
            ("repro.net.ptp", "PtpEndpoint"),
            ("repro.net.ethernet", "EthernetEndpoint"),
        ):
            cls = getattr(importlib.import_module(module_name), class_name)
            unicast = vars(cls)["unicast"]
            multicast = vars(cls)["multicast"]

            def counting_unicast(endpoint, dst, payload, size_bytes, group=0, _send=unicast):
                counts["net.bytes"] += size_bytes
                return _send(endpoint, dst, payload, size_bytes, group)

            def counting_multicast(endpoint, dsts, payload, size_bytes, group=0, _send=multicast):
                dsts = tuple(dsts)
                counts["net.bytes"] += size_bytes * len(set(dsts))
                return _send(endpoint, dsts, payload, size_bytes, group)

            self._patch(cls, "unicast", counting_unicast)
            self._patch(cls, "multicast", counting_multicast)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    # ------------------------------------------------------------------
    # Reading the results
    # ------------------------------------------------------------------
    def span(self, name: str, bucket: str):
        """Context manager recording one span around benchmark code."""
        return _ManualSpan(self, self._span_id(name, bucket))

    def calls_of(self, name: str) -> int:
        """Calls recorded under span ``name`` (``bucket:Class.method``)."""
        sid = self._ids.get(name)
        return 0 if sid is None else self.calls[sid]

    def inclusive_of(self, name: str) -> float:
        sid = self._ids.get(name)
        return 0.0 if sid is None else self.inclusive[sid]

    def bucket_calls(self, bucket: str) -> int:
        return sum(c for b, c in zip(self.buckets, self.calls) if b == bucket)

    def bucket_self(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for bucket, spent in zip(self.buckets, self.self_time):
            totals[bucket] += spent
        return dict(totals)

    def stat_total(self, kind: str, *keys: str) -> int:
        return sum(counter.get(key) for counter in self.stats[kind] for key in keys)

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (id, name, start, end, parent)."""
        with open(path, "w") as handle:
            for index, sid, start, end, parent in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": int(index),
                            "name": self.names[sid],
                            "start": start,
                            "end": end,
                            "parent": int(parent),
                        }
                    )
                    + "\n"
                )


class _ManualSpan:
    def __init__(self, tracer: Tracer, sid: int) -> None:
        self.tracer = tracer
        self.sid = sid

    def __enter__(self) -> "_ManualSpan":
        tracer = self.tracer
        index = tracer._seq[0]
        tracer._seq[0] = index + 1
        self.frame = [0.0, index]
        self.start = tracer.clock()
        tracer._stack.append(self.frame)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = self.tracer.clock()
        self.tracer._stack.pop()
        self.tracer._close(self.sid, self.frame, self.start, end)
