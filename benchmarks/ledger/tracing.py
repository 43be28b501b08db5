"""Span tracing for the ledger's ``--trace`` repetition.

Everything here is installed *from this file*: nothing under ``src/``
knows it is being traced.  Three kinds of measurement are combined:

* the already-public engine profile (``obs_profile=True``): wall time
  and event count per callback category, plus the loop's end-to-end
  wall, whose difference is the ``sim`` layer's own overhead;
* class-level span wrappers around the calls that cross a layer
  boundary inside one engine callback -- ``receive``/``app_arrival`` on
  every transport agent, ``Interface.send``, ``PacketQueue.enqueue``/
  ``dequeue``, the flow/forensics probe entry points, and every hook
  handed to an ``add_*hook`` registration method by another layer.  A
  span's self time is its duration minus its child spans;
* whole spans around each cell (``Scenario(config)``, ``Scenario.run()``,
  ``run_fluid_scenario``) and around the ledger's own calls.

A *layer* is a top-level package under ``src/repro/``.  The layer of a
profile category (``"ClassName.method"``) is found by looking the class
up in the imported ``repro.*`` package tree -- there is no hand-kept
table, so a class that moves package moves layer with it.

Timing a span costs about as much as the cheapest calls it wraps, so
the tracer first measures its own per-span and per-event costs on a
no-op and books them to a ``tracing`` pseudo-layer instead of leaving
them in the layer that happened to be on the clock.

Per-event spans are aggregated in memory per (layer:function, parent);
per-cell spans are kept whole.  Pool workers are forks, so they inherit
the wrappers; a worker appends each finished cell record to
``cells.<pid>.jsonl`` in the spill directory and the parent merges the
files once the pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro.obs.engineprof import EngineProfiler, callback_category

UNKNOWN = "unknown"
#: Pseudo-layer holding the tracer's own measured bookkeeping cost.
TRACING = "tracing"

# Methods that cross a layer boundary inside one engine callback, as
# (module, class, method).  Each is wrapped on the named class and on
# every subclass in the package tree that overrides it, so the list
# names interfaces, not implementations.
BOUNDARY_METHODS = (
    ("repro.transport.base", "Agent", "receive"),
    ("repro.transport.base", "Agent", "app_arrival"),
    ("repro.net.link", "Interface", "send"),
    ("repro.net.queues", "PacketQueue", "enqueue"),
    ("repro.net.queues", "PacketQueue", "dequeue"),
    ("repro.obs.probes", "FlowProbe", "on_cwnd"),
    ("repro.obs.probes", "FlowProbe", "on_rtt"),
    ("repro.obs.probes", "FlowProbe", "on_state"),
    ("repro.forensics.probe", "ForensicsProbe", "on_flow_state"),
    ("repro.forensics.probe", "ForensicsProbe", "finalize"),
)


def _layer_of_module(module_name: Optional[str]) -> str:
    parts = (module_name or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return UNKNOWN


class LayerIndex:
    """Name -> layer lookup over the imported ``repro.*`` package tree."""

    def __init__(self) -> None:
        self.classes: List[type] = []
        self._layers: Dict[str, set] = defaultdict(set)
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != info.name:
                    continue  # re-exported from elsewhere
                if inspect.isclass(obj):
                    self.classes.append(obj)
                elif not inspect.isfunction(obj):
                    continue
                self._layers[name].add(_layer_of_module(info.name))

    def layer_of(self, category: str) -> str:
        """Layer of a profile category or qualified name (its first
        dotted component is the class, or the function, to look up)."""
        layers = self._layers.get(category.split(".", 1)[0])
        if layers is None or len(layers) != 1:
            return UNKNOWN
        return next(iter(layers))

    def overriders(self, base: type, method: str) -> List[type]:
        """``base`` and every subclass that defines ``method`` itself."""
        return [
            cls
            for cls in self.classes
            if issubclass(cls, base) and method in vars(cls)
        ]


class SpanProfiler(EngineProfiler):
    """The stock engine profiler, plus: when an event finishes, the
    spans it contained are filed under that event's category."""

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__()
        self._tracer = tracer
        self._categories: Dict[Any, str] = {}

    def note_event(self, callback, elapsed, heap_depth) -> None:
        super().note_event(callback, elapsed, heap_depth)
        if self._tracer.pending:
            key = getattr(callback, "__func__", callback)
            category = self._categories.get(key)
            if category is None:
                category = self._categories[key] = callback_category(callback)
            self._tracer.file_pending(category)


class NullTracer:
    """What the untraced repetitions use: spans cost one generator."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


class Tracer:
    """In-memory span store; see the module docstring."""

    def __init__(self, spill_dir: str) -> None:
        self.index = LayerIndex()
        self.spill_dir = spill_dir
        self.owner_pid = os.getpid()
        self.clock = time.perf_counter
        # Per-event spans: open frames [key, start, child_seconds], the
        # top-level spans closed during the current event, and the
        # aggregate (key, parent) -> [count, total_s, self_s] of the
        # current cell.
        self.stack: List[list] = []
        self.pending: List[Tuple[str, float, float]] = []
        self.agg: Dict[Tuple[str, str], list] = {}
        # Whole spans: the ledger's own calls, and one record per cell.
        self.regions: List[Dict[str, Any]] = []
        self._region_stack: List[str] = []
        self.cells: List[Dict[str, Any]] = []
        self._build_s: Dict[int, float] = {}
        self._originals: List[Tuple[Any, str, Any]] = []
        self.costs = self._calibrate()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a per-event span named ``key`` around it."""
        stack = self.stack
        pending = self.pending
        agg = self.agg
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    entry = agg.get((key, parent[0]))
                    if entry is None:
                        entry = agg[(key, parent[0])] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[2]
                else:
                    pending.append((key, duration, duration - frame[2]))

        return traced

    def file_pending(self, parent: str) -> None:
        """File the top-level spans closed since the last call under
        ``parent`` (an engine callback category or a whole-span name)."""
        agg = self.agg
        for key, duration, self_s in self.pending:
            entry = agg.get((key, parent))
            if entry is None:
                entry = agg[(key, parent)] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s
        del self.pending[:]

    def _calibrate(self, calls: int = 20000, rounds: int = 5) -> Dict[str, float]:
        """Seconds of bookkeeping per span and per profiled event,
        measured on a no-op (minimum over ``rounds``: a constant cost
        is best seen on the least disturbed round).

        ``span_in`` lands inside a span's own measured duration;
        ``span_out`` (nested span) / ``span_out_top`` (top-level span,
        which is also queued and filed) land in whatever encloses it;
        ``event`` is the profiler's per-event cost, which the engine
        profile books as loop overhead.
        """

        def noop() -> None:
            pass

        clock = self.clock
        traced = self.wrap("calibration:noop", noop)
        profiler = SpanProfiler(self)
        best = {"bare": 1.0, "in": 1.0, "nested": 1.0, "top": 1.0, "event": 1.0}
        for _ in range(rounds):
            start = clock()
            for _ in range(calls):
                noop()
            bare = (clock() - start) / calls

            self.stack.append(["calibration:parent", 0.0, 0.0])
            start = clock()
            for _ in range(calls):
                traced()
            nested = (clock() - start) / calls
            self.stack.pop()
            _, inside, _ = self.agg.pop(("calibration:noop", "calibration:parent"))

            start = clock()
            for _ in range(calls):
                traced()
                self.file_pending("calibration")
            top = (clock() - start) / calls
            self.agg.clear()

            start = clock()
            for _ in range(calls):
                began = clock()
                profiler.note_event(noop, clock() - began, 1)
            event = (clock() - start) / calls
            for name, value in (("bare", bare), ("in", inside / calls),
                                ("nested", nested), ("top", top), ("event", event)):
                best[name] = min(best[name], value)
        return {
            "span_in": max(best["in"] - best["bare"], 0.0),
            "span_out": max(best["nested"] - best["in"], 0.0),
            "span_out_top": max(best["top"] - best["in"], 0.0),
            "event": best["event"],
        }

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A whole span around one of the ledger's own calls."""
        parent = self._region_stack[-1] if self._region_stack else None
        self._region_stack.append(name)
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            self._region_stack.pop()
            self.file_pending(name)
            self.regions.append(
                {"name": name, "parent": parent, "start": start, "s": duration}
            )

    def region_seconds(self, name: str) -> float:
        return sum(r["s"] for r in self.regions if r["name"] == name)

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def _take_spans(self) -> List[list]:
        spans = [
            [key, parent, count, total, self_s]
            for (key, parent), (count, total, self_s) in self.agg.items()
        ]
        self.agg.clear()
        return spans

    def _cell_done(self, record: Dict[str, Any]) -> None:
        record["layers"], record["layer_events"] = self._split_layers(record)
        if os.getpid() == self.owner_pid:
            self.cells.append(record)
            return
        path = os.path.join(self.spill_dir, f"cells.{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def _split_layers(
        self, record: Dict[str, Any]
    ) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and engine events per layer for one cell.

        Each callback category's wall goes to its class's layer; every
        span then moves its duration out of whatever enclosed it and
        its self time into its own layer, and the tracer's calibrated
        bookkeeping cost moves to the ``tracing`` pseudo-layer.  What
        is left of the cell's whole spans -- build, collect, solver --
        is added by name.
        """
        layer_of = self.index.layer_of
        costs = self.costs
        seconds: Dict[str, float] = defaultdict(float)
        events: Dict[str, int] = defaultdict(int)
        categories = {c["category"] for c in record.get("categories", ())}
        for stat in record.get("categories", ()):
            layer = layer_of(stat["category"])
            seconds[layer] += stat["wall_time"]
            events[layer] += stat["events"]
        profiler_s = record.get("events", 0) * costs["event"]
        seconds["sim"] += record.get("loop_overhead_s", 0.0) - profiler_s
        seconds[TRACING] += profiler_s
        outside: Dict[str, float] = defaultdict(float)
        for key, parent, count, total, self_s in record.get("spans", ()):
            nested = ":" in parent
            inside_s = count * costs["span_in"]
            outside_s = count * costs["span_out" if nested else "span_out_top"]
            seconds[key.split(":", 1)[0]] += self_s - inside_s
            seconds[TRACING] += inside_s + outside_s
            if nested:  # the parent span's self time already excludes `total`
                seconds[parent.split(":", 1)[0]] -= outside_s
            elif parent in categories:
                seconds[layer_of(parent)] -= total + outside_s
            else:  # a whole span: build / run / solver
                outside[parent] += total + outside_s
        seconds["experiments"] += record.get("build_s", 0.0) - outside["build"]
        seconds["core"] += (
            record.get("collect_s", 0.0)
            - outside["run"]
            + record.get("solver_s", 0.0)
            - outside["solver"]
        )
        return dict(seconds), dict(events)

    def merge_spilled(self) -> None:
        """Read back the cell records pool workers left behind."""
        for name in sorted(os.listdir(self.spill_dir)):
            if not (name.startswith("cells.") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.spill_dir, name)
            with open(path, "r", encoding="utf-8") as handle:
                self.cells.extend(json.loads(line) for line in handle if line.strip())
            os.remove(path)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        index = self.index
        for module_name, class_name, method in BOUNDARY_METHODS:
            base = getattr(importlib.import_module(module_name), class_name)
            for cls in index.overriders(base, method):
                key = f"{_layer_of_module(cls.__module__)}:{cls.__name__}.{method}"
                self._patch(cls, method, self.wrap(key, vars(cls)[method]))
        # Observers reach into another layer through its registration
        # methods; wrap every add_*hook the tree defines.
        for cls in index.classes:
            for name, fn in list(vars(cls).items()):
                if name.startswith("add_") and name.endswith("hook") and inspect.isfunction(fn):
                    self._patch(cls, name, self._traced_registration(cls, fn))

        from repro.core import fluid_backend
        from repro.experiments.scenario import Scenario

        for cls in index.overriders(Scenario, "__init__"):
            self._patch(cls, "__init__", self._traced_build(vars(cls)["__init__"]))
        self._patch(Scenario, "run", self._traced_run(Scenario.run))
        self._patch(
            fluid_backend,
            "run_fluid_scenario",
            self._traced_fluid(fluid_backend.run_fluid_scenario),
        )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        del self._originals[:]

    def _traced_registration(self, owner: type, register: Callable) -> Callable:
        owner_layer = _layer_of_module(owner.__module__)

        @functools.wraps(register)
        def traced(target, hook, *args, **kwargs):
            hook_owner = getattr(hook, "__self__", None)
            module = type(hook_owner).__module__ if hook_owner is not None else getattr(hook, "__module__", None)
            layer = _layer_of_module(module)
            if layer != owner_layer:
                hook = self.wrap(f"{layer}:{callback_category(hook)}", hook)
            return register(target, hook, *args, **kwargs)

        return traced

    def _traced_build(self, init: Callable) -> Callable:
        tracer = self

        @functools.wraps(init)
        def traced(scenario, *args, **kwargs):
            start = tracer.clock()
            init(scenario, *args, **kwargs)
            # A subclass constructor encloses its base's; the outermost
            # one closes last and its duration wins.
            tracer._build_s[id(scenario)] = tracer.clock() - start
            tracer.file_pending("build")
            if scenario.profiler is not None and not isinstance(scenario.profiler, SpanProfiler):
                scenario.profiler = SpanProfiler(tracer)

        return traced

    def _traced_run(self, run: Callable) -> Callable:
        tracer = self

        @functools.wraps(run)
        def traced(scenario):
            start = tracer.clock()
            result = run(scenario)
            run_s = tracer.clock() - start
            tracer.file_pending("run")
            config = result.config
            record: Dict[str, Any] = {
                "label": config.label,
                "backend": config.backend,
                "n_clients": config.n_clients,
                "duration": config.duration,
                "seed": config.seed,
                "build_s": tracer._build_s.pop(id(scenario), 0.0),
                "run_s": run_s,
                "collect_s": run_s - result.wall_time,
                "spans": tracer._take_spans(),
            }
            profile = result.obs.engine if result.obs is not None else None
            if profile is not None:
                record.update(
                    sim_wall_s=profile.run_wall_time,
                    callbacks_s=profile.wall_time,
                    loop_overhead_s=profile.overhead_time,
                    events=profile.events_executed,
                    max_depth=profile.max_heap_depth,
                    categories=profile.as_dict()["categories"],
                )
            tracer._cell_done(record)
            return result

        return traced

    def _traced_fluid(self, solve: Callable) -> Callable:
        tracer = self

        @functools.wraps(solve)
        def traced(config):
            start = tracer.clock()
            result = solve(config)
            solver_s = tracer.clock() - start
            tracer.file_pending("solver")
            tracer._cell_done(
                {
                    "label": config.label,
                    "backend": config.backend,
                    "n_clients": config.n_clients,
                    "duration": config.duration,
                    "seed": config.seed,
                    "solver_s": solver_s,
                    "solver_steps": result.events_executed,
                    "spans": tracer._take_spans(),
                }
            )
            return result

        return traced

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Any]:
        """Sums over every cell recorded so far."""
        layers: Dict[str, float] = defaultdict(float)
        events: Dict[str, int] = defaultdict(int)
        spans: Dict[Tuple[str, str], list] = {}
        categories: Dict[str, list] = {}
        sums: Dict[str, float] = defaultdict(float)
        max_depth = 0
        for cell in self.cells:
            for layer, seconds in cell["layers"].items():
                layers[layer] += seconds
            for layer, count in cell["layer_events"].items():
                events[layer] += count
            for key, parent, count, total, self_s in cell.get("spans", ()):
                entry = spans.setdefault((key, parent), [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_s
            for stat in cell.get("categories", ()):
                entry = categories.setdefault(stat["category"], [0, 0.0])
                entry[0] += stat["events"]
                entry[1] += stat["wall_time"]
            for name in (
                "build_s", "run_s", "collect_s", "sim_wall_s", "callbacks_s",
                "loop_overhead_s", "events", "solver_s", "solver_steps",
            ):
                sums[name] += cell.get(name, 0.0)
            max_depth = max(max_depth, cell.get("max_depth", 0))
        return {
            "layers": dict(layers),
            "layer_events": dict(events),
            "spans": spans,
            "categories": categories,
            "sums": dict(sums),
            "max_depth": max_depth,
        }
