"""Layer spans recorded from outside the program.

The benchmark wraps the public entry points of each ``repro.<package>``
layer (see :data:`LAYER_ENTRY_POINTS`) and records one span per call while
recording is on: name, start, end and the span that was open when the call
began. Spans live in flat in-memory arrays, so a traced run of a few
million calls stays affordable.

Attribution rule: a span covers everything its callee does, minus the spans
of wrapped calls it makes; that remainder is the layer's *self time*. Code
with no wrapped entry point is billed to whichever span is open when it
runs. The simulator resumes generator-based processes (engine worker loops,
disk processes) from inside ``Simulator.run``, so their glue outside a
wrapped call such as ``read_vertex``/``expand_vertex`` lands under ``sim``;
O(1) accessors (``ctx.now``, ``store.has_vertex``, plan properties, filter
truth tests) are left unwrapped so their tiny bodies are not swamped by the
wrapper, and land under their caller's layer. Wall time covered by no span
is ``other``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable

import numpy as np

#: layer -> [(module, class or None, attribute names)]. A class attribute
#: is patched on that class (callers look methods up through the instance);
#: a module function is patched in every ``repro`` module that imported it
#: by name, which is where its callers look it up.
LAYER_ENTRY_POINTS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.core", "Simulator",
         ("run", "run_until", "schedule", "timeout", "process", "event")),
        ("repro.sim.resources", "Resource", ("request", "release")),
        ("repro.sim.resources", "Store", ("put", "get")),
        ("repro.sim.resources", "PriorityStore", ("put", "get")),
    ],
    "runtime": [
        ("repro.runtime.simulated", "SimRuntime",
         ("run_until_complete", "deliver", "deliver_to_coordinator", "schedule")),
        ("repro.runtime.simulated", "SimServerContext",
         ("sleep", "spawn", "queue_put", "queue_get", "wait", "disk", "cpu",
          "send", "send_coordinator")),
    ],
    "net": [
        ("repro.net.topology", "NetworkModel", ("latency", "client_latency")),
        ("repro.net.message", "Message", ("nbytes",)),
        ("repro.net.message", "TraverseRequest", ("nbytes",)),
        ("repro.net.message", "ExecStatus", ("nbytes",)),
        ("repro.net.message", "ResultReport", ("nbytes",)),
        ("repro.net.message", "SuccessReport", ("nbytes",)),
        ("repro.net.message", "SyncBatch", ("nbytes",)),
        ("repro.net.message", "SyncStepDone", ("nbytes",)),
    ],
    "engine": [
        ("repro.engine.async_engine", "AsyncServerEngine", ("on_message", "forget_travel")),
        ("repro.engine.sync_engine", "SyncServerEngine", ("on_message", "forget_travel")),
        ("repro.engine.visit", None, ("read_vertex", "expand_vertex")),
        ("repro.engine.tracing", "ExecTracker", ("on_status", "on_result", "complete")),
    ],
    "storage": [
        ("repro.storage.layout", "GraphStore",
         ("load_partition", "edges", "all_edges", "vertex_props", "insert_vertex",
          "insert_edge", "cold_start", "metrics_snapshot")),
        ("repro.storage.lsm", "LSMStore", ("scan", "get", "put")),
        ("repro.storage.costmodel", "DiskCostModel", ("time",)),
    ],
    "routing": [
        ("repro.rebalance.routing", "RoutingTable", ("owner", "owners")),
    ],
    "lang": [
        ("repro.lang.gtravel", "GTravel", ("compile",)),
    ],
    "sched": [
        # _on_travel_terminal is the scheduler's terminal hook, bound into
        # the coordinator at build time: the layer's entry from below.
        ("repro.sched.scheduler", "TraversalScheduler",
         ("submit", "cancel", "entry_for", "_on_travel_terminal")),
    ],
    "cluster": [
        ("repro.cluster.cluster", "Cluster",
         ("submit", "traverse", "ingest_vertex", "ingest_edge", "cold_start",
          "metrics_snapshot")),
        ("repro.cluster.coordinator", "Coordinator", ("submit", "on_message", "cancel")),
    ],
    "obs": [
        ("repro.obs.metrics", "MetricsRegistry", ("count", "observe", "set_gauge", "snapshot")),
        ("repro.obs.trace", "FlightRecorder", ("record", "finalize_travel")),
        ("repro.obs.spans", "SpanTracer",
         ("begin", "end", "travel_span", "level_span", "finish_travel")),
        ("repro.obs.telemetry", "TelemetryPlane", ("ingest", "on_terminal")),
    ],
}

LAYERS = tuple(LAYER_ENTRY_POINTS)


class SpanRecorder:
    """Flat arrays of spans: name index, start, end, parent index (-1 = root)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.on = False

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def clear(self) -> None:
        # in place: the wrappers hold references to these arrays
        del self.name_ix[:], self.start[:], self.end[:], self.parent[:]
        del self._stack[1:]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        nid = self.register(name, layer)
        names, starts, ends, parents = self.name_ix, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    # -- analysis --------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of its children."""
        dur = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - child

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer (every registered layer present)."""
        out = {layer: 0.0 for layer in self.layer_of}
        if not len(self):
            return out
        per_name = np.bincount(
            np.frombuffer(self.name_ix, dtype=np.uint16),
            weights=self.self_times(),
            minlength=len(self.names),
        )
        for nid, total in enumerate(per_name):
            out[self.layer_of[nid]] += float(total)
        return out

    def check(self, tol: float = 1e-9) -> None:
        """Raise ValueError unless every span is closed, lies inside its
        parent, and has a non-negative self time."""
        if not len(self):
            return
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        if len(self._stack) > 1:
            raise ValueError(f"{len(self._stack) - 1} spans still open")
        if (end < start).any():
            raise ValueError(f"{int((end < start).sum())} spans end before they start")
        kids = parent >= 0
        p = parent[kids]
        outside = (start[kids] < start[p]) | (end[kids] > end[p])
        if outside.any():
            raise ValueError(f"{int(outside.sum())} spans outlast their parent")
        if (self.self_times() < -tol).any():
            raise ValueError("a span's children add up to more than the span")

    def root_time(self) -> float:
        """Wall time covered by spans with no parent."""
        if not len(self):
            return 0.0
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        return float(self.durations()[roots].sum())

    def _named(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(np.frombuffer(self.name_ix, dtype=np.uint16), ids)

    def count(self, *names: str) -> int:
        """Number of recorded spans with any of the given names."""
        return int(self._named(names).sum())

    def durations_of(self, *names: str) -> np.ndarray:
        return self.durations()[self._named(names)]


class LayerTracer:
    """Installs span wrappers on :data:`LAYER_ENTRY_POINTS` and removes them.

    Install before ``Cluster.build``: the build binds some entry points
    (``routing.owner``, ``coordinator.on_message``) into closures, and only
    names patched by then are seen through those bindings.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYER_ENTRY_POINTS.items():
            for module_name, class_name, attrs in targets:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for attr in attrs:
                        self._patch_function(module, attr, layer)
                else:
                    cls = getattr(module, class_name)
                    for attr in attrs:
                        self._patch_method(cls, attr, layer)

    def _patch_method(self, cls: type, attr: str, layer: str) -> None:
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(original, property):
            patched = property(
                self.recorder.wrap(original.fget, name, layer),
                original.fset, original.fdel, original.__doc__,
            )
        elif callable(original):
            patched = self.recorder.wrap(original, name, layer)
        else:
            raise TypeError(f"{name} is neither a function nor a property")
        self._set(cls, attr, patched, original)

    def _patch_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        patched = self.recorder.wrap(original, f"{module.__name__}.{attr}", layer)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, attr, None) is original
            ):
                self._set(mod, attr, patched, original)

    def _set(self, target, attr: str, patched, original) -> None:
        setattr(target, attr, patched)
        self._undo.append((target, attr, original))

    def uninstall(self) -> None:
        self.recorder.on = False
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
