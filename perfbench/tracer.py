"""In-memory span tracer that wraps sqzmet's public functions from outside.

Every public function defined in ``sqzmet.<module>`` (found by its
``__module__``) is replaced, in every sqzmet namespace that binds it, by a
wrapper that records a span: name, start, end, parent and the tag of the
operation that was running.  Parents come from a per-thread stack; a span
that opens on a worker thread with an empty stack takes the innermost open
span of the thread that started the operation as its parent, so work the
operation hands to a thread pool nests under the call that waited for it.

Self time is a span's duration minus the union of the intervals its child
spans cover.  Spans stay in memory until :meth:`Tracer.metrics` reads them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("gaussian", "network", "fock", "metrology", "validate", "cli")
ROOT = "bench.op"


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    tag: str


def _count_shots(counts, arguments, result):
    counts["metrology.shots_drawn"] += int(arguments.get("shots", 0))


def _count_mesh(counts, arguments, result):
    counts["network.mesh_elements"] += len(result.elements)
    values = [v for el in result.elements for v in (el.theta, el.phase)]
    values += [float(p) for p in result.output_phases]
    if not all(math.isfinite(v) for v in values):
        counts["network.nonfinite_meshes"] += 1


def _count_table(counts, arguments, result):
    counts["fock.table_rows"] += len(result.amplitudes)


def _count_cutoff(counts, arguments, result):
    counts["fock.cutoff_photons"] += int(result)


# work counted at the layer boundary: wrapped function -> counter update
COUNTERS = {
    "metrology.simulate_shots": _count_shots,
    "network.reck_decompose": _count_mesh,
    "fock.propagate_through_network": _count_table,
    "fock.recommend_cutoff": _count_cutoff,
}
COUNT_NAMES = (
    "metrology.shots_drawn",
    "network.mesh_elements",
    "network.nonfinite_meshes",
    "fock.table_rows",
    "fock.cutoff_photons",
)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[tuple[Span, float]]:
    """Pair each span with its self time in seconds."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (s, (s.end - s.start) - covered_length(children.get(s.sid, ()), s.start, s.end))
        for s in spans
    ]


class Tracer:
    """Records spans while :meth:`op` is active; wrappers pass through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self.recording = False
        self.tag = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._count_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, counter, signature):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        sid = next(self._ids)
        stack.append(sid)
        tag = self.tag
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, tag))
        if counter is not None:
            arguments = signature.bind(*args, **kwargs).arguments
            with self._count_lock:
                counter(self.counts, arguments, result)
        return result

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs, counter, signature)

        return traced

    def install(self) -> list[str]:
        """Patch sqzmet's public functions; return the wrapped qualified names."""
        modules = {name: importlib.import_module(f"sqzmet.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("sqzmet"), *modules.values()]
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrapped[obj] = (f"{layer}.{attr}", self.wrap(f"{layer}.{attr}", obj))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapped[obj][1])
        return sorted(name for name, _ in wrapped.values())

    def uninstall(self) -> None:
        """Put the original functions back."""
        for namespace, attr, original in self._patched:
            setattr(namespace, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def op(self, tag: str):
        """Record one operation's spans under a root span tagged ``tag``."""
        self.tag = tag
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        self._op_stack = stack
        self.recording = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.recording = False
            stack.pop()
            self.spans.append(Span(sid, ROOT, start, end, None, tag))

    def metrics(self) -> dict[str, float]:
        """Calls and self time per function, per layer and per layer and tag, plus counts."""
        out = defaultdict(float)
        for span, self_s in self_times(self.spans):
            if span.name == ROOT:
                out["bench.op.calls"] += 1
                out["bench.op.self_ms"] += self_s * 1e3
                continue
            layer = span.name.split(".", 1)[0]
            ms = self_s * 1e3
            for key in (span.name, layer):
                out[f"{key}.calls"] += 1
                out[f"{key}.self_ms"] += ms
                out[f"{key}.self_ms.{span.tag}"] += ms
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        return dict(out)
