"""Span tracing of the program's layers, installed from outside the program.

The tracer wraps the public entry point of each layer and patches the
wrapper in where callers look the name up: on the class for methods,
and in every loaded module that holds a module-level function under a
name (so ``from repro.geometry.matching import hungarian`` callers see
it too).  Nothing in the program is edited; :meth:`Tracer.uninstall`
puts every original back.

Spans live in memory until :meth:`Tracer.dump`.  Each records its name,
start, end, parent span and the op id of the benchmark op it ran under.
A span's self time is its duration minus that of its children; the
benchmark wraps every op in a root span, so per-layer self times plus
the roots' own self time (the unattributed remainder) add up to the
time the ops took.  Spans started on threads the benchmark does not
own (worker pools, the dispatcher loop) have no root and are reported
apart as detached busy time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from perfbench.common import now

#: Layer name -> the entry points it covers, as ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "simulation.build_sequence": ("repro.simulation.datasets:build_sequence",),
    "inference.detect_wave": ("repro.inference.engine:InferenceEngine.detect_wave",),
    "core.pipeline.fit": ("repro.core.pipeline:MASTPipeline.fit",),
    "core.sampler.sample": ("repro.core.sampler:HierarchicalMultiAgentSampler.sample",),
    "core.sampler.step": ("repro.core.sampler:AdaptiveSamplingSession.step",),
    "core.reward.st_reward": ("repro.core.reward:st_reward",),
    "core.stpc.analyze_pair": ("repro.core.stpc:analyze_pair",),
    "geometry.matching.hungarian": ("repro.geometry.matching:hungarian",),
    "core.index.build": ("repro.core.index:MASTIndex.build",),
    "spatial.build": ("repro.spatial.index:SpatialTileIndex.__init__",),
    "spatial.update": ("repro.spatial.index:SpatialTileIndex.updated",),
    "core.pipeline.query": ("repro.core.pipeline:MASTPipeline.query",),
    "query.parser.parse": (
        "repro.query.parser:parse_query",
        "repro.query.parser:parse_scoped_query",
    ),
    "query.engine.execute": ("repro.query.engine:QueryEngine.execute",),
    "core.index.count_series": (
        "repro.core.index:MASTIndex.count_series",
        "repro.core.index:MASTIndex.count_series_many",
        "repro.core.index:MASTIndex.count_series_tail",
    ),
    "core.linear.count_series": (
        "repro.core.index:LinearCountProvider.count_series",
        "repro.core.index:LinearCountProvider.count_series_many",
        "repro.core.index:LinearCountProvider.count_series_tail",
    ),
    "spatial.count_series": ("repro.spatial.index:SpatialTileIndex.count_series",),
    "corpus.service.init": ("repro.corpus.service:CorpusQueryService.__init__",),
    "corpus.service.execute_batch": (
        "repro.corpus.service:CorpusQueryService.execute_batch",
    ),
    "serving.dispatcher.execute_many": (
        "repro.serving.dispatcher:Dispatcher.execute_many",
    ),
    "serving.service.execute_batch": ("repro.serving.service:QueryService.execute_batch",),
    "streaming.pump": ("repro.streaming.service:StreamingCorpusService.pump",),
    "streaming.execute_batch": (
        "repro.streaming.service:StreamingCorpusService.execute_batch",
    ),
    "corpus.extend": ("repro.corpus.service:CorpusQueryService.extend",),
    "corpus.replan": ("repro.corpus.service:CorpusQueryService.replan",),
    "corpus.plan": ("repro.corpus.pipeline:CorpusPipeline.plan",),
}

#: Entry points that only feed counters: they run too often, or on
#: threads without a root span, for a span to pay its way.
COUNTED: dict[str, str] = {
    "inference.store": "repro.inference.store:DetectionStore.lookup",
    "serving.mp.request": "repro.serving.mp:WorkerClient.request",
}

#: Spatial-index counters accumulated per call from stats deltas.
_SPATIAL_DELTAS = (
    "tiles_pruned", "tiles_contained", "tiles_boundary", "rows_scanned", "rows_total",
)


class Span:
    """One timed call of one layer."""

    __slots__ = ("id", "parent", "name", "start", "end", "op", "thread")

    def __init__(self, span_id, parent, name, start, op, thread) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.op = op
        self.thread = thread

    def as_list(self) -> list:
        parent = self.parent.id if self.parent is not None else 0
        return [self.id, parent, self.name, self.start, self.end, self.op, self.thread]


def _resolve(target: str):
    """``module:qualname`` -> (owner, attribute, original, is_module_level)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        return owner, attribute, owner.__dict__[attribute], False
    return owner, attribute, getattr(owner, attribute), True


class Tracer:
    """Collects spans and counters from patched layer entry points.

    # guarded-by: _lock: counters, maxima
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def note_index(self, n_rows: int, n_leaves: int) -> None:
        """Remember the shape of the largest spatial index seen."""
        with self._lock:
            if n_rows >= self.maxima.get("spatial.n_rows", -1):
                self.maxima["spatial.n_rows"] = n_rows
                self.maxima["spatial.n_leaves"] = n_leaves

    def snapshot(self) -> dict[str, float]:
        """Counters and maxima recorded so far."""
        with self._lock:
            return {**self.counters, **self.maxima}

    def _open(self, name: str, op: int | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent.op if parent is not None else 0
        span = Span(next(self._ids), parent, name, now(), op, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack().pop()
        span.end = now()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Time a block as a span; ``op`` starts a new benchmark op."""
        span = self._open(name, op)
        try:
            yield span
        finally:
            self._close(span)

    def _spanned(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outer = not stack or stack[-1].name != name
            token = hook.before(tracer, args, kwargs) if hook and outer else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook and outer:
                hook.after(tracer, token, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, target: str, make) -> None:
        owner, attribute, original, module_level = _resolve(target)
        if not module_level:
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(make(original.__func__))
            else:
                replacement = make(original)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
            return
        replacement = make(original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self) -> None:
        """Patch every layer entry point; idempotent per install/uninstall pair."""
        if self._patches:
            return
        for name, targets in LAYERS.items():
            hook = _HOOKS.get(name)
            for target in targets:
                self._patch(
                    target,
                    lambda fn, name=name, hook=hook: self._spanned(
                        name, fn, hook if hook is not None and hook.applies(fn) else None
                    ),
                )
        for name, target in COUNTED.items():
            self._patch(target, lambda fn, name=name: _COUNTERS[name](self, fn))

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: outermost calls and busy time, summed self time."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent.id] += span.end - span.start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            duration = span.end - span.start
            row = table[span.name]
            row["self_s"] += duration - child_time.get(span.id, 0.0)
            if not _has_ancestor_named(span, span.name):
                row["calls"] += 1
                row["busy_s"] += duration
        return dict(table)

    def accounting(self) -> dict[str, float]:
        """Root time, unattributed remainder and detached busy time."""
        table = self.layer_table()
        root_s = sum(
            span.end - span.start
            for span in self.spans
            if span.parent is None and span.name.startswith("bench.")
        )
        unattributed = sum(
            row["self_s"] for name, row in table.items() if name.startswith("bench.")
        )
        detached = sum(
            span.end - span.start
            for span in self.spans
            if span.parent is None and not span.name.startswith("bench.")
        )
        return {
            "trace.root_s": root_s,
            "trace.unattributed_s": unattributed,
            "trace.detached_busy_s": detached,
            "trace.spans": len(self.spans),
        }

    def dump(self, path: Path, extra: dict) -> None:
        """Write the layer table, counters and every span as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "span_fields": ["id", "parent", "name", "start", "end", "op", "thread"],
            "layers": self.layer_table(),
            "counters": self.snapshot(),
            "spans": [span.as_list() for span in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _has_ancestor_named(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


# ----------------------------------------------------------------------
# Per-layer hooks: counters measured where the work happens.
# ----------------------------------------------------------------------
class _Hook:
    #: Entry-point function names the hook applies to (``None``: all).
    functions: tuple[str, ...] | None = None

    def applies(self, fn) -> bool:
        return self.functions is None or fn.__name__ in self.functions

    def before(self, tracer: Tracer, args, kwargs):
        return None

    def after(self, tracer: Tracer, token, args, result) -> None:
        pass


class _HungarianCells(_Hook):
    def before(self, tracer, args, kwargs):
        rows, cols = args[0].shape
        tracer.count("geometry.matching.hungarian.cells", rows * cols)


class _DetectedFrames(_Hook):
    def after(self, tracer, token, args, result):
        tracer.count("inference.detect_wave.frames", len(result))


class _CountCache(_Hook):
    functions = ("count_series",)

    def before(self, tracer, args, kwargs):
        index, object_filter = args[0], args[1]
        tracer.count("core.index.count_cache_lookups")
        if object_filter in index.cached_filters():
            tracer.count("core.index.count_cache_hits")


class _SpatialWalk(_Hook):
    def before(self, tracer, args, kwargs):
        return args[0].stats_snapshot()

    def after(self, tracer, token, args, result):
        current = args[0].stats_snapshot()
        for key in _SPATIAL_DELTAS:
            tracer.count(f"spatial.{key}", current[key] - token[key])


class _SpatialShape(_Hook):
    def after(self, tracer, token, args, result):
        index = result if result is not None else args[0]
        tracer.note_index(index.n_rows, index.n_leaves)


class _PumpEvents(_Hook):
    def after(self, tracer, token, args, result):
        tracer.count("streaming.pump.events", result)


_HOOKS: dict[str, _Hook] = {
    "geometry.matching.hungarian": _HungarianCells(),
    "inference.detect_wave": _DetectedFrames(),
    "core.index.count_series": _CountCache(),
    "spatial.count_series": _SpatialWalk(),
    "spatial.build": _SpatialShape(),
    "spatial.update": _SpatialShape(),
    "streaming.pump": _PumpEvents(),
}


def _count_store(tracer: Tracer, fn):
    @functools.wraps(fn)
    def lookup(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count("inference.store.hits" if result is not None else "inference.store.misses")
        return result

    return lookup


def _count_requests(tracer: Tracer, fn):
    @functools.wraps(fn)
    def request(self, message):
        entries = getattr(message, "entries", None)
        if entries is not None:
            tracer.count("serving.mp.execute_requests")
            tracer.count("serving.mp.execute_entries", len(entries))
        return fn(self, message)

    return request


_COUNTERS = {
    "inference.store": _count_store,
    "serving.mp.request": _count_requests,
}
