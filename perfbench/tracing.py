"""Span recording for the traced benchmark run.

Wrappers are installed from outside the program, around the public
functions and methods of each layer; ``repro`` itself is not modified.
Every wrapped call inside a request becomes a span: name, start, end,
parent and request id.  Calls made outside a request (the benchmark's
own verification replays, for instance) pass straight through.

Layers that run once per request or less keep one record per span.  The
per-state layers (successor generation, goal tests, heuristic calls,
operator applications) run up to a million times per request, so their
spans are folded into one ``(request, name) -> calls, self time`` row
each as they close; keeping every one of them would cost more memory
than the search itself.  Self time is a span's duration minus the time
its child spans cover, accumulated on the stack as spans close.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
from collections import defaultdict
from time import perf_counter

#: spans folded into per-request aggregates instead of kept one by one
HOT_PREFIXES = ("search.successors", "search.goal", "heuristics.", "fira.apply.")

REQUEST = "request"


class Recorder:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self) -> None:
        # Open frames: [child_seconds, span_id]; a folded span carries its
        # nearest kept ancestor's id, so kept children name a kept parent.
        self._stack: list[list] = []
        self._next_id = 0
        self.records: list[tuple] = []  # (id, name, start, end, parent, request)
        self.hot: dict[tuple[int, str], list] = {}  # (request, name) -> [calls, self]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.request_id = -1
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start: float | None = None

    # -- spans -----------------------------------------------------------------

    def _open_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _close(self, name: str, start: float, frame: list, keep: bool) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - start
        own = duration - frame[0]
        if stack:
            stack[-1][0] += duration
        self.calls[name] += 1
        self.self_s[name] += own
        if keep:
            parent = stack[-1][1] if stack else None
            self.records.append(
                (frame[1], name, start, end, parent, self.request_id)
            )
        else:
            row = self.hot.get((self.request_id, name))
            if row is None:
                self.hot[(self.request_id, name)] = [1, own]
            else:
                row[0] += 1
                row[1] += own

    def wrap(self, fn, name: str | None = None, name_of=None):
        """*fn* wrapped in a span named *name* (or ``name_of(args)``)."""
        recorder = self
        fixed_keep = name is not None and not name.startswith(HOT_PREFIXES)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack
            if not stack:
                return fn(*args, **kwargs)
            span = name if name is not None else name_of(args)
            keep = fixed_keep if name is not None else not span.startswith(HOT_PREFIXES)
            frame = [0.0, recorder._open_id() if keep else stack[-1][1]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(span, start, frame, keep)

        return wrapper

    def request(self, request_id: int, fn, *args, **kwargs):
        """Run one request as the root span of its trace."""
        self.request_id = request_id
        frame = [0.0, self._open_id()]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(REQUEST, start, frame, True)

    # -- garbage collector -------------------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: pause time of collections inside requests."""
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        """Write every kept span and every folded row as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, request in self.records:
                out.write(json.dumps({
                    "id": span_id, "span": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
            for (request, name), (calls, own) in sorted(self.hot.items()):
                out.write(json.dumps({
                    "folded": name, "request": request,
                    "calls": calls, "self_s": own,
                }) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points; also hook the collector."""
    import repro
    from repro.backends import DuckDbBackend, MiniSqlBackend, SqliteBackend
    from repro.heuristics.base import Heuristic
    from repro.obs.metrics import MetricsRegistry
    from repro.store import WarmStartStore

    engine = importlib.import_module("repro.search.engine")
    backends_base = importlib.import_module("repro.backends.base")

    def method(cls, attr, name=None, name_of=None):
        setattr(cls, attr, recorder.wrap(cls.__dict__[attr], name, name_of))

    method(repro.MappingProblem, "__init__", "search.setup")
    engine.make_heuristic = recorder.wrap(engine.make_heuristic, "search.setup")
    method(repro.MappingProblem, "successors", "search.successors")
    method(repro.MappingProblem, "is_goal", "search.goal")
    for algorithm, fn in list(engine.ALGORITHMS.items()):
        engine.ALGORITHMS[algorithm] = recorder.wrap(fn, "search.algorithm")
    engine.simplify_expression = recorder.wrap(
        engine.simplify_expression, "search.simplify"
    )
    method(Heuristic, "__call__", name_of=lambda args: f"heuristics.{args[0].name}")
    for cls in (
        repro.RenameAttribute, repro.RenameRelation, repro.DropAttribute,
        repro.Select, repro.Promote, repro.Demote, repro.Dereference,
        repro.Partition, repro.Merge, repro.CartesianProduct,
        repro.ApplyFunction,
    ):
        method(cls, "apply", f"fira.apply.{cls.keyword}")
    backends_base.compile_script = recorder.wrap(
        backends_base.compile_script, "fira.sqlcompile"
    )
    for cls in (DuckDbBackend, MiniSqlBackend, SqliteBackend):
        method(cls, "execute", f"backends.{cls.name}.execute")
    for attr in ("serve", "record", "preseed", "export"):
        method(WarmStartStore, attr, f"store.{attr}")
    method(MetricsRegistry, "publish_stats", "obs.metrics.publish")
    gc.callbacks.append(recorder.on_gc)

