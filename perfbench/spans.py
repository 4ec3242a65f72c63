"""Per-layer spans, recorded from outside the program.

The traced run replaces the entry point of each layer a request crosses
with a timed shim (:func:`install`).  Nothing under ``src/`` knows about
it: the shims patch module attributes and class methods that the
program looks up at call time, and take the request identity from the
worker's ambient scope (:func:`repro.pdm.cancel.current_trace`).

A span is ``(span_id, parent_id, name, start, end, request_id,
thread_id)``.  ``parent_id`` is the span open on the same thread when
this one started (``-1`` for none).  Spans stay in memory until the run
ends; :func:`ledgers` turns them into per-request self times.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import threading
import time
import types

from repro.pdm.cancel import current_trace

__all__ = [
    "SpanRecorder",
    "install",
    "ledgers",
    "self_times",
    "span_cost_seconds",
    "LAYER_SPANS",
]

#: Span names, in the order a request meets them.  Each is a layer of
#: ROADMAP's request path; the per-layer metric ``<name>_ms`` is its
#: mean self time per request.
LAYER_SPANS = (
    "pdm.system.reset",
    "serve.requests.prepare",
    "perms.classify",
    "pdm.cache.get_or_compile",
    "core.plan",
    "pdm.cache.compile",
    "pdm.optimize",
    "pdm.engine.execute",
    "pdm.system.verify",
    "core.runner.bounds",
    "serve.requests.digest",
)

#: Algorithm modules that call ``cached_execute`` with a planner thunk.
_PLANNER_MODULES = (
    "repro.core.mld_algorithm",
    "repro.core.mrc_algorithm",
    "repro.core.bmmc_algorithm",
    "repro.core.inverse_mld",
    "repro.core.distribution",
)


class SpanRecorder:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                span_id = next(recorder._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                trace = current_trace()
                request_id = trace.request_id if trace is not None else None
                span = (span_id, parent, name, start, end, request_id,
                        threading.get_ident())
                with recorder._lock:
                    recorder.spans.append(span)

        return traced


def install(recorder: SpanRecorder):
    """Patch every layer entry point to record spans; returns an undo
    callable that restores the originals."""
    import importlib

    from repro.core import runner
    from repro.pdm import cache, optimize
    from repro.pdm.cache import ShardedPlanCache
    from repro.pdm.system import ParallelDiskSystem
    from repro.serve import requests

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def traced(owner, attr: str, name: str) -> None:
        patch(owner, attr, recorder.wrap(name, getattr(owner, attr)))

    # reset + fill_identity: the per-request scrub of the pooled system.
    traced(ParallelDiskSystem, "reset", "pdm.system.reset")
    traced(ParallelDiskSystem, "fill_identity", "pdm.system.reset")
    traced(requests, "make_permutation", "serve.requests.prepare")
    traced(runner, "classify", "perms.classify")
    traced(runner, "_bound_table", "core.runner.bounds")
    traced(ShardedPlanCache, "get_or_compile", "pdm.cache.get_or_compile")
    traced(cache, "compile_plan", "pdm.cache.compile")
    traced(cache, "execute_plan", "pdm.engine.execute")
    # CompiledPlan.ensure_optimized imports optimize_plan at call time.
    traced(optimize, "optimize_plan", "pdm.optimize")
    traced(ParallelDiskSystem, "verify_permutation", "pdm.system.verify")
    # The digest is ``sha256(system.portion_values(final).tobytes())``
    # inside _execute_request: time the copy and the hash.
    traced(ParallelDiskSystem, "portion_values", "serve.requests.digest")
    patch(requests, "hashlib", types.SimpleNamespace(
        sha256=recorder.wrap("serve.requests.digest", hashlib.sha256)
    ))
    for module_name in _PLANNER_MODULES:
        module = importlib.import_module(module_name)
        patch(module, "cached_execute", _plan_timed(recorder, module.cached_execute))

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


def _plan_timed(recorder: SpanRecorder, cached_execute):
    """``cached_execute`` whose planner thunk (``build``) runs in a
    ``core.plan`` span; the thunk runs only on a cache miss."""

    @functools.wraps(cached_execute)
    def traced(system, cache, key, build, *args, **kwargs):
        return cached_execute(
            system, cache, key, recorder.wrap("core.plan", build), *args, **kwargs
        )

    return traced


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the durations of its
    children (spans whose parent is it)."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return own


def ledgers(spans) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Per request id: total self seconds per span name, and the number
    of spans recorded.

    A span recorded outside any request scope (the worker resets its
    pooled system just before installing the request's scope) belongs
    to the next request that runs on the same thread.
    """
    by_thread: dict[int, list[tuple]] = {}
    for s in spans:
        by_thread.setdefault(s[6], []).append(s)
    owner: dict[int, str | None] = {}
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s[3])
        pending: list[int] = []
        for s in thread_spans:
            if s[5] is None:
                pending.append(s[0])
                continue
            for span_id in pending:
                owner[span_id] = s[5]
            pending.clear()
            owner[s[0]] = s[5]
    own = self_times(spans)
    rows: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for s in spans:
        request_id = owner.get(s[0])
        if request_id is None:
            continue
        row = rows.setdefault(request_id, {})
        row[s[2]] = row.get(s[2], 0.0) + own[s[0]]
        counts[request_id] = counts.get(request_id, 0) + 1
    return rows, counts


def span_cost_seconds(calls: int = 20000) -> float:
    """Measured cost one span adds to a call, in seconds (median of
    five batches of ``calls`` calls of a no-op, wrapped minus bare)."""
    recorder = SpanRecorder()

    def noop():
        return None

    wrapped = recorder.wrap("noop", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - t0 - bare) / calls)
        recorder.spans.clear()
    costs.sort()
    return max(0.0, costs[2])
