"""Spans and counters of the traced run (``--trace 1``).

Spans are recorded from here, around calls into each layer's public entry
points: :func:`install` replaces the listed methods with wrappers at class
level, and the workloads open a span themselves around the one module-level
function they call directly (``compile_text``).  Nothing inside ``src/repro``
is edited.  Spans stay in memory and are written out once, at exit.

A span is ``(name, start, end, parent, request_id, phase)``.  Synchronous
spans nest through a stack, so a layer's self time is its busy time minus
its children's.  Coroutine spans (gateway push/flush/disconnect, subscriber
waits) interleave freely and therefore take no part in the stack: they have
no parent and are never a parent.

Only spans and counts of the ``timed`` phase feed the per-layer metrics;
set-up and reference-check spans are kept in the trace file under their own
phase so compile cost paid in set-up can still be read there.
"""

from __future__ import annotations

import json
import pickle
import time

class Tracer:
    """In-memory span log plus named counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        #: [name index, start, end, parent span index or -1, request id, phase]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        #: Set by the workload: repetition index, client id or push number.
        self.request = None
        #: "setup", "timed" or "check".
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        #: pass_timings lists already counted, by id (kept alive here).
        self.seen_pass_timings: dict[int, list] = {}

    # -- recording ---------------------------------------------------------

    def index(self, name: str) -> int:
        found = self._index.get(name)
        if found is None:
            found = self._index[name] = len(self.names)
            self.names.append(name)
        return found

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name* (timed phase only)."""
        if self.phase == "timed":
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        """Raise counter *name* to *value* if larger (timed phase only)."""
        if self.phase == "timed" and value > self.counters.get(name, 0):
            self.counters[name] = value

    def begin(self, name: str) -> int:
        """Open a synchronous span; pair with :meth:`end`."""
        stack = self._stack
        me = len(self.spans)
        self.spans.append(
            [self.index(name), time.perf_counter(), 0.0,
             stack[-1] if stack else -1, self.request, self.phase]
        )
        stack.append(me)
        return me

    def end(self, me: int) -> None:
        self.spans[me][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span *name*.

        A call nested directly inside a span of the same name (``advance``
        calling ``poll``) is passed through unrecorded.  ``after(args,
        result)`` runs once the call returned, outside the span.
        """
        original = getattr(owner, attr)
        idx = self.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == idx:
                return original(*args, **kwargs)
            record = [idx, clock(), 0.0, stack[-1] if stack else -1,
                      self.request, self.phase]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_async(self, owner, attr: str, name: str) -> None:
        """As :meth:`wrap` for a coroutine function (parentless span)."""
        original = getattr(owner, attr)
        idx = self.index(name)
        spans, clock = self.spans, time.perf_counter

        async def traced(*args, **kwargs):
            record = [idx, clock(), 0.0, -1, self.request, self.phase]
            spans.append(record)
            try:
                return await original(*args, **kwargs)
            finally:
                record[2] = clock()

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap` (tests run several workloads in-process)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name over the timed phase: calls, busy_s, self_s."""
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, start, end, parent, _request, phase in self.spans:
            if phase != "timed":
                continue
            duration = end - start
            mine = out[self.names[idx]]
            mine["calls"] += 1
            mine["busy_s"] += duration
            mine["self_s"] += duration
            if parent >= 0 and self.spans[parent][5] == "timed":
                out[self.names[self.spans[parent][0]]]["self_s"] -= duration
        return out

    def per_layer(self, names) -> dict[str, float]:
        """The per-layer metrics *names* (those of ``BENCHMARK.json``) over
        the timed phase, 0 where the layer did no work."""
        totals = self.totals()
        metrics = dict.fromkeys(names, 0.0)
        for name, total in totals.items():
            for field, value in total.items():
                key = f"{name}.{field}"
                if key in metrics:
                    metrics[key] = value
        metrics["ingest.deliver_wait_s"] = totals.get("ingest.deliver_wait", {}).get("busy_s", 0.0)
        for name, value in self.counters.items():
            if name in metrics:
                metrics[name] = value
        c = self.counters
        lookups = c.get("cache.hits", 0) + c.get("cache.misses", 0)
        if lookups:
            metrics["cache.hit_ratio"] = c.get("cache.hits", 0) / lookups
        windows = metrics["runtime.windows_computed"] + metrics["runtime.windows_skipped"]
        if windows:
            metrics["runtime.skip_ratio"] = metrics["runtime.windows_skipped"] / windows
        if metrics["ingest.passes"]:
            metrics["ingest.pushes_per_pass"] = c.get("ingest.pushes", 0) / metrics["ingest.passes"]
        pumps = c.get("serve.pumps_reported", 0)
        if pumps:
            metrics["serve.prefix_ticks"] = c.get("serve.prefix_ticks_total", 0) / pumps
        return metrics

    def dump(self, path) -> None:
        """Write names, spans and counters as compact JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "request_id", "phase"],
                    "names": self.names,
                    "spans": self.spans,
                    "counters": self.counters,
                },
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (class level)."""
    from repro import (
        CompiledQuery,
        LifeStreamEngine,
        ReplaySource,
        StreamingService,
        StreamingSession,
    )
    from repro.core.compiler import CompiledPlan
    from repro.core.sources import PushSource
    from repro.ingest import IngestGateway
    from repro.ingest.gateway import Subscription
    from repro.serve import cache as serve_cache

    def compiled(_args, result) -> None:
        # Clones share their template's pass_timings list; count each
        # pipeline run once, in the phase that first saw it.
        timings = result.plan.pass_timings
        if id(timings) not in tracer.seen_pass_timings:
            tracer.seen_pass_timings[id(timings)] = timings
            tracer.count("compiler.pass_s", sum(t.seconds for t in timings))

    def ran(_args, result) -> None:
        stats = result.stats
        tracer.count("runtime.windows_computed", stats.windows_computed)
        tracer.count("runtime.windows_skipped", stats.windows_skipped)
        tracer.peak("runtime.preallocated_bytes", stats.preallocated_bytes)
        if stats.fallback_reason is not None or "fallback" in stats.execution_mode:
            tracer.count("runtime.fallback_runs")

    def ticked(_args, stats) -> None:
        tracer.count("session.plan_s", stats.plan_seconds)
        tracer.count("session.execute_s", stats.execute_seconds)
        tracer.count("session.windows_deferred", stats.windows_deferred)

    def checkpointed(_args, state) -> None:
        tracer.count("session.checkpoint.bytes", len(pickle.dumps(state)))

    def pumped(_args, report) -> None:
        tracer.count("serve.pumps_reported")
        tracer.count("serve.prefix_ticks_total", len(report.prefix_ticks))

    tracer.wrap(LifeStreamEngine, "compile", "compiler.compile", after=compiled)
    tracer.wrap(CompiledPlan, "instantiate", "compiler.instantiate")
    tracer.wrap(serve_cache, "plan_signature", "cache.signature")
    tracer.wrap(CompiledQuery, "run", "runtime.run", after=ran)
    for method in ("advance", "poll", "finish"):
        tracer.wrap(StreamingSession, method, "session.tick", after=ticked)
    tracer.wrap(StreamingSession, "checkpoint", "session.checkpoint", after=checkpointed)
    tracer.wrap(PushSource, "append", "sources.append")
    tracer.wrap(ReplaySource, "advance", "sources.append")
    tracer.wrap(StreamingService, "open", "serve.open")
    for method in ("pump", "poll", "finish"):
        tracer.wrap(StreamingService, method, "serve.pump", after=pumped)
    tracer.wrap(StreamingService, "close", "serve.close")
    tracer.wrap_async(IngestGateway, "push", "ingest.push")
    tracer.wrap_async(IngestGateway, "flush", "ingest.flush")
    tracer.wrap_async(IngestGateway, "disconnect", "ingest.disconnect")
    tracer.wrap_async(Subscription, "__anext__", "ingest.deliver_wait")
