"""tenant_churn — the admission path, closed loop, one caller.

Short tenant lifecycles on one ``StreamingService`` with the default
``PlanCache`` capacity of 32: draw an LSQL text from a catalog of 48
structurally distinct programs (Zipf, s = 1.1, over the catalog's order; the
seed shuffles the arrival order) -> ``repro.lang.compile_text`` -> ``open`` over
fresh ``ReplaySource``s holding 8 s of data -> ``pump`` per stream-second
until the first event is out -> pump to the end -> ``finish``/``result`` ->
``close``.  The service runs 1 s windows: at the default 1-minute window an
8 s stream emits nothing before ``finish``.

Why it is here: ``lang``, ``core.compiler``, ``serve.cache`` and
``CompiledPlan.instantiate`` dominate and execution is small.  The working
set (48) exceeds the cache (32), so hits, misses and evictions all occur.
It is the workload for LSQL views, fleet pre-warming and cache work; those
layers do next to nothing in the other three.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from perf import gen, queries
from perf.harness import (
    Context,
    Outcome,
    array_sources,
    count_cache,
    identical,
    one_shot,
    put_latency,
    repeat_setup,
    sample_clients,
    segment_rate,
)

WINDOW = 1000
STREAM_S = 8
ZIPF_S = 1.1
#: Distinct 8 s input streams per source; lifecycles draw from this pool.
POOL = 32
#: Stretches of the run whose median gives the rates / the latency percentiles.
RATE_SEGMENTS = 15
LATENCY_SEGMENTS = 5


def sizes(ctx: Context) -> dict:
    if ctx.tiny:
        return {"lifecycles": 60}
    return {"lifecycles": max(200, int(ctx.seconds * 500))}


def make_inputs(seed: int, size: dict) -> dict:
    catalog = queries.lsql_catalog()
    rng = gen.rng_for(seed, 5)
    draws = gen.zipf_draws(rng, len(catalog), ZIPF_S, size["lifecycles"])
    pool = {"s": [], "a": []}
    for index in range(POOL):
        stream_rng = gen.rng_for(seed, 6, index)
        pool["s"].append((*gen.monitor_stream(stream_rng, STREAM_S), gen.ECG_PERIOD))
        abp = gen.abp_wave(stream_rng, STREAM_S)
        keep = gen.burst_keep(stream_rng, abp.size, 0.1, bursts=2, half=1)
        pool["a"].append((*gen.gappy(abp, gen.ABP_PERIOD, keep), gen.ABP_PERIOD))
    return {
        "catalog": catalog,
        "programs": draws,
        "streams": rng.integers(0, POOL, size=size["lifecycles"]),
        "pool": pool,
    }


def run(ctx: Context) -> Outcome:
    from repro import StreamingService
    from repro.lang import compile_text

    size = sizes(ctx)
    outcome = Outcome()
    began = time.perf_counter()
    inputs = make_inputs(ctx.seed, size)
    outcome.put("gen_s", time.perf_counter() - began, "s")
    catalog, pool = inputs["catalog"], inputs["pool"]
    outcome.info["input_digest"] = gen.digest(
        inputs["programs"], inputs["streams"],
        *(array for streams in pool.values() for t, v, _p in streams for array in (t, v)),
    )

    service, outcome.setup_build_s = repeat_setup(
        ctx, lambda: StreamingService(window_size=WINDOW), lambda s: s.close_all()
    )
    sampled = set(sample_clients(ctx.seed, size["lifecycles"]))
    kept = {}
    first_s, whole_s, consumed = [], [], []
    watermarks = range(1000, STREAM_S * 1000 + 1001, 1000)

    def lifecycle(index: int):
        """One tenant, start to finish; returns seconds to the first event,
        seconds to the close, and source events consumed."""
        text, names = catalog[inputs["programs"][index]]
        arrays = {name: pool[name][inputs["streams"][index]] for name in names}
        client = f"t{index}"
        began = time.perf_counter()
        with ctx.span("lang.compile_text"):
            resolved = compile_text(text)
        if not resolved.ok:
            ctx.count("lang.errors")
            raise RuntimeError(f"LSQL did not resolve: {resolved.diagnostics}")
        service.open(client, resolved.query, array_sources(arrays, replay=True))
        try:
            first = None
            for watermark in watermarks:
                report = service.pump(watermark)
                if first is None and report.events_emitted:
                    first = time.perf_counter() - began
            service.finish()
            result = service.result(client)
        finally:
            service.close(client)
        whole = time.perf_counter() - began
        if first is None:
            raise RuntimeError("no event before the end of the stream")
        if index in sampled:
            kept[index] = (resolved.query, arrays, result)
        return first, whole, sum(times.size for times, _v, _p in arrays.values())

    gc.collect()
    ctx.phase("timed")
    region = time.perf_counter()
    for index in range(size["lifecycles"]):
        ctx.request(index)
        outcome.attempted += 1
        try:
            first, whole, events = lifecycle(index)
        except Exception as exc:  # counted as a failed operation
            outcome.fail(f"lifecycle {index}: {exc!r}")
            continue
        first_s.append(first)
        whole_s.append(whole)
        consumed.append(events)
    wall = time.perf_counter() - region
    ctx.phase("check")
    if not first_s:
        return outcome

    outcome.put("events_per_s", segment_rate(consumed, whole_s, RATE_SEGMENTS), "events/s")
    outcome.put("opens_per_s", segment_rate([1] * len(whole_s), whole_s, RATE_SEGMENTS), "1/s")
    put_latency(outcome, first_s, "first_result", LATENCY_SEGMENTS)
    events = sum(consumed)
    stats = service.cache_stats
    outcome.info.update(
        events=events, lifecycles=len(first_s), timed_region_s=wall,
        cache={"hits": stats.hits, "misses": stats.misses, "evictions": stats.evictions},
        distinct_programs=int(np.unique(inputs["programs"]).size),
    )
    count_cache(ctx, stats)
    if ctx.tracer is not None:
        ctx.tracer.counters["sources.events_in"] = events

    for index, (query, arrays, result) in kept.items():
        outcome.attempted += 1
        if not identical(result, one_shot(query, arrays, WINDOW)):
            outcome.fail(f"lifecycle {index} differs from one-shot run")
    return outcome
