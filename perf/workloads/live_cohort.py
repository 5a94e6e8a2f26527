"""live_cohort — steady-state multi-tenant serving, closed loop, one driver.

256 long-lived sessions on one ``StreamingService(window_size=1 s,
subplan_sharing=True)``: 128 ``vitals`` trends over private gappy sources, 64
Figure 3 pipelines (hold-mode resample) over two private sources each, and
64 dashboard tenants in 4 groups of 16 that share one source object and a
fill -> zscore -> where -> resample prefix and differ in their aggregate
tail.  Everything is opened (and the sharing groups formed) in set-up; the
timed region is one ``pump(watermark)`` per stream-second, then ``finish()``.

Why it is here: ``serve`` scheduling and prefix fan-out plus the session's
per-tick planning and small-window dispatch dominate, and no compile happens
while timed.  It uses the runtime tick by tick instead of in long runs, so a
kernel or run-length optimisation that helps ``retro_fig3`` but costs tick
latency shows here.
"""

from __future__ import annotations

import gc
import time

from perf import gen, queries
from perf.harness import (
    Context,
    Outcome,
    count_cache,
    identical,
    one_shot,
    put_latency,
    repeat_setup,
    sample_clients,
    segment_rate,
)

WINDOW = 1000
TICK = 1000
#: Stretches of the run whose median gives events_per_s.
SEGMENTS = 10


def sizes(ctx: Context) -> dict:
    if ctx.tiny:
        return {"vitals": 8, "fig3": 4, "groups": 2, "per_group": 4, "stream_s": 6}
    return {
        "vitals": 128, "fig3": 64, "groups": 4, "per_group": 16,
        "stream_s": max(20, int(ctx.seconds * 40 / 3)),
    }


def make_inputs(seed: int, size: dict) -> list[dict]:
    """One entry per client: its query kind and ``{source: (times, values, period)}``.

    Dashboard tenants of one group carry the *same* arrays under a shared
    ``group`` key: they are bound to one source object when opened.
    """
    seconds = float(size["stream_s"])
    clients = []
    for index in range(size["vitals"]):
        times, values = gen.monitor_stream(gen.rng_for(seed, 2, index), seconds)
        clients.append({"kind": "vitals", "arrays": {"ecg": (times, values, gen.ECG_PERIOD)}})
    for index in range(size["fig3"]):
        ecg, abp = gen.ecg_abp_pair(gen.rng_for(seed, 3, index), seconds, 0.05, 0.10)
        clients.append({
            "kind": "fig3",
            "arrays": {"ecg": (*ecg, gen.ECG_PERIOD), "abp": (*abp, gen.ABP_PERIOD)},
        })
    for group in range(size["groups"]):
        times, values = gen.monitor_stream(gen.rng_for(seed, 4, group), seconds)
        for index in range(size["per_group"]):
            clients.append({
                "kind": "dashboard", "group": group, "tail": index,
                "arrays": {"s": (times, values / 3.0 * 5.0, gen.ECG_PERIOD)},
            })
    return clients


def client_query(client: dict):
    if client["kind"] == "vitals":
        return queries.vitals()
    if client["kind"] == "fig3":
        return queries.fig3("hold")
    return queries.dashboard(client["tail"])


def run(ctx: Context) -> Outcome:
    from repro import ArraySource, ReplaySource, StreamingService

    size = sizes(ctx)
    outcome = Outcome()
    began = time.perf_counter()
    clients = make_inputs(ctx.seed, size)
    outcome.put("gen_s", time.perf_counter() - began, "s")
    outcome.info["input_digest"] = gen.digest(
        *(array for client in clients for t, v, _p in client["arrays"].values() for array in (t, v))
    )
    groups = size["groups"]

    def build():
        service = StreamingService(window_size=WINDOW, subplan_sharing=True)
        shared = {}
        for index, client in enumerate(clients):
            sources = {}
            for name, (times, values, period) in client["arrays"].items():
                key = (client.get("group"), name)
                if client["kind"] == "dashboard" and key in shared:
                    sources[name] = shared[key]
                    continue
                sources[name] = ReplaySource(ArraySource(times, values, period=period))
                if client["kind"] == "dashboard":
                    shared[key] = sources[name]
            service.open(f"c{index:03d}", client_query(client), sources)
        # Sharing groups form lazily at the first batch; an empty poll forms
        # them now, so prefix and tail compiles stay out of the timed region.
        service.poll([])
        return service

    service, outcome.setup_build_s = repeat_setup(ctx, build, lambda s: s.close_all())
    outcome.info["sharing_groups"] = len(service.sharing_groups)
    if len(service.sharing_groups) != groups:
        outcome.fail(f"expected {groups} sharing groups, got {len(service.sharing_groups)}")
    cache_before = count_cache(ctx, service.cache_stats)

    end = size["stream_s"] * 1000
    watermarks = range(TICK, end + TICK, TICK)
    checkpoint_at = len(watermarks) // 2
    sampled = sample_clients(ctx.seed, len(clients))
    pump_s = []
    gc.collect()
    ctx.phase("timed")
    region = time.perf_counter()
    for step, watermark in enumerate(watermarks):
        ctx.request(step)
        outcome.attempted += 1
        began = time.perf_counter()
        try:
            service.pump(watermark)
        except Exception as exc:  # counted as a failed operation
            outcome.fail(f"pump {watermark}: {exc!r}")
            continue
        pump_s.append(time.perf_counter() - began)
        if ctx.tracer is not None and step == checkpoint_at:
            for index in sampled:
                service.session(f"c{index:03d}").checkpoint()
    outcome.attempted += 1
    try:
        service.finish()
    except Exception as exc:  # counted as a failed operation
        outcome.fail(f"finish: {exc!r}")
    wall = time.perf_counter() - region
    ctx.phase("check")

    events = sum(
        t.size
        for client in clients if client.get("tail", 0) == 0
        for t, _v, _p in client["arrays"].values()
    )
    # Samples are spread evenly over stream time, so every pump of one
    # stream-second consumes the same share of them.
    per_pump = [events / len(watermarks)] * len(pump_s)
    outcome.put("events_per_s", segment_rate(per_pump, pump_s, SEGMENTS), "events/s")
    put_latency(outcome, pump_s, "pump")
    outcome.info.update(events=events, pumps=len(pump_s), timed_region_s=wall,
                        clients=len(clients))
    count_cache(ctx, service.cache_stats, cache_before)
    if ctx.tracer is not None:
        ctx.tracer.counters["sources.events_in"] = events

    expected_events = 0
    for index in sampled:
        client = clients[index]
        outcome.attempted += 1
        reference = one_shot(client_query(client), client["arrays"], WINDOW)
        expected_events += len(reference)
        if not identical(service.result(f"c{index:03d}"), reference):
            outcome.fail(f"client c{index:03d} ({client['kind']}) differs from one-shot run")
    outcome.info["reference_events"] = expected_events
    service.close_all()
    return outcome
