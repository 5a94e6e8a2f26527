"""retro_fig3 — the paper's headline experiment (Figure 9c), closed loop, one caller.

The Figure 3 query (interpolating resample) runs one-shot over 4 h of 500 Hz
ECG and 125 Hz ABP with burst gaps (15 % / 30 %), 1-minute windows, targeted,
on the backend ``recommend_backend`` picks (what ``--backend auto`` does).
Cold repetitions build sources and a fresh engine, compile, and run once;
warm repetitions re-run the compiled query.

Why it is here: ``core.runtime`` and the operators/kernels do nearly all the
work, in long runs of wide windows; ``lang``, ``serve`` and ``ingest`` do
none.  It is the bypass workload for every serving-side optimisation.
"""

from __future__ import annotations

import gc
import statistics
import time

from perf import gen, queries
from perf.harness import Context, Outcome, array_sources, identical, put_latency

WINDOW = 60_000
COLD_REPS = 5


def sizes(ctx: Context) -> dict:
    if ctx.tiny:
        return {"seconds": 120.0, "cold": 2, "warm": 3}
    return {"seconds": 4 * 3600.0, "cold": COLD_REPS, "warm": max(15, int(ctx.seconds * 8 / 3))}


def make_inputs(seed: int, seconds: float):
    return gen.ecg_abp_pair(gen.rng_for(seed, 1), seconds, 0.15, 0.30)


def run(ctx: Context) -> Outcome:
    from repro import LifeStreamEngine, SerialBackend, recommend_backend

    size = sizes(ctx)
    outcome = Outcome()
    began = time.perf_counter()
    ecg, abp = make_inputs(ctx.seed, size["seconds"])
    outcome.put("gen_s", time.perf_counter() - began, "s")
    outcome.info["input_digest"] = gen.digest(*ecg, *abp)
    arrays = {"ecg": (*ecg, gen.ECG_PERIOD), "abp": (*abp, gen.ABP_PERIOD)}

    ctx.phase("check")
    reference = LifeStreamEngine(
        window_size=WINDOW, backend=SerialBackend(), optimization_level=0
    ).run(queries.fig3("interpolate"), array_sources(arrays))

    def attempt(rep, call):
        """Time one query; count it, and fail it if it raises or is wrong."""
        gc.collect()
        ctx.request(rep)
        outcome.attempted += 1
        began = time.perf_counter()
        try:
            product = call()
        except Exception as exc:  # counted as a failed operation
            outcome.fail(f"{rep}: {exc!r}")
            return None, None
        elapsed = time.perf_counter() - began
        if not identical(product[-1], reference):
            outcome.fail(f"{rep}: output differs from SerialBackend at O0")
        return product, elapsed

    def cold():
        engine = LifeStreamEngine(window_size=WINDOW, targeted=True)
        compiled = engine.compile(queries.fig3("interpolate"), array_sources(arrays))
        backend, _reason = recommend_backend(compiled.plan, targeted=True)
        return compiled, backend, compiled.run(backend=backend)

    ctx.phase("timed")
    region = time.perf_counter()
    cold_s, warm_s = [], []
    compiled = backend = result = None
    for rep in range(size["cold"]):
        # Drop the previous plan and result first, as a caller running one
        # query after another would; peak memory is then one query's.
        compiled = backend = result = product = None
        product, elapsed = attempt(f"cold-{rep}", cold)
        if product is not None:
            compiled, backend, result = product
            cold_s.append(elapsed)
    if compiled is None:
        return outcome
    events = result.stats.events_ingested
    outcome.info["backend"] = result.stats.execution_mode
    del result, product
    for rep in range(size["warm"]):
        product, elapsed = attempt(f"warm-{rep}", lambda: (compiled.run(backend=backend),))
        if product is not None:
            warm_s.append(elapsed)
        del product
    outcome.info["timed_region_s"] = time.perf_counter() - region
    ctx.phase("check")
    if not warm_s:
        return outcome

    outcome.setup_build_s = statistics.median(cold_s)
    outcome.put("cold_query_s", outcome.setup_build_s, "s")
    outcome.put("first_query_s", cold_s[0], "s")
    outcome.put("events_per_s", events / statistics.median(warm_s), "events/s")
    put_latency(outcome, warm_s, "warm_run")
    outcome.info.update(events=events, cold_reps=len(cold_s), warm_reps=len(warm_s))
    if ctx.tracer is not None:
        ctx.tracer.counters["sources.events_in"] = events * (len(cold_s) + len(warm_s))
        _stage_times(ctx, arrays)
    _numlib_speedup(outcome, arrays)
    return outcome


def _stage_times(ctx: Context, arrays: dict) -> None:
    """Traced run only: each Figure 3 stage alone over the same inputs."""
    from repro import LifeStreamEngine, recommend_backend

    arrays = dict(arrays)
    for stage, (query, names) in queries.fig3_stages().items():
        sources = array_sources({name: arrays[name] for name in names})
        compiled = LifeStreamEngine(window_size=WINDOW).compile(query, sources)
        backend, _reason = recommend_backend(compiled.plan, targeted=True)
        seconds = []
        for _rep in range(3):
            gc.collect()
            began = time.perf_counter()
            result = compiled.run(backend=backend)
            seconds.append(time.perf_counter() - began)
        ctx.tracer.counters[f"operators.{stage}.busy_s"] = statistics.median(seconds)
        if stage == "resample":
            arrays["abp500"] = (result.times, result.values, gen.ECG_PERIOD)


def _numlib_speedup(outcome: Outcome, arrays: dict) -> None:
    """Diagnostic: the paper's comparison with a hand-written numeric-library
    pipeline, on the first ten minutes (its join is pure Python)."""
    import numpy as np
    from repro import LifeStreamEngine
    from repro.baselines.numlib.pipeline import run_e2e_pipeline

    head = {}
    for name, (times, values, period) in arrays.items():
        cut = int(np.searchsorted(times, 600_000))
        head[name] = (times[:cut], values[:cut], period)
    _times, _values, stats = run_e2e_pipeline(*head["ecg"][:2], *head["abp"][:2])
    compiled = LifeStreamEngine(window_size=WINDOW).compile(
        queries.fig3("interpolate"), array_sources(head)
    )
    compiled.run()
    began = time.perf_counter()
    compiled.run()
    ours = time.perf_counter() - began
    outcome.put("speedup_vs_numlib", stats.elapsed_seconds / ours, "ratio")
