"""Table 5 — last-level-cache misses of the Normalize query vs batch size.

Paper result (LLC misses, millions, measured with Intel vTune):

===========  =====  =====  =====
Batch size   1e5    1e6    1e7
===========  =====  =====  =====
Trill        2.43   4.11   6.73
LifeStream   0.79   0.82   0.96
===========  =====  =====  =====

Hardware counters are not available here, so the reproduction drives both
engines through the cache model in :mod:`repro.memsim` (a 20 MiB
set-associative LRU LLC, the paper's Xeon E5-2660 geometry).  The claim
reproduced is the *shape*: the Trill baseline's misses grow with the input
size because every operator allocates fresh batches, while LifeStream's
stay nearly flat because locality tracing plus static allocation keep the
working set to a handful of reused FWindows.
"""

import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.baselines.trill import TrillEngine, TrillInput
from repro.bench.workloads import synthetic_signal
from repro.core.engine import LifeStreamEngine
from repro.core.sources import ArraySource
from repro.memsim import AccessTracer, CacheSimulator
from repro.ops.operations import lifestream_operation, trill_operation

#: Input sizes swept (the paper uses 1e5 / 1e6 / 1e7; the largest is scaled
#: down to keep the pure-Python cache model fast).
BATCH_SIZES = (100_000, 300_000, 1_000_000)
WINDOW = 10_000

HEADERS = ["events", "engine", "llc misses (millions)", "allocations", "seconds"]


def _make_tracer() -> AccessTracer:
    return AccessTracer(CacheSimulator(), sample_stride=8)


def _record(registry, key, benchmark, fn, events):
    report = get_report(
        registry, "table5_cache", "Table 5 — LLC misses on the Normalize query", HEADERS
    )
    seconds, tracer = timed_benchmark(benchmark, fn)
    report.record(
        key,
        [events, key[1], tracer.stats().misses / 1e6, tracer.allocation_count, seconds],
    )
    return tracer


@pytest.mark.parametrize("n_events", BATCH_SIZES)
def test_cache_lifestream(benchmark, report_registry, n_events):
    times, values = synthetic_signal(n_events, frequency_hz=1000.0, seed=0)
    source = ArraySource(times, values, period=1)
    query = lifestream_operation("normalize", "s", frequency_hz=1000, window=WINDOW)

    def run():
        tracer = _make_tracer()
        engine = LifeStreamEngine(window_size=60_000, tracer=tracer)
        engine.run(query, sources={"s": source})
        return tracer

    _record(report_registry, (n_events, "lifestream"), benchmark, run, n_events)


@pytest.mark.parametrize("n_events", BATCH_SIZES)
def test_cache_trill(benchmark, report_registry, n_events):
    times, values = synthetic_signal(n_events, frequency_hz=1000.0, seed=0)

    def run():
        tracer = _make_tracer()
        engine = TrillEngine(batch_size=4096, tracer=tracer)
        engine.run_unary(
            TrillInput(times, values, 1),
            trill_operation("normalize", frequency_hz=1000, window=WINDOW, tracer=tracer),
        )
        return tracer

    _record(report_registry, (n_events, "trill"), benchmark, run, n_events)


def test_lifestream_misses_stay_flat_while_trill_grows(benchmark, report_registry):
    """Direct check of the Table 5 shape on the smallest vs largest input."""

    def misses_for(engine_name: str, n_events: int) -> int:
        times, values = synthetic_signal(n_events, frequency_hz=1000.0, seed=1)
        tracer = _make_tracer()
        if engine_name == "lifestream":
            engine = LifeStreamEngine(window_size=60_000, tracer=tracer)
            query = lifestream_operation("normalize", "s", frequency_hz=1000, window=WINDOW)
            engine.run(query, sources={"s": ArraySource(times, values, period=1)})
        else:
            engine = TrillEngine(batch_size=4096, tracer=tracer)
            engine.run_unary(
                TrillInput(times, values, 1),
                trill_operation("normalize", frequency_hz=1000, window=WINDOW, tracer=tracer),
            )
        return tracer.stats().misses

    def run():
        small, large = BATCH_SIZES[0], BATCH_SIZES[-1]
        return {
            "lifestream_growth": misses_for("lifestream", large) / max(1, misses_for("lifestream", small)),
            "trill_growth": misses_for("trill", large) / max(1, misses_for("trill", small)),
        }

    _, growth = timed_benchmark(benchmark, run)
    # Trill's misses scale roughly with the data size (10x more events ->
    # several times more misses); LifeStream's stay within a small factor.
    assert growth["trill_growth"] > 4.0
    assert growth["lifestream_growth"] < 3.0
    report = get_report(
        report_registry, "table5_cache", "Table 5 — LLC misses on the Normalize query", HEADERS
    )
    report.note(
        f"miss growth from {BATCH_SIZES[0]:,} to {BATCH_SIZES[-1]:,} events: "
        f"LifeStream {growth['lifestream_growth']:.2f}x, Trill {growth['trill_growth']:.2f}x"
    )
