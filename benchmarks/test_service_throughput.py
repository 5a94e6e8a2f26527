"""Multi-tenant serving throughput: shared plan cache vs recompile-per-client.

Acceptance measurement for the serving subsystem: before
:class:`~repro.serve.StreamingService` existed, every client connecting
with the same query shape cost a full ``engine.open_session()`` — the
whole pass pipeline (normalize, lineage, locality, fusion, memory) re-run
per client even though none of it depends on the client's data.  The
service compiles each distinct plan signature once and hands every further
client an ``instantiate()`` clone (fresh buffers and carries over the
shared immutable pass output).

The workload is patient-level data parallelism at the paper's Figure
10(c)/(d) granularity: N patients, one deep derived-signal chain (a
48-stage feature-extraction pipeline that fusion collapses into one
kernel), short live ticks.  Both paths drive identical per-session tick
loops; the only difference is compile-once vs compile-per-client.  The
benchmark asserts per-client bit-identical results and counts the pass
pipelines each path ran: N for recompile-per-client, exactly one (one
plan-cache miss) across all N service clients.  The end-to-end speedup is
reported, not gated.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.sources import ArraySource, ReplaySource
from repro.serve import StreamingService

HEADERS = ["mode", "clients", "compiles", "total seconds", "ms / client", "speedup"]

#: Cohort size (same query shape for every client).
N_CLIENTS = 32
#: Stages of the derived-signal chain (fused into one kernel at runtime).
CHAIN_DEPTH = 48
#: FWindow size and the single live-tick watermark the sessions see.
WINDOW_SIZE = 400
WATERMARKS = (601,)
#: Measurement rounds per mode (interleaved best-of, to shed scheduler noise).
ROUNDS = 3


def cohort_query():
    """A deep per-patient feature chain: scale/offset stages with guards."""
    query = Query.source("s", frequency_hz=500)
    for index in range(CHAIN_DEPTH):
        gain = 1.0 + index / CHAIN_DEPTH
        query = query.select(lambda v, g=gain: v * g - (g - 1.0))
        if index % 4 == 3:
            query = query.where(lambda v: np.abs(v) < 1e6)
    return query.tumbling_window(100).mean()


def patient_source(seed, n=300):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * 2
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 100, size=2):
        keep[start : start + 50] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return ArraySource(times[keep], values[keep], period=2)


def distinct_pass_runs(compiled_queries) -> int:
    """Pass pipelines behind *compiled_queries*: a compile records its own
    ``pass_timings`` list, and a plan-cache instantiation shares its
    template's."""
    return len({id(compiled.plan.pass_timings) for compiled in compiled_queries})


def run_naive():
    """Recompile-per-client: N full compiles, N independent sessions."""
    results = {}
    compiled_queries = []
    for seed in range(N_CLIENTS):
        engine = LifeStreamEngine(window_size=WINDOW_SIZE)
        compiled = engine.compile(cohort_query(), {"s": ReplaySource(patient_source(seed))})
        compiled_queries.append(compiled)
        session = compiled.open_session()
        for watermark in WATERMARKS:
            session.advance(watermark)
        session.finish()
        results[f"patient-{seed}"] = session.result()
        session.close()
    return results, distinct_pass_runs(compiled_queries)


def run_service():
    """Shared-plan-cache path: one compile, N instantiated sessions."""
    service = StreamingService(window_size=WINDOW_SIZE)
    for seed in range(N_CLIENTS):
        service.open(
            f"patient-{seed}", cohort_query(), {"s": ReplaySource(patient_source(seed))}
        )
    for watermark in WATERMARKS:
        service.pump(watermark)
    service.finish()
    results = service.results()
    stats = service.cache_stats
    pass_runs = distinct_pass_runs(
        service.compiled_query(client_id) for client_id in service.client_ids
    )
    service.close_all()
    return results, stats, pass_runs


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


def test_service_throughput(benchmark, report_registry):
    report = get_report(
        report_registry,
        "service_throughput",
        f"Serving {N_CLIENTS} same-shape clients: shared plan cache vs "
        f"recompile-per-client ({CHAIN_DEPTH}-stage chain)",
        HEADERS,
    )

    # The two paths' rounds are interleaved so a slow patch of the host
    # (GC, a noisy neighbour) penalises both alike, and each takes its
    # best-of-ROUNDS — the standard way to measure a ratio under noise.
    naive_seconds = float("inf")
    naive_results = naive_pass_runs = None
    service_rounds: list[float] = []
    service_results = cache_stats = service_pass_runs = None
    for _ in range(ROUNDS):
        began = time.perf_counter()
        naive_results, naive_pass_runs = run_naive()
        naive_seconds = min(naive_seconds, time.perf_counter() - began)
        began = time.perf_counter()
        service_results, cache_stats, service_pass_runs = run_service()
        service_rounds.append(time.perf_counter() - began)

    # One extra measured round under pytest-benchmark for its report.
    bench_seconds, _ = timed_benchmark(benchmark, run_service, rounds=1)
    service_seconds = min(*service_rounds, bench_seconds)

    # Correctness first: every client's serving result is bit-identical to
    # its independently compiled session.
    assert set(service_results) == set(naive_results)
    for client_id, expected in naive_results.items():
        _assert_identical(expected, service_results[client_id], client_id)

    # Exactly one compile for N same-shape clients, N without the cache.
    assert cache_stats.misses == 1
    assert cache_stats.hits == N_CLIENTS - 1
    assert service_pass_runs == 1
    assert naive_pass_runs == N_CLIENTS

    speedup = naive_seconds / service_seconds if service_seconds > 0 else float("inf")
    report.record(
        (0,),
        [
            "shared plan cache",
            N_CLIENTS,
            service_pass_runs,
            round(service_seconds, 4),
            round(1e3 * service_seconds / N_CLIENTS, 3),
            round(speedup, 2),
        ],
    )
    report.record(
        (1,),
        [
            "recompile per client",
            N_CLIENTS,
            naive_pass_runs,
            round(naive_seconds, 4),
            round(1e3 * naive_seconds / N_CLIENTS, 3),
            1.0,
        ],
    )


@pytest.mark.benchmark(group="service")
def test_service_scales_with_cohort_size(benchmark, report_registry):
    """Doubling the cohort must not double the compile count (it stays 1)."""
    service = StreamingService(window_size=WINDOW_SIZE)
    for seed in range(2 * N_CLIENTS):
        service.open(
            f"patient-{seed}", cohort_query(), {"s": ReplaySource(patient_source(seed))}
        )
    assert service.cache_stats.misses == 1
    assert service.cache_stats.hits == 2 * N_CLIENTS - 1

    def one_pump():
        return service.pump({f"patient-{seed}": 800 for seed in range(2 * N_CLIENTS)})

    pump_report = benchmark.pedantic(one_pump, rounds=1, iterations=1)
    assert set(pump_report.ticks) == {f"patient-{seed}" for seed in range(2 * N_CLIENTS)}
    service.close_all()
