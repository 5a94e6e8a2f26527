"""Table 1 — single-core throughput of the streaming engines.

Paper result (million events/second):

===========  =====  =====  =====  =====  =====
Benchmark    Spark  Storm  Flink  Trill  SciPy
===========  =====  =====  =====  =====  =====
TemporalJoin 0.07   0.04   0.09   0.80   —
Upsampling   —      —      —      0.69   15.06
===========  =====  =====  =====  =====  =====

The reproduction measures the same two operations on the micro-batch
engines (Spark/Storm/Flink stand-ins), the Trill-like baseline, the NumLib
(SciPy) kernel, and LifeStream.  The claim being reproduced is the
*ordering*: distributed-style engines ≪ Trill ≪ SciPy on the vectorisable
upsampling, with LifeStream close to or above Trill.
"""

import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.baselines.microbatch import MicroBatchEngine
from repro.baselines.numlib import vectorized_upsample_throughput_kernel
from repro.baselines.trill import TrillEngine, TrillInput, TrillJoin, TrillResample
from repro.bench.workloads import join_workload
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.sources import ArraySource

#: Event counts kept small enough for the record-at-a-time engines.
MICRO_EVENTS = 60_000
FAST_EVENTS = 200_000

HEADERS = ["benchmark", "engine", "events", "seconds", "million events/s"]


@pytest.fixture(scope="module")
def micro_workload():
    return join_workload(MICRO_EVENTS, seed=0)


@pytest.fixture(scope="module")
def fast_workload():
    return join_workload(FAST_EVENTS, seed=1)


def _record(registry, key, benchmark, fn, events):
    report = get_report(registry, "table1_engine_throughput", "Table 1 — engine throughput", HEADERS)
    seconds, _ = timed_benchmark(benchmark, fn)
    report.record(key, [key[0], key[1], events, seconds, events / seconds / 1e6])


# -- temporal join -----------------------------------------------------------


@pytest.mark.parametrize("engine_name", ["spark", "storm", "flink"])
def test_join_microbatch(benchmark, report_registry, micro_workload, engine_name):
    workload = micro_workload
    engine = MicroBatchEngine.from_name(engine_name)

    def run():
        return engine.temporal_join(
            workload.left_times,
            workload.left_values,
            workload.right_times,
            workload.right_values,
            right_duration=workload.right_period,
        )

    _record(report_registry, ("join", engine_name), benchmark, run, workload.total_events)


def test_join_trill(benchmark, report_registry, fast_workload):
    workload = fast_workload

    def run():
        engine = TrillEngine(batch_size=4096)
        return engine.run_join(
            TrillInput(workload.left_times, workload.left_values, workload.left_period),
            TrillInput(workload.right_times, workload.right_values, workload.right_period),
            [],
            [],
            TrillJoin(),
        )

    _record(report_registry, ("join", "trill"), benchmark, run, workload.total_events)


def test_join_lifestream(benchmark, report_registry, fast_workload):
    workload = fast_workload
    left = ArraySource(workload.left_times, workload.left_values, period=workload.left_period)
    right = ArraySource(workload.right_times, workload.right_values, period=workload.right_period)
    query = Query.source("left", period=workload.left_period).join(
        Query.source("right", period=workload.right_period)
    )
    engine = LifeStreamEngine()

    def run():
        return engine.run(query, sources={"left": left, "right": right})

    _record(report_registry, ("join", "lifestream"), benchmark, run, workload.total_events)


# -- upsampling ---------------------------------------------------------------


def test_upsample_trill(benchmark, report_registry, fast_workload):
    workload = fast_workload

    def run():
        engine = TrillEngine(batch_size=4096)
        return engine.run_unary(
            TrillInput(workload.right_times, workload.right_values, workload.right_period),
            [TrillResample(workload.left_period)],
        )

    _record(
        report_registry,
        ("upsample", "trill"),
        benchmark,
        run,
        int(workload.right_times.size),
    )


def test_upsample_scipy(benchmark, report_registry, fast_workload):
    workload = fast_workload
    factor = workload.right_period // workload.left_period

    def run():
        return vectorized_upsample_throughput_kernel(workload.right_values, factor)

    _record(
        report_registry,
        ("upsample", "scipy"),
        benchmark,
        run,
        int(workload.right_times.size),
    )


def test_upsample_lifestream(benchmark, report_registry, fast_workload):
    workload = fast_workload
    source = ArraySource(workload.right_times, workload.right_values, period=workload.right_period)
    query = Query.source("s", period=workload.right_period).resample(period=workload.left_period)
    engine = LifeStreamEngine()

    def run():
        return engine.run(query, sources={"s": source})

    _record(
        report_registry,
        ("upsample", "lifestream"),
        benchmark,
        run,
        int(workload.right_times.size),
    )


def test_table1_ordering_holds(report_registry, micro_workload, fast_workload):
    """The paper's ordering: distributed engines ≪ Trill on the join, SciPy ≫ Trill on upsampling."""
    report = report_registry.get("table1_engine_throughput")
    if report is None or ("join", "trill") not in report.rows:
        pytest.skip("run with --benchmark-only to populate the throughput table")
    throughput = {key: row[4] for key, row in report.rows.items()}
    for engine_name in ("spark", "storm", "flink"):
        assert throughput[("join", engine_name)] < throughput[("join", "trill")]
    assert throughput[("upsample", "scipy")] > throughput[("upsample", "trill")]
