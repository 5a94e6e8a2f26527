"""Figure 9(a) — primitive micro-benchmarks: LifeStream vs the Trill baseline.

Paper result: Select and Where are within ~20% of Trill; Aggregate, Chop,
ClipJoin and Join are 2.2×, 2.0×, 5.3× and 6.7× faster on LifeStream.  The
claim reproduced here is that the simple element-wise primitives are roughly
at parity while the stateful/combining primitives are substantially faster
on LifeStream.
"""

import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.baselines.trill import (
    TrillChop,
    TrillClipJoin,
    TrillEngine,
    TrillInput,
    TrillJoin,
    TrillSelect,
    TrillTumblingAggregate,
    TrillWhere,
)
from repro.bench.workloads import join_workload, synthetic_signal
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.sources import ArraySource

#: Synthetic 1000 Hz events for the unary primitives.
N_EVENTS = 400_000

HEADERS = ["primitive", "engine", "events", "seconds", "million events/s"]


@pytest.fixture(scope="module")
def signal():
    times, values = synthetic_signal(N_EVENTS, frequency_hz=1000.0, seed=0)
    return times, values


@pytest.fixture(scope="module")
def joinable():
    return join_workload(N_EVENTS, seed=1)


def _record(registry, key, benchmark, fn, events):
    report = get_report(registry, "fig9a_primitives", "Figure 9(a) — primitive micro-benchmarks", HEADERS)
    seconds, _ = timed_benchmark(benchmark, fn)
    report.record(key, [key[0], key[1], events, seconds, events / seconds / 1e6])


def _lifestream_unary(signal, query_builder):
    times, values = signal
    source = ArraySource(times, values, period=1)
    query = query_builder(Query.source("s", frequency_hz=1000))
    engine = LifeStreamEngine()

    def run():
        return engine.run(query, sources={"s": source})

    return run


def _trill_unary(signal, operators_builder):
    times, values = signal

    def run():
        engine = TrillEngine(batch_size=4096)
        return engine.run_unary(TrillInput(times, values, 1), operators_builder())

    return run


# -- Select -------------------------------------------------------------------


def test_select_lifestream(benchmark, report_registry, signal):
    run = _lifestream_unary(signal, lambda q: q.select(lambda v: v * 2.0 + 1.0))
    _record(report_registry, ("select", "lifestream"), benchmark, run, N_EVENTS)


def test_select_trill(benchmark, report_registry, signal):
    run = _trill_unary(signal, lambda: [TrillSelect(lambda v: v * 2.0 + 1.0)])
    _record(report_registry, ("select", "trill"), benchmark, run, N_EVENTS)


# -- Where --------------------------------------------------------------------


def test_where_lifestream(benchmark, report_registry, signal):
    run = _lifestream_unary(signal, lambda q: q.where(lambda v: v > 0.5))
    _record(report_registry, ("where", "lifestream"), benchmark, run, N_EVENTS)


def test_where_trill(benchmark, report_registry, signal):
    run = _trill_unary(signal, lambda: [TrillWhere(lambda v: v > 0.5)])
    _record(report_registry, ("where", "trill"), benchmark, run, N_EVENTS)


# -- Aggregate ----------------------------------------------------------------


def test_aggregate_lifestream(benchmark, report_registry, signal):
    run = _lifestream_unary(signal, lambda q: q.tumbling_window(100).mean())
    _record(report_registry, ("aggregate", "lifestream"), benchmark, run, N_EVENTS)


def test_aggregate_trill(benchmark, report_registry, signal):
    run = _trill_unary(signal, lambda: [TrillTumblingAggregate(window=100, func="mean")])
    _record(report_registry, ("aggregate", "trill"), benchmark, run, N_EVENTS)


# -- Chop ---------------------------------------------------------------------


def test_chop_lifestream(benchmark, report_registry, signal):
    run = _lifestream_unary(signal, lambda q: q.tumbling_window(100).mean().chop(1))
    _record(report_registry, ("chop", "lifestream"), benchmark, run, N_EVENTS)


def test_chop_trill(benchmark, report_registry, signal):
    run = _trill_unary(
        signal, lambda: [TrillTumblingAggregate(window=100, func="mean"), TrillChop(1)]
    )
    _record(report_registry, ("chop", "trill"), benchmark, run, N_EVENTS)


# -- ClipJoin -----------------------------------------------------------------


def test_clipjoin_lifestream(benchmark, report_registry, joinable):
    workload = joinable
    left = ArraySource(workload.left_times, workload.left_values, period=workload.left_period)
    right = ArraySource(workload.right_times, workload.right_values, period=workload.right_period)
    query = Query.source("l", period=workload.left_period).clip_join(
        Query.source("r", period=workload.right_period)
    )
    engine = LifeStreamEngine()

    def run():
        return engine.run(query, sources={"l": left, "r": right})

    _record(report_registry, ("clipjoin", "lifestream"), benchmark, run, workload.total_events)


def test_clipjoin_trill(benchmark, report_registry, joinable):
    workload = joinable

    def run():
        engine = TrillEngine(batch_size=4096)
        return engine.run_join(
            TrillInput(workload.left_times, workload.left_values, workload.left_period),
            TrillInput(workload.right_times, workload.right_values, workload.right_period),
            [],
            [],
            TrillClipJoin(),
        )

    _record(report_registry, ("clipjoin", "trill"), benchmark, run, workload.total_events)


# -- Join ---------------------------------------------------------------------


def test_join_lifestream(benchmark, report_registry, joinable):
    workload = joinable
    left = ArraySource(workload.left_times, workload.left_values, period=workload.left_period)
    right = ArraySource(workload.right_times, workload.right_values, period=workload.right_period)
    query = Query.source("l", period=workload.left_period).join(
        Query.source("r", period=workload.right_period), lambda a, b: a + b
    )
    engine = LifeStreamEngine()

    def run():
        return engine.run(query, sources={"l": left, "r": right})

    _record(report_registry, ("join", "lifestream"), benchmark, run, workload.total_events)


def test_join_trill(benchmark, report_registry, joinable):
    workload = joinable

    def run():
        engine = TrillEngine(batch_size=4096)
        return engine.run_join(
            TrillInput(workload.left_times, workload.left_values, workload.left_period),
            TrillInput(workload.right_times, workload.right_values, workload.right_period),
            [],
            [],
            TrillJoin(lambda a, b: a + b),
        )

    _record(report_registry, ("join", "trill"), benchmark, run, workload.total_events)
