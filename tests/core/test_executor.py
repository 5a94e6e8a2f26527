"""Unit tests for plan execution: targeted vs eager, stats, repeatability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import compile_plan
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime.executor import span_window_count
from repro.core.runtime.result import StreamResult
from repro.core.sources import ArraySource
from repro.errors import ExecutionError


def e2e_like_query() -> Query:
    ecg = Query.source("ecg", frequency_hz=500).select(lambda v: v * 2)
    abp = Query.source("abp", frequency_hz=125).alter_period(2, mode="hold")
    return ecg.join(abp, lambda left, right: left + right)


class TestTargetedVersusEager:
    @pytest.fixture
    def gappy_pair(self):
        # ECG missing in the middle, ABP missing at the end: the mutually
        # overlapping region is only the first quarter of the span.
        n = 8000
        ecg_times = np.arange(n, dtype=np.int64) * 2
        ecg_keep = np.ones(n, dtype=bool)
        ecg_keep[2000:6000] = False
        abp_times = np.arange(n // 4, dtype=np.int64) * 8
        abp_keep = np.ones(n // 4, dtype=bool)
        abp_keep[1000:] = False
        ecg = ArraySource(ecg_times[ecg_keep], np.arange(n, dtype=float)[ecg_keep], period=2)
        abp = ArraySource(
            abp_times[abp_keep], np.arange(n // 4, dtype=float)[abp_keep], period=8
        )
        return ecg, abp

    def test_results_identical(self, gappy_pair):
        ecg, abp = gappy_pair
        engine = LifeStreamEngine(window_size=1000)
        targeted = engine.run(e2e_like_query(), sources={"ecg": ecg, "abp": abp}, targeted=True)
        eager = engine.run(e2e_like_query(), sources={"ecg": ecg, "abp": abp}, targeted=False)
        np.testing.assert_array_equal(targeted.times, eager.times)
        np.testing.assert_allclose(targeted.values, eager.values)

    def test_targeted_computes_fewer_windows(self, gappy_pair):
        ecg, abp = gappy_pair
        engine = LifeStreamEngine(window_size=1000)
        targeted = engine.run(e2e_like_query(), sources={"ecg": ecg, "abp": abp}, targeted=True)
        eager = engine.run(e2e_like_query(), sources={"ecg": ecg, "abp": abp}, targeted=False)
        assert targeted.stats.windows_computed < eager.stats.windows_computed
        assert targeted.stats.windows_skipped > 0
        assert eager.stats.windows_skipped == 0

    def test_skipped_windows_match_coverage_gap(self, gappy_pair):
        ecg, abp = gappy_pair
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(e2e_like_query(), sources={"ecg": ecg, "abp": abp})
        targeted = compiled.run(targeted=True)
        # The joinable region is [0, 4000) out of a [0, 16000) span.
        assert targeted.stats.output_windows == 4

    def test_stats_record_targeted_flag(self, gappy_pair):
        ecg, abp = gappy_pair
        engine = LifeStreamEngine(window_size=1000)
        result = engine.run(e2e_like_query(), sources={"ecg": ecg, "abp": abp}, targeted=False)
        assert result.stats.targeted is False


class TestExecutionStats:
    def test_events_ingested_counts_all_sources(self, engine, ramp_500hz, ramp_125hz):
        query = Query.source("ecg", frequency_hz=500).join(Query.source("abp", frequency_hz=125))
        result = engine.run(query, sources={"ecg": ramp_500hz, "abp": ramp_125hz})
        assert result.stats.events_ingested == ramp_500hz.event_count() + ramp_125hz.event_count()

    def test_events_emitted_matches_result_length(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).where(lambda v: v < 50)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert result.stats.events_emitted == len(result)

    def test_per_node_window_counts(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        result = engine.run(query, sources={"s": ramp_500hz})
        counts = set(result.stats.per_node_windows.values())
        assert counts == {result.stats.output_windows}

    def test_preallocated_bytes_reported(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert result.stats.preallocated_bytes > 0

    def test_throughput_property(self):
        from repro.core.runtime.result import ExecutionStats

        stats = ExecutionStats(events_ingested=1000, elapsed_seconds=0.5)
        assert stats.throughput_events_per_second == 2000
        assert ExecutionStats().throughput_events_per_second == 0.0


class TestRepeatability:
    def test_compiled_query_can_run_twice(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).tumbling_window(100).mean()
        compiled = engine.compile(query, sources={"s": ramp_500hz})
        first = compiled.run()
        second = compiled.run()
        np.testing.assert_array_equal(first.times, second.times)
        np.testing.assert_allclose(first.values, second.values)

    def test_stateful_operators_reset_between_runs(self, engine, ramp_500hz, ramp_125hz):
        query = Query.source("a", frequency_hz=500).join(
            Query.source("b", frequency_hz=125), lambda l, r: l + r
        )
        compiled = engine.compile(query, sources={"a": ramp_500hz, "b": ramp_125hz})
        first = compiled.run()
        second = compiled.run()
        np.testing.assert_allclose(first.values, second.values)

    def test_empty_source_produces_empty_result(self, engine):
        empty = ArraySource(np.empty(0, dtype=np.int64), np.empty(0), period=2)
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        result = engine.run(query, sources={"s": empty})
        assert len(result) == 0
        assert result.stats.output_windows == 0


class TestStreamResult:
    def test_iteration_yields_events(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).where(lambda v: v < 3)
        result = engine.run(query, sources={"s": ramp_500hz})
        events = list(result)
        assert [event.value for event in events] == [0.0, 1.0, 2.0]
        assert events == result.to_events()

    def test_value_at(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v * 2)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert result.value_at(10) == 10.0
        with pytest.raises(KeyError):
            result.value_at(11)

    def test_time_span(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert result.time_span() == (0, 10_000)

    def test_empty_result_helpers(self):
        empty = StreamResult.empty()
        assert len(empty) == 0
        assert empty.time_span() == (0, 0)
        assert empty.to_events() == []

    def test_window_size_must_be_positive(self):
        with pytest.raises(ExecutionError):
            LifeStreamEngine(window_size=0)


class TestSpanWindowCount:
    @given(st.integers(-500, 500), st.integers(0, 400), st.sampled_from([0, 3, 30]))
    @settings(max_examples=100, deadline=None)
    def test_counts_the_grid_windows_a_span_meets(self, begin, length, offset):
        source = ArraySource(
            np.arange(offset, offset + 200, 2, dtype=np.int64), np.zeros(100), period=2
        )
        plan = compile_plan(
            Query.source("s", period=2).select(lambda v: v), {"s": source}, window_size=10
        )
        dimension, phase = plan.sink.dimension, plan.sink.descriptor.offset
        met = {
            phase + (t - phase) // dimension * dimension for t in range(begin, begin + length)
        }
        assert span_window_count(plan, (begin, begin + length)) == len(met)

    def test_no_span_no_windows(self, ramp_500hz):
        plan = compile_plan(Query.source("s", period=2), {"s": ramp_500hz}, window_size=10)
        assert span_window_count(plan, None) == 0
