"""Unit tests for the compiler passes: locality tracing, static memory
allocation, and the lineage's covered windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import (
    build_plan,
    compile_plan,
    coverage_program,
    covered_windows,
    estimate_footprint,
    trace_dimensions,
    uniform_dimension,
)
from repro.core.compiler.locality import assign_dimensions
from repro.core.compiler.memory import allocate
from repro.core.engine import CompiledQuery
from repro.core.graph import describe_plan, total_preallocated_bytes
from repro.core.query import Query
from repro.core.runtime import SerialBackend
from repro.core.runtime.executor import span_window_count
from repro.core.sources import ArraySource
from repro.core.timeutil import TICKS_PER_MINUTE
from repro.errors import LocalityTracingError, MemoryPlanError

from tests.conftest import make_source


def listing1_query() -> Query:
    """The paper's running example (Listing 1): 500 Hz joined with 200 Hz."""
    sig500 = Query.source("sig500", frequency_hz=500)
    sig200 = Query.source("sig200", frequency_hz=200)
    left = sig500.multicast(
        lambda s: s.select(lambda v: v).join(
            s.tumbling_window(100).mean(), lambda value, mean: value - mean
        )
    )
    return left.join(sig200.select(lambda v: v), lambda l, r: l + r)


def listing1_sources():
    sig500 = make_source(5000, period=2)
    sig200 = make_source(2000, period=5)
    return {"sig500": sig500, "sig200": sig200}


class TestLocalityTracing:
    def test_figure6_dimensions_converge_to_lcm(self):
        # Figure 6: the example query's dimensions converge to 100 (the LCM
        # of the 2-tick and 5-tick periods and the 100-tick window).
        sink = build_plan(listing1_query(), listing1_sources())
        dims = trace_dimensions(sink, window_size=1)
        assert set(dims.values()) == {100}

    def test_dimensions_scale_up_to_window_size(self):
        sink = build_plan(listing1_query(), listing1_sources())
        dims = trace_dimensions(sink, window_size=TICKS_PER_MINUTE)
        assert set(dims.values()) == {60_000}

    def test_every_dimension_is_multiple_of_its_period(self):
        sink = build_plan(listing1_query(), listing1_sources())
        assign_dimensions(sink, window_size=1234)
        for node in sink.iter_nodes():
            assert node.dimension % node.descriptor.period == 0

    def test_uniform_dimension_after_tracing(self):
        sink = build_plan(listing1_query(), listing1_sources())
        assign_dimensions(sink, window_size=1000)
        assert uniform_dimension(sink) % 100 == 0

    def test_plain_select_keeps_period_dimension_before_scaling(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        sink = build_plan(query, {"s": ramp_500hz})
        dims = trace_dimensions(sink, window_size=1)
        assert set(dims.values()) == {2}

    def test_rejects_invalid_window_size(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        sink = build_plan(query, {"s": ramp_500hz})
        with pytest.raises(LocalityTracingError):
            trace_dimensions(sink, window_size=0)

    def test_describe_plan_uses_paper_notation(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        sink = build_plan(query, {"s": ramp_500hz})
        assign_dimensions(sink, window_size=1000)
        description = describe_plan(sink)
        assert "(0,2)[1000]" in description


class TestStaticMemoryAllocation:
    def test_footprint_estimate_matches_allocation(self):
        sink = build_plan(listing1_query(), listing1_sources())
        assign_dimensions(sink, window_size=1000)
        estimate = estimate_footprint(sink)
        plan = allocate(sink)
        assert plan.total_bytes == estimate
        assert plan.total_bytes == total_preallocated_bytes(sink)

    def test_footprint_is_bounded_by_dimension_not_data_size(self):
        # The bounded-memory property: buffers depend on the window size, not
        # on how much data will stream through them.
        small_sources = {"sig500": make_source(1000, period=2), "sig200": make_source(400, period=5)}
        large_sources = {"sig500": make_source(100_000, period=2), "sig200": make_source(40_000, period=5)}
        small_plan = compile_plan(listing1_query(), small_sources, window_size=1000)
        large_plan = compile_plan(listing1_query(), large_sources, window_size=1000)
        assert small_plan.memory_plan.total_bytes == large_plan.memory_plan.total_bytes

    def test_allocation_requires_dimensions(self):
        sink = build_plan(listing1_query(), listing1_sources())
        with pytest.raises(MemoryPlanError):
            allocate(sink)

    def test_per_node_breakdown_covers_every_node(self):
        sink = build_plan(listing1_query(), listing1_sources())
        assign_dimensions(sink, window_size=1000)
        plan = allocate(sink)
        assert len(plan.per_node_bytes) == len(list(sink.iter_nodes()))

    def test_memory_plan_str(self):
        sink = build_plan(listing1_query(), listing1_sources())
        assign_dimensions(sink, window_size=1000)
        plan = allocate(sink)
        assert "FWindows" in str(plan)


class TestLineageAndCoverage:
    def test_elementwise_ops_cover_the_windows_their_source_meets(self, gappy_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v).where(lambda v: v > 0)
        plan = compile_plan(query, {"s": gappy_500hz}, window_size=1000)
        # Data in [0, 2000) and [6000, 10000).
        assert covered_windows(plan).tolist() == [0, 1000, 6000, 7000, 8000, 9000]

    def test_inner_join_intersects_coverage(self):
        left = make_source(1000, period=2)  # covers [0, 2000)
        right = make_source(1000, period=2, offset=1000)  # covers [1000, 3000)
        query = Query.source("a", frequency_hz=500).join(Query.source("b", frequency_hz=500))
        plan = compile_plan(query, {"a": left, "b": right}, window_size=500)
        assert covered_windows(plan).tolist() == [1000, 1500]

    def test_clone_plans_on_its_templates_program(self):
        # A compile builds the program once; clones reuse their template's,
        # and explain() asks it about the clone's own sources.
        query = Query.source("a", frequency_hz=500).join(Query.source("b", frequency_hz=500))
        template = compile_plan(
            query, {"a": make_source(1000, period=2), "b": make_source(1000, period=2)},
            window_size=500,
        )
        clone = template.instantiate(
            {"a": make_source(1000, period=2), "b": make_source(500, period=2)}
        )
        assert template.program is not None and clone.program is None
        assert coverage_program(clone) is template.program
        assert "covered windows: 2" in clone.explain()
        assert "covered windows: 4" in template.explain()

    def test_shift_moves_the_covered_windows(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).shift(500)
        plan = compile_plan(query, {"s": ramp_500hz}, window_size=1000)
        windows = covered_windows(plan)
        # Output data lies in [500, 10500), on a grid of phase 500; the rows
        # may mark a window more at either end, never one less.
        assert ((windows - 500) % 1000 == 0).all()
        assert windows[0] <= 500 and windows[-1] + 1000 >= 10_500
        assert windows.size == (windows[-1] - windows[0]) // 1000 + 1

    def test_targeted_run_skips_the_unjoinable_source_data(self):
        # ECG exists everywhere, ABP only in the first half: half of the ECG
        # can never reach the output of an inner join.
        ecg = make_source(2000, period=2)  # [0, 4000)
        abp = make_source(250, period=8)  # [0, 2000)
        query = Query.source("ecg", frequency_hz=500).join(Query.source("abp", frequency_hz=125))
        plan = compile_plan(query, {"ecg": ecg, "abp": abp}, window_size=1000)
        assert covered_windows(plan).tolist() == [0, 1000]
        stats = CompiledQuery(plan, targeted=True, backend=SerialBackend()).run().stats
        assert stats.windows_skipped == 2

    def test_compiled_plan_explain_mentions_coverage_and_memory(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        plan = compile_plan(query, {"s": ramp_500hz}, window_size=1000)
        text = plan.explain()
        assert "pre-allocated" in text
        assert "covered windows: 10" in text


def _select_plan(times, period: int, window_size: int, offset: int = 0):
    """A plain select over one source holding events at *times*."""
    source = ArraySource(
        np.asarray(times, dtype=np.int64), np.zeros(len(times)), period=period, offset=offset
    )
    query = Query.source("s", period=period).select(lambda v: v)
    return compile_plan(query, {"s": source}, window_size=window_size), source


class TestCoveredWindows:
    """The sink windows a source's coverage meets, on the sink's grid."""

    def test_single_interval(self):
        plan, _ = _select_plan(range(100), period=1, window_size=25)
        assert covered_windows(plan).tolist() == [0, 25, 50, 75]

    def test_partial_last_window(self):
        plan, _ = _select_plan(range(90), period=1, window_size=25)
        assert covered_windows(plan).tolist() == [0, 25, 50, 75]

    def test_skips_a_gap(self):
        plan, _ = _select_plan([*range(10), *range(100, 110)], period=1, window_size=25)
        assert covered_windows(plan).tolist() == [0, 100]

    def test_no_duplicates_when_intervals_share_a_window(self):
        plan, _ = _select_plan([*range(30), *range(40, 45)], period=1, window_size=25)
        assert covered_windows(plan).tolist() == [0, 25]

    def test_respects_the_grid_phase(self):
        # Period 4 at phase 2: events on 14, 18, ..., 38 cover [14, 42).
        plan, _ = _select_plan(range(14, 40, 4), period=4, window_size=20, offset=2)
        assert plan.sink.descriptor.offset == 2
        assert covered_windows(plan).tolist() == [2, 22]

    def test_contiguous_coverage_marks_every_window_of_its_span(self):
        plan, source = _select_plan(range(0, 1000, 2), period=2, window_size=30)
        windows = covered_windows(plan)
        assert windows.size == span_window_count(plan, source.coverage().span()) == 34

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 300), min_size=1), st.sampled_from([2, 10, 64]))
    def test_marks_exactly_the_windows_holding_an_event(self, slots, window_size):
        times = np.asarray(sorted(slots), dtype=np.int64) * 2
        plan, _ = _select_plan(times, period=2, window_size=window_size)
        dimension = plan.sink.dimension
        assert covered_windows(plan).tolist() == sorted({int(t - t % dimension) for t in times})
