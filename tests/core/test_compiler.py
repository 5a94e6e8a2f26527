"""Unit tests for the compiler passes: locality tracing, static memory
allocation and lineage/coverage propagation."""

import pytest

from repro.core.compiler import (
    backward_time_map,
    build_plan,
    compile_plan,
    estimate_footprint,
    forward_time_map,
    propagate_coverage,
    redundant_source_coverage,
    trace_dimensions,
    uniform_dimension,
)
from repro.core.compiler.locality import assign_dimensions
from repro.core.compiler.memory import allocate
from repro.core.graph import describe_plan, source_nodes, total_preallocated_bytes
from repro.core.intervals import IntervalSet
from repro.core.query import Query
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
    def test_source_coverage_propagates_through_elementwise_ops(self, gappy_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v).where(lambda v: v > 0)
        plan = compile_plan(query, {"s": gappy_500hz}, window_size=1000)
        assert plan.output_coverage == gappy_500hz.coverage()

    def test_inner_join_intersects_coverage(self):
        left = make_source(1000, period=2)  # covers [0, 2000)
        right = make_source(1000, period=2, offset=1000)  # covers [1000, 3000)
        query = Query.source("a", frequency_hz=500).join(Query.source("b", frequency_hz=500))
        plan = compile_plan(query, {"a": left, "b": right}, window_size=500)
        assert plan.output_coverage == IntervalSet([(1000, 2000)])

    def test_clone_propagates_coverage_only_when_explained(self):
        # Clones plan their ticks on window rows: instantiate propagates
        # nothing, and explain() derives the clone's own coverage on demand.
        query = Query.source("a", frequency_hz=500).join(Query.source("b", frequency_hz=500))
        template = compile_plan(
            query, {"a": make_source(1000, period=2), "b": make_source(1000, period=2)},
            window_size=500,
        )
        clone = template.instantiate(
            {"a": make_source(1000, period=2), "b": make_source(500, period=2)}
        )
        assert clone.output_coverage is None
        assert "output coverage: 1000 ticks" in clone.explain()
        assert "output coverage: 2000 ticks" in template.explain()

    def test_shift_translates_coverage(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).shift(500)
        plan = compile_plan(query, {"s": ramp_500hz}, window_size=1000)
        start, end = plan.output_coverage.span()
        assert end == 10_000 + 500
        assert start <= 500

    def test_forward_and_backward_time_maps_compose(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).shift(100).shift(23)
        plan = compile_plan(query, {"s": ramp_500hz}, window_size=1000)
        source = source_nodes(plan.sink)[0]
        forward = forward_time_map(plan.sink, source)
        backward = backward_time_map(plan.sink, source)
        assert forward.apply(0) == 123
        assert backward.apply(forward.apply(4200)) == 4200

    def test_redundant_source_coverage_identifies_skippable_data(self):
        # ECG exists everywhere, ABP only in the first half: half of the ECG
        # can never reach the output of an inner join.
        ecg = make_source(2000, period=2)  # [0, 4000)
        abp = make_source(250, period=8)  # [0, 2000)
        query = Query.source("ecg", frequency_hz=500).join(Query.source("abp", frequency_hz=125))
        plan = compile_plan(query, {"ecg": ecg, "abp": abp}, window_size=1000)
        propagate_coverage(plan.sink)
        skipped = redundant_source_coverage(plan.sink)
        ecg_node = next(n for n in source_nodes(plan.sink) if n.source is ecg)
        assert skipped[ecg_node.name].total_length() == 2000

    def test_compiled_plan_explain_mentions_coverage_and_memory(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        plan = compile_plan(query, {"s": ramp_500hz}, window_size=1000)
        text = plan.explain()
        assert "pre-allocated" in text
        assert "coverage" in text
