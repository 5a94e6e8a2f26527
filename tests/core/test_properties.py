"""Property-based tests (hypothesis) for the engine's core invariants.

These check the structural properties the paper's optimisations rely on:
the linearity of temporal operators, the bounded memory footprint, interval
algebra laws, and the equivalence of targeted and eager execution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import compile_plan, covered_windows
from repro.core.engine import LifeStreamEngine
from repro.core.intervals import IntervalSet
from repro.core.query import Query
from repro.core.sources import ArraySource
from repro.core.timeutil import LinearTimeMap

# -- strategies -------------------------------------------------------------

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 500)).map(lambda p: (min(p), max(p))),
    max_size=8,
)

periods = st.sampled_from([1, 2, 4, 5, 8, 10])


def gappy_stream(draw, period: int, max_events: int = 400):
    """Draw a sorted, gappy periodic stream as (times, values)."""
    present = draw(
        st.lists(st.booleans(), min_size=1, max_size=max_events).filter(lambda bits: any(bits))
    )
    indices = np.flatnonzero(np.asarray(present, dtype=bool))
    times = indices.astype(np.int64) * period
    values = np.asarray(draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=len(indices),
            max_size=len(indices),
        )
    ), dtype=np.float64)
    return times, values


@st.composite
def periodic_stream(draw, period=None):
    chosen_period = period if period is not None else draw(periods)
    times, values = gappy_stream(draw, chosen_period)
    return chosen_period, times, values


# -- interval algebra -------------------------------------------------------


class TestIntervalSetProperties:
    @given(intervals_strategy, intervals_strategy)
    def test_intersection_is_subset_of_both(self, a, b):
        left, right = IntervalSet(a), IntervalSet(b)
        intersection = left.intersect(right)
        assert intersection.total_length() <= left.total_length()
        assert intersection.total_length() <= right.total_length()
        assert intersection.intersect(left) == intersection
        assert intersection.intersect(right) == intersection

    @given(intervals_strategy, intervals_strategy)
    def test_union_length_inclusion_exclusion(self, a, b):
        left, right = IntervalSet(a), IntervalSet(b)
        union = left.union(right)
        intersection = left.intersect(right)
        assert (
            union.total_length()
            == left.total_length() + right.total_length() - intersection.total_length()
        )



# -- linear time maps --------------------------------------------------------


class TestLinearTimeMapProperties:
    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_shift_composition_is_additive(self, a, b):
        composed = LinearTimeMap.shifted(a).compose(LinearTimeMap.shifted(b))
        assert composed == LinearTimeMap.shifted(a + b)

    @given(st.integers(1, 20), st.integers(-500, 500))
    def test_invert_round_trips(self, scale, shift):
        time_map = LinearTimeMap.scaled(scale).compose(LinearTimeMap.shifted(shift))
        assert time_map.invert().compose(time_map) == LinearTimeMap.identity()


# -- engine-level invariants ---------------------------------------------------


class TestEngineProperties:
    @settings(max_examples=25, deadline=None)
    @given(periodic_stream(period=2), st.sampled_from([2, 10, 64]))
    def test_covered_windows_hold_every_event(self, stream, window_size):
        period, times, values = stream
        plan = compile_plan(
            Query.source("s", period=period).select(lambda v: v),
            {"s": ArraySource(times, values, period=period)},
            window_size=window_size,
        )
        starts = covered_windows(plan)
        assert (np.diff(starts) > 0).all()
        assert np.isin(times - times % plan.sink.dimension, starts).all()

    @settings(max_examples=25, deadline=None)
    @given(periodic_stream(period=2))
    def test_select_preserves_event_count_and_times(self, stream):
        period, times, values = stream
        source = ArraySource(times, values, period=period)
        engine = LifeStreamEngine(window_size=64)
        result = engine.run(
            Query.source("s", period=period).select(lambda v: v * 2), sources={"s": source}
        )
        np.testing.assert_array_equal(result.times, times)
        np.testing.assert_allclose(result.values, values * 2)

    @settings(max_examples=25, deadline=None)
    @given(periodic_stream())
    def test_where_output_is_subset(self, stream):
        period, times, values = stream
        source = ArraySource(times, values, period=period)
        engine = LifeStreamEngine(window_size=80)
        result = engine.run(
            Query.source("s", period=period).where(lambda v: v > 0), sources={"s": source}
        )
        assert set(result.times.tolist()) <= set(times.tolist())
        assert np.all(result.values > 0)

    @settings(max_examples=20, deadline=None)
    @given(periodic_stream(period=2), periodic_stream(period=8))
    def test_targeted_and_eager_execution_agree(self, fine, coarse):
        _, fine_times, fine_values = fine
        _, coarse_times, coarse_values = coarse
        ecg = ArraySource(fine_times, fine_values, period=2)
        abp = ArraySource(coarse_times, coarse_values, period=8)
        query = Query.source("ecg", period=2).join(
            Query.source("abp", period=8), lambda l, r: l + r
        )
        engine = LifeStreamEngine(window_size=128)
        targeted = engine.run(query, sources={"ecg": ecg, "abp": abp}, targeted=True)
        eager = engine.run(query, sources={"ecg": ecg, "abp": abp}, targeted=False)
        np.testing.assert_array_equal(targeted.times, eager.times)
        np.testing.assert_allclose(targeted.values, eager.values)

    @settings(max_examples=20, deadline=None)
    @given(periodic_stream(period=2), periodic_stream(period=8))
    def test_inner_join_output_bounded_by_left_input(self, fine, coarse):
        _, fine_times, fine_values = fine
        _, coarse_times, coarse_values = coarse
        ecg = ArraySource(fine_times, fine_values, period=2)
        abp = ArraySource(coarse_times, coarse_values, period=8)
        query = Query.source("ecg", period=2).join(Query.source("abp", period=8))
        engine = LifeStreamEngine(window_size=128)
        result = engine.run(query, sources={"ecg": ecg, "abp": abp})
        # The bounded-footprint property: the join cannot invent events.
        assert len(result) <= fine_times.size
        assert set(result.times.tolist()) <= set(fine_times.tolist())

    @settings(max_examples=15, deadline=None)
    @given(periodic_stream(period=2), st.integers(1, 8))
    def test_memory_plan_independent_of_data_volume(self, stream, repetitions):
        period, times, values = stream
        short = ArraySource(times, values, period=period)
        long_times = np.concatenate(
            [times + k * (int(times[-1]) + period) for k in range(repetitions)]
        )
        long_values = np.tile(values, repetitions)
        long = ArraySource(long_times, long_values, period=period)
        query = Query.source("s", period=period).tumbling_window(16).mean()
        short_plan = compile_plan(query, {"s": short}, window_size=64)
        long_plan = compile_plan(query, {"s": long}, window_size=64)
        assert short_plan.memory_plan.total_bytes == long_plan.memory_plan.total_bytes
