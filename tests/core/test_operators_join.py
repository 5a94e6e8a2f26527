"""Unit tests for temporal Join and ClipJoin."""

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.sources import ArraySource
from repro.errors import QueryConstructionError

from tests.conftest import make_source


class TestInnerJoin:
    def test_equal_rate_join_pairs_every_event(self, engine, ramp_500hz):
        other = make_source(5000, period=2, value_fn=lambda i: float(-i))
        query = Query.source("a", frequency_hz=500).join(
            Query.source("b", frequency_hz=500), lambda left, right: left + right
        )
        result = engine.run(query, sources={"a": ramp_500hz, "b": other})
        assert len(result) == 5000
        np.testing.assert_allclose(result.values, 0.0)

    def test_mixed_rate_join_uses_finer_grid(self, engine, ramp_500hz, ramp_125hz):
        query = Query.source("a", frequency_hz=500).join(
            Query.source("b", frequency_hz=125), lambda left, right: right
        )
        result = engine.run(query, sources={"a": ramp_500hz, "b": ramp_125hz})
        # Output events land on the 500 Hz grid (the finer one, Figure 5(c)).
        assert np.all(np.diff(result.times) == 2)
        # Each 125 Hz value is active for 8 ticks and therefore pairs with
        # four consecutive 500 Hz events.
        np.testing.assert_array_equal(result.values[:8], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_figure5c_event_lineage(self, engine):
        # Reproduces Figure 5(c): left (0,1), right (0,2); output on (0,1)
        # pairing L_i with the right event active at its sync time.
        left = make_source(10, period=1)
        right = make_source(5, period=2, value_fn=lambda i: float(i * 10))
        query = Query.source("left", period=1).join(
            Query.source("right", period=2), lambda l, r: l * 100 + r
        )
        result = engine.run(query, sources={"left": left, "right": right})
        assert len(result) == 10
        expected_right = np.repeat(np.arange(5) * 10.0, 2)
        np.testing.assert_allclose(result.values, np.arange(10) * 100.0 + expected_right)

    def test_no_overlap_produces_empty_result(self, engine):
        left = make_source(100, period=2)
        right = make_source(100, period=2, offset=10_000)
        query = Query.source("a", frequency_hz=500).join(Query.source("b", frequency_hz=500))
        result = engine.run(query, sources={"a": left, "b": right})
        assert len(result) == 0

    def test_partial_overlap_only_joins_shared_region(self, engine, gappy_500hz, ramp_500hz):
        query = Query.source("a", frequency_hz=500).join(
            Query.source("b", frequency_hz=500), lambda left, right: left - right
        )
        result = engine.run(query, sources={"a": gappy_500hz, "b": ramp_500hz})
        assert len(result) == gappy_500hz.event_count()
        np.testing.assert_allclose(result.values, 0.0)

    def test_default_combiner_keeps_left_payload(self, engine, ramp_500hz, ramp_125hz):
        query = Query.source("a", frequency_hz=500).join(Query.source("b", frequency_hz=125))
        result = engine.run(query, sources={"a": ramp_500hz, "b": ramp_125hz})
        np.testing.assert_allclose(result.values, ramp_500hz.values[: len(result)])

    def test_long_duration_right_event_spans_fwindow_boundary(self):
        # Figure 8: an event whose duration crosses the FWindow boundary must
        # still join with left events in the next window (stateful join).
        engine = LifeStreamEngine(window_size=100)
        left = make_source(200, period=2)
        right_times = np.array([0, 90])
        right_values = np.array([1.0, 2.0])
        right_durations = np.array([10, 60])  # second event spans [90, 150)
        from repro.core.sources import ArraySource

        right = ArraySource(right_times, right_values, period=2, durations=right_durations)
        query = Query.source("a", frequency_hz=500).join(
            Query.source("b", frequency_hz=500), lambda l, r: r
        )
        result = engine.run(query, sources={"a": left, "b": right})
        # Left events at ticks 100..148 fall inside the second right event's
        # lifetime even though its sync time is in the previous window.
        in_second_window = result.times[(result.times >= 100) & (result.times < 150)]
        assert in_second_window.size == 25

    def test_unknown_join_kind_rejected(self):
        with pytest.raises(QueryConstructionError):
            Query.source("a", frequency_hz=500).join(
                Query.source("b", frequency_hz=500), how="cross"
            )

    def test_join_requires_query_argument(self):
        with pytest.raises(QueryConstructionError):
            Query.source("a", frequency_hz=500).join("not a query")


class TestLeftAndOuterJoin:
    def test_left_join_keeps_unmatched_left_events(self, engine, ramp_500hz):
        right = make_source(100, period=2)  # only covers the first 200 ticks
        query = Query.source("a", frequency_hz=500).left_join(
            Query.source("b", frequency_hz=500), lambda left, right: right, fill_value=-1.0
        )
        result = engine.run(query, sources={"a": ramp_500hz, "b": right})
        assert len(result) == ramp_500hz.event_count()
        assert np.all(result.values[100:] == -1.0)

    def test_outer_join_covers_union(self, engine):
        left = make_source(100, period=2)
        right = make_source(100, period=2, offset=400)
        query = Query.source("a", frequency_hz=500).outer_join(
            Query.source("b", frequency_hz=500), lambda l, r: np.where(np.isnan(l), r, l)
        )
        result = engine.run(query, sources={"a": left, "b": right})
        assert len(result) == 200

    def test_inner_join_is_subset_of_left_join(self, engine, gappy_500hz, ramp_500hz):
        inner = engine.run(
            Query.source("a", frequency_hz=500).join(Query.source("b", frequency_hz=500)),
            sources={"a": ramp_500hz, "b": gappy_500hz},
        )
        left = engine.run(
            Query.source("a", frequency_hz=500).left_join(Query.source("b", frequency_hz=500)),
            sources={"a": ramp_500hz, "b": gappy_500hz},
        )
        assert set(inner.times.tolist()) <= set(left.times.tolist())
        assert len(left) == ramp_500hz.event_count()


class TestClipJoin:
    def test_pairs_with_immediately_succeeding_event(self, engine):
        left = make_source(10, period=100)
        right = make_source(10, period=100, offset=50, value_fn=lambda i: float(i * 10))
        query = Query.source("a", period=100).clip_join(
            Query.source("b", period=100, offset=50), lambda l, r: r
        )
        result = engine.run(query, sources={"a": left, "b": right})
        # Left event at time 100*i is followed by right event at 100*i + 50
        # carrying value 10*i.
        assert len(result) >= 9
        np.testing.assert_allclose(result.values[: len(result)], 10.0 * np.arange(len(result)))

    def test_output_keeps_left_grid(self, engine):
        left = make_source(20, period=100)
        right = make_source(40, period=50, offset=0)
        query = Query.source("a", period=100).clip_join(Query.source("b", period=50))
        result = engine.run(query, sources={"a": left, "b": right})
        assert np.all(result.times % 100 == 0)

    def test_clip_join_requires_query_argument(self):
        with pytest.raises(QueryConstructionError):
            Query.source("a", frequency_hz=500).clip_join(42)


def _bursty(seed: int, seconds: float = 60.0):
    """A 500 Hz signal in random bursts (20 ms to 3 s) and silences (up to 4 s)."""
    rng = np.random.default_rng(seed)
    end = int(seconds * 1000)
    times = []
    cursor = int(rng.integers(0, 2000)) * 2
    while cursor < end:
        burst = int(rng.integers(10, 1500)) * 2
        times.append(np.arange(cursor, min(cursor + burst, end), 2, dtype=np.int64))
        cursor += burst + int(rng.integers(1, 2000)) * 2
    times = np.concatenate(times)
    return ArraySource(times, rng.standard_normal(times.size), period=2)


class TestJoinAtAnotherPhase:
    # ``b.shift(2)`` puts the aggregate's windows two ticks after the
    # output's: the output's first slot of every window is covered only by
    # the carried aggregate event, whose fate depends on where windows end.
    @pytest.mark.parametrize("cap", [1, 2, None])
    def test_vectorized_matches_serial_at_every_run_cap(self, cap):
        query = Query.source("a", frequency_hz=500).join(
            Query.source("b", frequency_hz=500).shift(2).tumbling_window(100).mean()
        )
        engine = LifeStreamEngine(window_size=1000)
        for seed in range(3):
            sources = {"a": _bursty(seed), "b": _bursty(seed + 100)}
            compiled = engine.compile(query, sources)
            reference = compiled.run(backend=SerialBackend())
            result = compiled.run(backend=VectorizedBackend(max_run_windows=cap))
            assert result.stats.execution_mode == "vectorized"
            assert len(reference) > 0
            np.testing.assert_array_equal(reference.times, result.times)
            np.testing.assert_array_equal(reference.values, result.values)
            np.testing.assert_array_equal(reference.durations, result.durations)


class TestPhasedInnerJoin:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="Join.compute drops the pairs at each window end when an input "
        "sits at another phase than the output (b on (2,4) under a (0,2) output)",
    )
    def test_pairs_every_left_event_a_right_event_covers(self):
        from repro.analysis.contracts import builtin_cases
        from repro.core.compiler import compile_plan
        from repro.core.engine import CompiledQuery

        case = next(c for c in builtin_cases() if c.name == "Join-inner-phased")
        query, sources = case.build()
        left = sources["a"].read(*sources["a"].coverage().span())[0]
        right, _, durations = sources["b"].read(*sources["b"].coverage().span())
        # The b event active at each a time, if any.
        active = np.searchsorted(right, left, side="right") - 1
        covered = (active >= 0) & (left < right[active] + durations[active])
        counts = [
            len(
                CompiledQuery(
                    compile_plan(query, sources, window_size=96),
                    targeted=True,
                    backend=backend,
                ).run()
            )
            for backend in (SerialBackend(), VectorizedBackend())
        ]
        assert counts == [int(covered.sum())] * 2
