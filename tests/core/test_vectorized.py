"""Unit and property tests for run-lowered (vectorized) execution.

Covers the coverage → run conversion (maximal, disjoint, exactly tiling the
targeted window starts), the zero-copy run-buffer subwindow and prefix
views, the plan analysis that gates lowering, the run-buffer footprint (one
buffer per node at the run cap, whatever the mix of run lengths), and the
streaming-session parity guarantee
(tick-by-tick vectorized execution is bit-identical to a one-shot serial
run over the same data).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import covered_windows
from repro.core.engine import LifeStreamEngine
from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.graph import topological_order
from repro.core.intervals import IntervalSet
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.runtime.vectorized import (
    RUN_SLOT_BUDGET,
    BlockExecutor,
    block_executor,
    plan_vector_info,
    runs_for_starts,
)
from repro.core.sources import ArraySource, ReplaySource
from repro.errors import ExecutionError, MemoryPlanError

# -- strategies -------------------------------------------------------------

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 2000), st.integers(1, 200)).map(
        lambda p: (p[0], p[0] + p[1])
    ),
    max_size=10,
)

windows = st.sampled_from([1, 3, 10, 64, 100])
offsets = st.integers(-50, 50)
caps = st.one_of(st.none(), st.integers(1, 7))


# -- coverage -> runs -------------------------------------------------------


def _window_starts(pairs, window: int, offset: int) -> list[int]:
    """Every start ``offset + k * window`` of a window that meets one of
    the intervals *pairs*, in order: a targeted run's starts."""
    return sorted(
        {
            offset + k * window
            for start, end in IntervalSet(pairs)
            for k in range((start - offset) // window, (end - 1 - offset) // window + 1)
        }
    )


class TestRunsForCoverage:
    @given(intervals_strategy, windows, offsets, caps)
    @settings(max_examples=200)
    def test_runs_tile_exactly_the_targeted_starts(self, pairs, window, offset, cap):
        starts = _window_starts(pairs, window, offset)
        runs = runs_for_starts(starts, window, cap)
        tiled = [
            start + k * window for start, count in runs for k in range(count)
        ]
        assert tiled == starts

    @given(intervals_strategy, windows, offsets)
    @settings(max_examples=200)
    def test_runs_are_maximal_and_disjoint(self, pairs, window, offset):
        runs = runs_for_starts(_window_starts(pairs, window, offset), window)
        for (start, count), (next_start, _) in zip(runs, runs[1:]):
            # Disjoint and ordered: the next run starts after this one ends.
            assert next_start >= start + count * window
            # Maximal: adjacent runs are never contiguous (a contiguous pair
            # would have been one run).
            assert next_start != start + count * window

    @given(intervals_strategy, windows, offsets, st.integers(1, 7))
    @settings(max_examples=200)
    def test_capped_runs_respect_the_cap(self, pairs, window, offset, cap):
        runs = runs_for_starts(_window_starts(pairs, window, offset), window, cap)
        assert all(1 <= count <= cap for _, count in runs)
        # Only cap-length runs may be followed contiguously (the split).
        for (start, count), (next_start, _) in zip(runs, runs[1:]):
            if next_start == start + count * window:
                assert count == cap

    def test_empty_coverage_yields_no_runs(self):
        assert runs_for_starts([], 100) == []

    def test_known_grouping(self):
        starts = [0, 100, 200, 500, 600, 900]
        assert runs_for_starts(starts, 100) == [(0, 3), (500, 2), (900, 1)]
        assert runs_for_starts(starts, 100, max_run_windows=2) == [
            (0, 2),
            (200, 1),
            (500, 2),
            (900, 1),
        ]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ExecutionError):
            runs_for_starts([0], 0)
        with pytest.raises(ExecutionError):
            runs_for_starts([0], 100, max_run_windows=0)


# -- run-buffer subwindow views ---------------------------------------------


class TestSubwindowViews:
    def _run_buffer(self, count=4, dim=100, period=10):
        window = FWindow(
            StreamDescriptor(offset=0, period=period),
            dim * count,
            name="run",
            monotonic=False,
        )
        window.slide_to(1000)
        return window

    def test_views_alias_the_run_buffer(self):
        run = self._run_buffer()
        view = run.subwindow(1, 4)
        assert view.capacity == run.capacity // 4
        assert view.sync_time == run.sync_time + 100
        view.values[:] = 7.0
        view.bitvector[:] = True
        lo = view.capacity
        assert np.all(run.values[lo : 2 * lo] == 7.0)
        assert np.all(run.bitvector[lo : 2 * lo])
        # Slots outside the view are untouched.
        assert not run.bitvector[:lo].any()

    def test_views_cover_the_buffer_without_overlap(self):
        run = self._run_buffer(count=5)
        for index in range(5):
            view = run.subwindow(index, 5)
            view.values[:] = float(index)
        assert np.array_equal(
            run.values.reshape(5, -1)[:, 0], np.arange(5, dtype=float)
        )

    def test_invalid_splits_rejected(self):
        run = self._run_buffer(count=4)
        with pytest.raises(MemoryPlanError):
            run.subwindow(0, 0)
        with pytest.raises(MemoryPlanError):
            run.subwindow(4, 4)
        with pytest.raises(MemoryPlanError):
            run.subwindow(0, 3)  # does not divide capacity

    def test_prefix_views_slide_and_clear_only_their_slots(self):
        run = self._run_buffer(count=4)
        run.bitvector[:] = True
        prefix = run.view(0, 200)
        assert (prefix.capacity, prefix.dimension) == (20, 200)
        prefix.slide_to(5000)
        assert prefix.sync_time == 5000
        assert not run.bitvector[:20].any()
        assert run.bitvector[20:].all()
        prefix.values[:] = 3.0
        assert np.all(run.values[:20] == 3.0)
        # A prefix splits into windows like a run buffer of its own length.
        assert prefix.subwindow(1, 2).sync_time == 5100
        # A view further in aliases its own slots, positioned at its offset.
        middle = run.view(200, 100)
        assert (middle.capacity, middle.sync_time) == (10, run.sync_time + 200)
        middle.clear()
        assert not run.bitvector[20:30].any() and run.bitvector[30:].all()

    def test_invalid_prefixes_rejected(self):
        run = self._run_buffer(count=4)
        for dimension in (0, 405, 500):
            with pytest.raises(MemoryPlanError):
                run.view(0, dimension)
        for offset in (-10, 5, 350):
            with pytest.raises(MemoryPlanError):
                run.view(offset, 100)


# -- plan analysis ----------------------------------------------------------


def _gappy_source(n=12000, period=2, seed=7):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * period
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 500, size=4):
        keep[start : start + int(rng.integers(100, 400))] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return ArraySource(times[keep], values[keep], period=period)


class TestPlanAnalysis:
    def test_elementwise_plan_fully_lowers(self):
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(
            Query.source("s", frequency_hz=500).select(lambda v: v * 2),
            {"s": _gappy_source()},
        )
        info = plan_vector_info(compiled.plan)
        assert info.runnable
        assert info.worthwhile
        assert info.lowered_operators == info.operator_nodes > 0

    def test_clipjoin_only_plan_is_not_worthwhile(self):
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(
            Query.source("s", frequency_hz=500).multicast(
                lambda s: s.clip_join(s, lambda a, b: a + b)
            ),
            {"s": _gappy_source()},
        )
        info = plan_vector_info(compiled.plan)
        assert info.runnable
        assert info.lowered_operators == 0
        assert not info.worthwhile


# -- run-buffer footprint ---------------------------------------------------

MINUTE = 60_000
#: Slots per one-minute window at 500 Hz, and bytes per slot (value and
#: presence; every duration here is the period, held once per buffer).
MINUTE_SLOTS = MINUTE // 2
SLOT_BYTES = 8 + 1
#: Minutes of data between one-minute gaps: six distinct run lengths.
SEGMENT_MINUTES = (3, 1, 6, 2, 5, 4)


def _minute_segments_source():
    times, start = [], 0
    for minutes in SEGMENT_MINUTES:
        times.append(np.arange(start, start + minutes * MINUTE, 2, dtype=np.int64))
        start += (minutes + 1) * MINUTE
    times = np.concatenate(times)
    return ArraySource(times, np.sin(times * 1e-3), period=2)


def _minute_plan():
    query = Query.source("s", frequency_hz=500).select(lambda v: v * 2).where(lambda v: v > -1)
    engine = LifeStreamEngine(window_size=MINUTE, optimization_level=0)
    return engine.compile(query, {"s": _minute_segments_source()})


class TestRunBufferFootprint:
    def test_buffers_follow_the_cap_not_the_run_length_mix(self):
        compiled = _minute_plan()
        plan = compiled.plan
        nodes = topological_order(plan.sink)
        assert all(node.dimension // node.descriptor.period == MINUTE_SLOTS for node in nodes)
        starts = covered_windows(plan).tolist()
        uncapped = runs_for_starts(starts, MINUTE)
        assert sorted({count for _, count in uncapped}) == sorted(SEGMENT_MINUTES)

        backend = VectorizedBackend()
        cap = plan_vector_info(plan).default_run_windows
        assert cap == RUN_SLOT_BUDGET // MINUTE_SLOTS == 2
        result = compiled.run(backend=backend)
        reference = compiled.run(backend=SerialBackend())
        np.testing.assert_array_equal(reference.times, result.times)
        np.testing.assert_array_equal(reference.values, result.values)
        # The backend caches its executor on the plan (compiled directly,
        # the plan is its own template).
        executor = block_executor(plan)
        per_window = MINUTE_SLOTS * SLOT_BYTES
        assert executor.peak_buffer_bytes == len(nodes) * cap * per_window
        assert result.stats.preallocated_bytes == (
            plan.memory_plan.total_bytes + executor.peak_buffer_bytes
        )

        # Above the longest run, the buffers hold the longest run — not the
        # sum of the distinct lengths, as one buffer per length would.
        wide = _minute_plan()
        wide.run(backend=VectorizedBackend(max_run_windows=8))
        assert block_executor(wide.plan).peak_buffer_bytes == (
            len(nodes) * max(SEGMENT_MINUTES) * per_window
        )

    def test_default_backend_chunks_runs_at_the_cap(self, monkeypatch):
        compiled = _minute_plan()
        executed = []
        original = BlockExecutor.execute

        def counting(self, segments, *args):
            executed.extend(count for _, _, count in segments)
            return original(self, segments, *args)

        monkeypatch.setattr(BlockExecutor, "execute", counting)
        compiled.run()
        assert max(executed) == plan_vector_info(compiled.plan).default_run_windows
        assert len(executed) > len(SEGMENT_MINUTES)  # long segments were chunked


# -- session parity ---------------------------------------------------------


class TestSessionParity:
    @pytest.mark.parametrize("tick", [1000, 1700])
    def test_tickwise_vectorized_matches_oneshot_serial(self, tick):
        """Advancing a vectorized session tick-by-tick must reproduce the
        one-shot serial run bit for bit, carries included."""
        query = (
            Query.source("s", frequency_hz=500)
            .select(lambda v: v + 0.5)
            .shift(1000)
            .where(lambda v: np.abs(v) < 9)
        )
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query, {"s": _gappy_source()}
        )

        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        session = engine.open_session(query, {"s": ReplaySource(_gappy_source())})
        end = 12000 * 2
        for watermark in range(tick, end + tick, tick):
            session.advance(watermark)
        session.finish()
        live = session.result()
        assert live.stats.execution_mode == "vectorized"
        session.close()

        np.testing.assert_array_equal(reference.times, live.times)
        np.testing.assert_array_equal(reference.values, live.values)
        np.testing.assert_array_equal(reference.durations, live.durations)

    def test_small_run_cap_sessions_stay_bit_identical(self):
        query = Query.source("s", frequency_hz=500).sliding_window(200, 100).max()
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query, {"s": _gappy_source()}
        )
        engine = LifeStreamEngine(
            window_size=1000, backend=VectorizedBackend(max_run_windows=2)
        )
        session = engine.open_session(query, {"s": ReplaySource(_gappy_source())})
        session.finish()
        live = session.result()
        session.close()
        np.testing.assert_array_equal(reference.times, live.times)
        np.testing.assert_array_equal(reference.values, live.values)
        np.testing.assert_array_equal(reference.durations, live.durations)
