"""Unit tests for the IntervalSet coverage structure."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import CoverageLog, IntervalSet, roll_windows, spread_windows


class TestConstruction:
    def test_empty(self):
        assert len(IntervalSet.empty()) == 0
        assert not IntervalSet.empty()

    def test_drops_empty_intervals(self):
        assert not IntervalSet([(5, 5), (7, 3)])

    def test_merges_overlapping(self):
        interval_set = IntervalSet([(0, 5), (3, 10)])
        assert interval_set.intervals == ((0, 10),)

    def test_merges_adjacent(self):
        interval_set = IntervalSet([(0, 5), (5, 10)])
        assert interval_set.intervals == ((0, 10),)

    def test_keeps_disjoint_sorted(self):
        interval_set = IntervalSet([(20, 30), (0, 10)])
        assert interval_set.intervals == ((0, 10), (20, 30))

    def test_from_timestamps_continuous(self):
        times = np.arange(0, 100, 2)
        interval_set = IntervalSet.from_timestamps(times, period=2)
        assert interval_set.intervals == ((0, 100),)

    def test_from_timestamps_with_gap(self):
        times = np.array([0, 2, 4, 20, 22])
        interval_set = IntervalSet.from_timestamps(times, period=2)
        assert interval_set.intervals == ((0, 6), (20, 24))

    def test_from_timestamps_empty(self):
        assert not IntervalSet.from_timestamps(np.array([]), period=2)

    @given(
        st.lists(st.integers(0, 200), max_size=40), st.sampled_from([1, 2, 5]), st.booleans()
    )
    @settings(max_examples=200)
    def test_from_timestamps_is_the_union_of_event_spans(self, times, period, presorted):
        # Sorted input skips the sort; either way duplicates and steps below
        # the period merge, and only steps above it open a gap.
        if presorted:
            times = sorted(times)
        expected = IntervalSet([(t, t + period) for t in times])
        assert IntervalSet.from_timestamps(np.asarray(times, dtype=np.int64), period) == expected

    def test_equality_and_hash(self):
        a = IntervalSet([(0, 5), (10, 20)])
        b = IntervalSet([(10, 20), (0, 5)])
        assert a == b
        assert hash(a) == hash(b)


class TestQueries:
    def test_total_length(self):
        assert IntervalSet([(0, 5), (10, 20)]).total_length() == 15

    def test_span(self):
        assert IntervalSet([(5, 10), (30, 40)]).span() == (5, 40)

    def test_span_empty(self):
        assert IntervalSet.empty().span() == (0, 0)


class TestAlgebra:
    def test_union(self):
        a = IntervalSet([(0, 5)])
        b = IntervalSet([(3, 10), (20, 30)])
        assert a.union(b).intervals == ((0, 10), (20, 30))

    def test_intersect(self):
        a = IntervalSet([(0, 10), (20, 30)])
        b = IntervalSet([(5, 25)])
        assert a.intersect(b).intervals == ((5, 10), (20, 25))

    def test_intersect_disjoint(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(10, 20)])
        assert not a.intersect(b)

    def test_intersection_commutes(self):
        a = IntervalSet([(0, 7), (9, 15)])
        b = IntervalSet([(5, 11)])
        assert a.intersect(b) == b.intersect(a)


class TestWindow:
    def test_clip(self):
        assert IntervalSet([(0, 100)]).window(10, 20).intervals == ((10, 20),)


# -- bisected primitives against their references ---------------------------

_raw_intervals = st.lists(
    st.tuples(st.integers(-200, 400), st.integers(-200, 400)), max_size=12
)
_points = st.integers(-250, 450)


class TestBisectedPrimitives:
    @given(_raw_intervals, _points, _points)
    def test_window_equals_clip_equals_intersect(self, raw, start, end):
        interval_set = IntervalSet(raw)
        reference = interval_set.intersect(IntervalSet([(start, end)]))
        assert interval_set.window(start, end) == reference
        assert interval_set.window(start, end) == reference

    @given(_raw_intervals, _points)
    def test_open_ended_windows(self, raw, point):
        interval_set = IntervalSet(raw)
        lo, hi = interval_set.span()
        assert interval_set.window(point) == interval_set.window(point, max(hi, point))
        assert interval_set.window(None, point) == interval_set.window(min(lo, point), point)
        assert interval_set.window() == interval_set

    @given(_raw_intervals)
    def test_trusted_constructor_equivalence(self, raw):
        normalized = IntervalSet(raw)
        trusted = IntervalSet.from_normalized(normalized.intervals)
        assert trusted == normalized
        assert hash(trusted) == hash(normalized)
        assert IntervalSet(trusted.intervals).intervals == trusted.intervals

    @given(_raw_intervals, _raw_intervals, st.integers(-50, 50))
    def test_trusted_results_are_normalized(self, raw_a, raw_b, offset):
        a, b = IntervalSet(raw_a), IntervalSet(raw_b)
        for result in (a.intersect(b), a.window(-20 + offset, 90)):
            assert IntervalSet(result.intervals).intervals == result.intervals


# -- window rows: marks on a grid of windows, one column per window ----------


def _row(*marked, width=8):
    row = np.zeros(width, dtype=bool)
    row[list(marked)] = True
    return row


class TestWindowRows:
    def test_roll_by_zero_is_the_row_itself(self):
        row = _row(1, 4)
        assert roll_windows(row, 0) is row

    def test_roll_forward_moves_marks_later(self):
        assert np.flatnonzero(roll_windows(_row(0, 3, 7), 2)).tolist() == [2, 5]

    def test_roll_backward_moves_marks_earlier(self):
        assert np.flatnonzero(roll_windows(_row(0, 3, 7), -3)).tolist() == [0, 4]

    def test_roll_past_the_block_clears_it(self):
        assert not roll_windows(_row(0, 7), 8).any()
        assert not roll_windows(_row(0, 7), -9).any()

    def test_roll_moves_every_row_of_a_block(self):
        block = np.stack([_row(0), _row(5), _row()])
        rolled = roll_windows(block, 1)
        assert [np.flatnonzero(row).tolist() for row in rolled] == [[1], [6], []]
        assert block[0, 0] and not block[0, 1]

    def test_spread_later(self):
        assert np.flatnonzero(spread_windows(_row(1, 6), 2)).tolist() == [1, 2, 3, 6, 7]

    def test_spread_earlier(self):
        assert np.flatnonzero(spread_windows(_row(1, 6), -2)).tolist() == [0, 1, 4, 5, 6]

    def test_spread_wider_than_the_block_stops_at_its_edge(self):
        assert spread_windows(_row(0, width=4), 100).all()
        assert np.flatnonzero(spread_windows(_row(2, width=4), -100)).tolist() == [0, 1, 2]

    @given(st.sets(st.integers(0, 11)), st.integers(-14, 14))
    def test_roll_matches_moving_each_mark(self, marked, by):
        rolled = roll_windows(_row(*marked, width=12), by)
        assert set(np.flatnonzero(rolled).tolist()) == {
            k + by for k in marked if 0 <= k + by < 12
        }

    @given(st.sets(st.integers(0, 11)), st.integers(-14, 14))
    def test_spread_marks_every_window_within_reach_of_a_mark(self, marked, windows):
        spread = spread_windows(_row(*marked, width=12), windows)
        reach = range(0, windows + 1) if windows >= 0 else range(windows, 1)
        assert set(np.flatnonzero(spread).tolist()) == {
            k + by for k in marked for by in reach if 0 <= k + by < 12
        }


class TestCoverageLog:
    def test_an_empty_log_is_false_with_an_empty_span(self):
        log = CoverageLog()
        assert not log
        assert log.span() == (0, 0)
        assert log.window() == IntervalSet.empty()

    def test_extend_merges_an_interval_touching_the_tail(self):
        log = CoverageLog()
        log.extend([(0, 10)])
        log.extend([(10, 14), (20, 30)])
        log.extend([(25, 28)])
        assert log.window().intervals == ((0, 14), (20, 30))

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 60)), max_size=15),
        _points,
        _points,
    )
    def test_extend_matches_union_and_window_matches_clip(self, steps, start, end):
        # Batches arrive in time order: each starts past the previous start.
        log, reference, cursor = CoverageLog(), IntervalSet.empty(), 0
        for gap, length in steps:
            cursor += gap
            log.extend([(cursor, cursor + length)])
            reference = reference.union(IntervalSet([(cursor, cursor + length)]))
        assert log.window() == reference
        assert log.window(start, end) == reference.window(start, end)
        assert log.span() == reference.span()
        assert bool(log) == bool(reference)

    @given(_raw_intervals, _raw_intervals, _points)
    def test_splice_keeps_the_past_and_replaces_the_rest(self, raw_old, raw_new, cut):
        old, new = IntervalSet(raw_old), IntervalSet(raw_new)
        log = CoverageLog()
        log.splice(None, old)
        assert log.window() == old
        log.splice(cut, new)
        assert log.window() == old.window(None, cut).union(new.window(cut))
