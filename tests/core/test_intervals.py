"""Unit tests for the IntervalSet coverage structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import CoverageLog, IntervalSet


class TestConstruction:
    def test_empty(self):
        assert IntervalSet.empty().is_empty()
        assert len(IntervalSet.empty()) == 0
        assert not IntervalSet.empty()

    def test_single(self):
        interval_set = IntervalSet.single(0, 10)
        assert interval_set.intervals == ((0, 10),)

    def test_drops_empty_intervals(self):
        assert IntervalSet([(5, 5), (7, 3)]).is_empty()

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
        assert IntervalSet.from_timestamps(np.array([]), period=2).is_empty()

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

    def test_contains(self):
        interval_set = IntervalSet([(0, 5), (10, 20)])
        assert interval_set.contains(0)
        assert interval_set.contains(4)
        assert not interval_set.contains(5)
        assert interval_set.contains(15)
        assert not interval_set.contains(25)

    def test_overlaps(self):
        interval_set = IntervalSet([(10, 20)])
        assert interval_set.overlaps(0, 11)
        assert interval_set.overlaps(19, 30)
        assert not interval_set.overlaps(0, 10)
        assert not interval_set.overlaps(20, 30)


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
        assert a.intersect(b).is_empty()

    def test_difference(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(3, 6)])
        assert a.difference(b).intervals == ((0, 3), (6, 10))

    def test_difference_removes_everything(self):
        a = IntervalSet([(0, 10)])
        assert a.difference(IntervalSet([(0, 10)])).is_empty()

    def test_intersection_commutes(self):
        a = IntervalSet([(0, 7), (9, 15)])
        b = IntervalSet([(5, 11)])
        assert a.intersect(b) == b.intersect(a)


class TestTransformations:
    def test_shift(self):
        assert IntervalSet([(0, 5)]).shift(10).intervals == ((10, 15),)

    def test_dilate(self):
        assert IntervalSet([(10, 20)]).dilate(2, 3).intervals == ((8, 23),)

    def test_align_to_grid(self):
        assert IntervalSet([(3, 17)]).align_to_grid(10).intervals == ((0, 20),)

    def test_align_to_grid_with_offset(self):
        assert IntervalSet([(6, 17)]).align_to_grid(10, offset=5).intervals == ((5, 25),)

    def test_clip(self):
        assert IntervalSet([(0, 100)]).clip(10, 20).intervals == ((10, 20),)


class TestWindowIteration:
    def test_iter_windows_single_interval(self):
        interval_set = IntervalSet([(0, 100)])
        assert list(interval_set.iter_windows(25)) == [0, 25, 50, 75]

    def test_iter_windows_partial_last(self):
        interval_set = IntervalSet([(0, 90)])
        assert list(interval_set.iter_windows(25)) == [0, 25, 50, 75]

    def test_iter_windows_skips_gap(self):
        interval_set = IntervalSet([(0, 10), (100, 110)])
        assert list(interval_set.iter_windows(25)) == [0, 100]

    def test_iter_windows_no_duplicates_on_touching_intervals(self):
        interval_set = IntervalSet([(0, 30), (40, 45)])
        windows = list(interval_set.iter_windows(25))
        assert windows == sorted(set(windows))
        assert windows == [0, 25]

    def test_iter_windows_respects_offset(self):
        interval_set = IntervalSet([(12, 40)])
        assert list(interval_set.iter_windows(20, offset=2)) == [2, 22]

    def test_count_windows(self):
        interval_set = IntervalSet([(0, 100)])
        assert interval_set.count_windows(10) == 10

    def test_iter_windows_rejects_bad_window(self):
        with pytest.raises(ValueError):
            list(IntervalSet([(0, 10)]).iter_windows(0))


# -- bisected / arithmetic primitives against their scanning references ------

_raw_intervals = st.lists(
    st.tuples(st.integers(-200, 400), st.integers(-200, 400)), max_size=12
)
_points = st.integers(-250, 450)


def _members(interval_set, lo=-260, hi=460):
    """The set as an explicit set of integer ticks (the scanning reference)."""
    return {t for start, end in interval_set for t in range(max(start, lo), min(end, hi))}


class TestBisectedPrimitives:
    @given(_raw_intervals, _points, _points)
    def test_window_equals_clip_equals_intersect(self, raw, start, end):
        interval_set = IntervalSet(raw)
        reference = interval_set.intersect(IntervalSet([(start, end)]))
        assert interval_set.window(start, end) == reference
        assert interval_set.clip(start, end) == reference

    @given(_raw_intervals, _points)
    def test_open_ended_windows(self, raw, point):
        interval_set = IntervalSet(raw)
        lo, hi = interval_set.span()
        assert interval_set.window(point) == interval_set.clip(point, max(hi, point))
        assert interval_set.window(None, point) == interval_set.clip(min(lo, point), point)
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
        for result in (a.intersect(b), a.difference(b), a.shift(offset), a.window(-20, 90)):
            assert IntervalSet(result.intervals).intervals == result.intervals

    @given(_raw_intervals, _points, _points)
    def test_contains_and_overlaps_match_a_scan(self, raw, a, b):
        interval_set = IntervalSet(raw)
        assert interval_set.contains(a) == any(s <= a < e for s, e in interval_set)
        assert interval_set.overlaps(a, b) == any(s < b and a < e for s, e in interval_set)

    @given(_raw_intervals, _raw_intervals)
    def test_difference_matches_set_difference(self, raw_a, raw_b):
        a, b = IntervalSet(raw_a), IntervalSet(raw_b)
        assert _members(a.difference(b)) == _members(a) - _members(b)

    @given(_raw_intervals, st.integers(1, 60), st.integers(-30, 30))
    def test_count_windows_matches_iteration(self, raw, window, offset):
        interval_set = IntervalSet(raw)
        assert interval_set.count_windows(window, offset) == len(
            list(interval_set.iter_windows(window, offset))
        )

    def test_count_windows_rejects_bad_window(self):
        with pytest.raises(ValueError):
            IntervalSet([(0, 10)]).count_windows(0)


class TestCoverageLog:
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
        assert log.window(start, end) == reference.clip(start, end)
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
