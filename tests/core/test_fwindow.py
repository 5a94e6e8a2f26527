"""Unit tests for the FWindow columnar buffer."""

import numpy as np
import pytest

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.errors import MemoryPlanError, NonMonotonicProgressError, StreamDefinitionError


@pytest.fixture
def window() -> FWindow:
    return FWindow(StreamDescriptor(offset=0, period=2), dimension=100)


class TestGeometry:
    def test_capacity_is_dimension_over_period(self, window):
        assert window.capacity == 50

    def test_dimension_must_be_multiple_of_period(self):
        with pytest.raises(MemoryPlanError):
            FWindow(StreamDescriptor(offset=0, period=8), dimension=100)

    def test_dimension_must_be_positive(self):
        with pytest.raises(MemoryPlanError):
            FWindow(StreamDescriptor(offset=0, period=2), dimension=0)

    def test_sync_times_are_arithmetic(self, window):
        times = window.sync_times()
        assert times[0] == 0
        assert times[-1] == 98
        assert np.all(np.diff(times) == 2)

    def test_index_of(self, window):
        assert window.index_of(0) == 0
        assert window.index_of(42) == 21

    def test_index_of_outside_window_rejected(self, window):
        with pytest.raises(StreamDefinitionError):
            window.index_of(100)

    def test_index_of_off_grid_rejected(self, window):
        with pytest.raises(StreamDefinitionError):
            window.index_of(3)

    def test_contains_time(self, window):
        assert window.contains_time(0)
        assert window.contains_time(99)
        assert not window.contains_time(100)

    def test_memory_bytes_matches_bounded_footprint(self, window):
        # 50 slots * (8 bytes value + 1 byte bitvector): one duration for
        # the window, until durations vary and a column of 8 bytes a slot
        # joins them.
        assert window.memory_bytes() == 50 * 9
        window.vary_durations()
        assert window.memory_bytes() == 50 * 17


class TestSliding:
    def test_slide_forward_clears_contents(self, window):
        window.set_event(10, 3.5)
        window.slide_to(100)
        assert window.sync_time == 100
        assert window.count() == 0

    def test_slide_backward_rejected(self, window):
        window.slide_to(200)
        with pytest.raises(NonMonotonicProgressError):
            window.slide_to(100)

    def test_slide_off_grid_rejected(self, window):
        with pytest.raises(StreamDefinitionError):
            window.slide_to(101)

    def test_reset_returns_to_offset(self, window):
        window.slide_to(400)
        window.reset()
        assert window.sync_time == 0

    def test_buffers_are_not_reallocated_on_slide(self, window):
        values_before = window.values
        window.slide_to(200)
        window.slide_to(400)
        # Static memory allocation: the same buffer object is reused.
        assert window.values is values_before


class TestEventAccess:
    def test_set_and_read_single_event(self, window):
        window.set_event(10, 3.5, duration=4)
        assert window.count() == 1
        assert window.present_times().tolist() == [10]
        assert window.present_values().tolist() == [3.5]
        assert window.present_durations().tolist() == [4]

    def test_set_events_bulk(self, window):
        times = np.array([0, 4, 8])
        values = np.array([1.0, 2.0, 3.0])
        window.set_events(times, values)
        assert window.count() == 3
        np.testing.assert_array_equal(window.present_times(), times)
        np.testing.assert_array_equal(window.present_values(), values)

    def test_set_events_ignores_out_of_window_times(self, window):
        times = np.array([0, 200, 400])
        values = np.array([1.0, 2.0, 3.0])
        window.set_events(times, values)
        assert window.count() == 1
        assert window.present_times().tolist() == [0]

    def test_set_events_default_duration_is_period(self, window):
        window.set_events(np.array([0]), np.array([1.0]))
        assert window.present_durations().tolist() == [2]

    def test_to_events(self, window):
        window.set_event(4, 7.0)
        events = window.to_events()
        assert len(events) == 1
        assert events[0].sync_time == 4
        assert events[0].value == 7.0

    def test_clear(self, window):
        window.set_event(0, 1.0)
        window.clear()
        assert window.count() == 0


class TestStatistics:
    def test_occupancy(self, window):
        window.set_events(np.arange(0, 50, 2), np.ones(25))
        assert window.occupancy() == pytest.approx(0.5)

    def test_fragmentation_zero_for_contiguous_data(self, window):
        window.set_events(np.arange(0, 60, 2), np.ones(30))
        assert window.fragmentation() == 0.0

    def test_fragmentation_zero_for_leading_trailing_gaps(self, window):
        # Data only in the middle: not fragmentation, just a shorter region.
        window.set_events(np.arange(20, 60, 2), np.ones(20))
        assert window.fragmentation() == 0.0

    def test_fragmentation_counts_interior_holes(self, window):
        times = np.array([0, 2, 6, 8])  # hole at t=4
        window.set_events(times, np.ones(4))
        assert window.fragmentation() == pytest.approx(1 / 50)

    def test_fragmentation_empty_window(self, window):
        assert window.fragmentation() == 0.0
