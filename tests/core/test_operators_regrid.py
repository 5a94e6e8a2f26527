"""Unit tests for AlterPeriod (resampling) and Chop, and a property test of
the window-clamped interpolation run kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.operators import AlterPeriod
from repro.core.operators.base import Operator
from repro.core.query import Query
from repro.errors import QueryConstructionError


class TestAlterPeriodUpsample:
    def test_hold_upsampling_repeats_values(self, engine, ramp_125hz):
        query = Query.source("s", frequency_hz=125).alter_period(2, mode="hold")
        result = engine.run(query, sources={"s": ramp_125hz})
        assert len(result) == ramp_125hz.event_count() * 4
        np.testing.assert_array_equal(result.values[:8], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_upsampled_times_are_on_new_grid(self, engine, ramp_125hz):
        query = Query.source("s", frequency_hz=125).alter_period(2, mode="hold")
        result = engine.run(query, sources={"s": ramp_125hz})
        assert np.all(np.diff(result.times) == 2)

    def test_interpolated_upsampling_is_linear(self, engine, ramp_125hz):
        query = Query.source("s", frequency_hz=125).resample(frequency_hz=500)
        result = engine.run(query, sources={"s": ramp_125hz})
        # Values ramp 0, 1, 2, ... at 8-tick spacing; interpolating to 2-tick
        # spacing gives increments of 0.25 inside each original interval.
        np.testing.assert_allclose(result.values[:9], np.arange(9) * 0.25)

    def test_durations_become_new_period(self, engine, ramp_125hz):
        query = Query.source("s", frequency_hz=125).alter_period(2, mode="hold")
        result = engine.run(query, sources={"s": ramp_125hz})
        assert np.all(result.durations == 2)

    def test_same_period_is_identity(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).alter_period(2)
        result = engine.run(query, sources={"s": ramp_500hz})
        np.testing.assert_array_equal(result.times, ramp_500hz.times)
        np.testing.assert_allclose(result.values, ramp_500hz.values)


@st.composite
def interpolation_runs(draw):
    """``(factor, windows, presence, values)`` of one run buffer.

    Each window is all-absent, all-present, single-present or random; values
    are finite (up to the float extremes, so slopes overflow) or, in some
    runs, include infinities and NaN.
    """
    factor = draw(st.sampled_from([2, 3, 4, 5, 8]))
    windows = draw(st.integers(1, 5))
    slots = draw(st.integers(1, 12))
    presence = []
    for _ in range(windows):
        kind = draw(st.sampled_from(["none", "all", "single", "random"]))
        if kind == "single":
            present = draw(st.integers(0, slots - 1))
            presence += [slot == present for slot in range(slots)]
        elif kind == "random":
            presence += draw(st.lists(st.booleans(), min_size=slots, max_size=slots))
        else:
            presence += [kind == "all"] * slots
    finite = st.one_of(
        st.floats(-1e3, 1e3),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308]),
    )
    samples = st.one_of(finite, st.floats()) if draw(st.booleans()) else finite
    values = draw(st.lists(samples, min_size=windows * slots, max_size=windows * slots))
    return factor, windows, np.array(presence), np.array(values)


def _run_buffers(factor, windows, presence, values):
    slots = presence.size // windows
    source = FWindow(StreamDescriptor(0, factor), windows * slots * factor, monotonic=False)
    source.slide_to(0)
    source.bitvector[:] = presence
    source.values[:] = values
    outputs = []
    for _ in range(2):
        output = FWindow(StreamDescriptor(0, 1), source.dimension, monotonic=False)
        output.slide_to(0)
        outputs.append(output)
    return source, outputs


class TestInterpolationRunKernel:
    @given(interpolation_runs())
    @settings(max_examples=300, deadline=None)
    def test_run_kernel_matches_per_window_compute(self, run):
        factor, windows, presence, values = run
        source, (kernel, per_window) = _run_buffers(factor, windows, presence, values)
        operator = AlterPeriod(1, mode="interpolate")
        with np.errstate(all="ignore"):
            operator.compute_run(kernel, [source], None, windows)
            Operator.compute_run(operator, per_window, [source], None, windows)
        np.testing.assert_array_equal(kernel.bitvector, per_window.bitvector)
        present = per_window.bitvector
        # Bit for bit: signed zeros, infinities and NaN payloads included.
        np.testing.assert_array_equal(
            kernel.values[present].view(np.uint64), per_window.values[present].view(np.uint64)
        )
        np.testing.assert_array_equal(kernel.durations[present], per_window.durations[present])

    def test_windows_clamp_at_their_own_edges(self):
        # Two windows of two slots: 0, 4 | 8, absent.  The first window's
        # last sample holds to its edge instead of ramping toward 8.
        source, (output, _) = _run_buffers(
            2, 2, np.array([True, True, True, False]), np.array([0.0, 4.0, 8.0, 0.0])
        )
        AlterPeriod(1, mode="interpolate").compute_run(output, [source], None, 2)
        np.testing.assert_array_equal(output.values[:6], [0.0, 2.0, 4.0, 4.0, 8.0, 8.0])
        np.testing.assert_array_equal(output.bitvector, [True] * 6 + [False] * 2)


class TestAlterPeriodDownsample:
    def test_downsampling_keeps_every_nth_event(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).alter_period(8)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert len(result) == ramp_500hz.event_count() // 4
        np.testing.assert_allclose(result.values, ramp_500hz.values[::4])

    def test_downsampled_times_are_on_new_grid(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).alter_period(8)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert np.all(result.times % 8 == 0)

    def test_non_divisible_periods_fall_back_to_sampling(self, engine, ramp_500hz):
        # 2 -> 5 ticks is neither an integer up- nor down-sampling factor.
        query = Query.source("s", frequency_hz=500).alter_period(5)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert np.all(result.times % 5 == 0)
        assert len(result) > 0


class TestResampleValidation:
    def test_resample_requires_exactly_one_target(self):
        with pytest.raises(QueryConstructionError):
            Query.source("s", frequency_hz=500).resample()
        with pytest.raises(QueryConstructionError):
            Query.source("s", frequency_hz=500).resample(period=2, frequency_hz=500)

    def test_invalid_mode_rejected(self):
        with pytest.raises(QueryConstructionError):
            Query.source("s", frequency_hz=500).alter_period(4, mode="cubic")

    def test_non_positive_period_rejected(self):
        with pytest.raises(QueryConstructionError):
            Query.source("s", frequency_hz=500).alter_period(0)


class TestChop:
    def test_chop_splits_long_duration_events(self, engine, ramp_500hz):
        # Aggregate to 100-tick events (duration 100), then chop back to the
        # original 2-tick grid: every aggregate value appears 50 times.
        query = Query.source("s", frequency_hz=500).tumbling_window(100).mean().chop(2)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert len(result) == ramp_500hz.event_count()
        np.testing.assert_allclose(result.values[:50], 24.5)
        np.testing.assert_allclose(result.values[50:100], 74.5)

    def test_chop_durations_equal_chop_period(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).tumbling_window(100).mean().chop(2)
        result = engine.run(query, sources={"s": ramp_500hz})
        assert np.all(result.durations == 2)

    def test_chop_same_period_is_identity_on_values(self, engine, ramp_500hz):
        query = Query.source("s", frequency_hz=500).chop(2)
        result = engine.run(query, sources={"s": ramp_500hz})
        np.testing.assert_allclose(result.values, ramp_500hz.values)

    def test_chop_rejects_bad_period(self):
        with pytest.raises(QueryConstructionError):
            Query.source("s", frequency_hz=500).chop(-1)
