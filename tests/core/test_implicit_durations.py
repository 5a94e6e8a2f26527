"""Implicit durations: an FWindow holds one duration unless its events vary.

A window keeps a scalar duration, the period after every clear, and creates
its duration column only when something writes durations that vary
(``FWindow.vary_durations``).  These tests pin the three things that rests
on: a uniform window's ``durations`` cannot be written behind the scalar's
back, a periodic sink's result holds no duration column, and every mode
pair still agrees bit for bit on streams whose durations do vary — one
pushed 5-tick event through element-wise operators, a carry and an
off-grid shift, a transform and a shape filter; a sliding aggregate,
``alter_duration`` and ``chop`` — through serial and vectorized, one-shot
and ticked execution, with a checkpoint and restore midway, and every
operator forwards or sets the durations an unfused serial run gives.
"""

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.sources import ArraySource, PushSource
from repro.ops import kernels

WINDOW = 1000
#: Where the one long event sits, and how long it lasts.
LONG_AT, LONG_FOR = 5_002, 5


def _events():
    """~20 s of 500 Hz samples in bursts; the sample at LONG_AT lasts 5 ticks."""
    rng = np.random.default_rng(44)
    times = np.arange(0, 20_000, 2, dtype=np.int64)
    keep = np.ones(times.size, dtype=bool)
    for start in (1_500, 7_000, 12_500):
        keep[start : start + int(rng.integers(200, 900))] = False
    keep[(times >= LONG_AT) & (times < LONG_AT + 8)] = True
    times = times[keep]
    values = np.sin(times * 3e-3) * 4.0 + rng.standard_normal(times.size) * 0.1
    durations = np.full(times.size, 2, dtype=np.int64)
    durations[times == LONG_AT] = LONG_FOR
    return times, values, durations


def _scaled(values):
    return values * 1.5 - 0.25


def _positive(values):
    return values > -3.0


#: Name -> (query, the durations its result holds).  Each forwards or sets
#: durations through another operator, on the one stream.
QUERIES = {
    "push-long-event": (
        lambda: Query.source("s", period=2).select(_scaled).shift(4).where(_positive),
        {2, LONG_FOR},
    ),
    "off-grid-shift": (lambda: Query.source("s", period=2).alter_duration(5).shift(1), {5}),
    "transform": (
        lambda: Query.source("s", period=2).transform(100, kernels.zscore_kernel()),
        {2, LONG_FOR},
    ),
    "shape-mark": (
        lambda: Query.source("s", period=2).where_shape(
            np.sin(np.linspace(0.0, np.pi, 12)), threshold=0.6, mode="mark"
        ),
        {2, LONG_FOR},
    ),
    "sliding-aggregate": (
        lambda: Query.source("s", period=2).sliding_window(300, 100).sum(),
        {300},
    ),
    "alter-duration": (lambda: Query.source("s", period=2).alter_duration(7).select(_scaled), {7}),
    "chop": (lambda: Query.source("s", period=2).alter_duration(6).chop(2), {2}),
}
BACKENDS = {"serial": SerialBackend, "vectorized": VectorizedBackend}
#: Watermarks the ticked runs push through; the checkpoint falls after the
#: third, just past the long event.
WATERMARKS = (1_000, 3_000, 5_600, 9_000, 14_000, 20_000)


def _assert_identical(expected, got, label):
    np.testing.assert_array_equal(expected.times, got.times, err_msg=label)
    np.testing.assert_array_equal(expected.values, got.values, err_msg=label)
    np.testing.assert_array_equal(expected.durations, got.durations, err_msg=label)


def _one_shot(query_name, backend, optimization_level=2):
    times, values, durations = _events()
    source = ArraySource(times, values, period=2, durations=durations)
    engine = LifeStreamEngine(
        window_size=WINDOW, backend=backend, optimization_level=optimization_level
    )
    return engine.run(QUERIES[query_name][0](), {"s": source})


def _push(source, through, already):
    """Append the events in ``[already, through)`` to *source*."""
    times, values, durations = _events()
    batch = (times >= already) & (times < through)
    if batch.any():
        source.append(times[batch], values[batch], durations[batch])


def _ticked(query_name, backend, restore_backend):
    """Push batch by batch; checkpoint after the third watermark and go on
    on a fresh compile, fed the same prefix, under *restore_backend*."""
    def open_session(backend, checkpoint=None, through=0):
        source = PushSource(period=2)
        _push(source, through, 0)
        engine = LifeStreamEngine(window_size=WINDOW, backend=backend)
        query = QUERIES[query_name][0]()
        session = engine.open_session(query, {"s": source}, checkpoint=checkpoint)
        return session, source

    session, source = open_session(backend)
    previous = 0
    for index, watermark in enumerate(WATERMARKS):
        if index == 3:
            state = session.checkpoint()
            session.close()
            session, source = open_session(restore_backend, state, previous)
        _push(source, watermark, previous)
        source.advance(watermark)
        session.poll()
        previous = watermark
    session.finish()
    result = session.result()
    session.close()
    return result


class TestModesAgreeWhereDurationsVary:
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_every_mode_pair_is_bit_identical(self, query_name):
        # The reference runs every operator as its own node (no fusion).
        reference = _one_shot(query_name, SerialBackend(), optimization_level=0)
        assert set(reference.durations.tolist()) == QUERIES[query_name][1]
        for backend in (SerialBackend(), VectorizedBackend()):
            _assert_identical(reference, _one_shot(query_name, backend), f"one-shot {backend}")
        for old in sorted(BACKENDS):
            for new in sorted(BACKENDS):
                result = _ticked(query_name, BACKENDS[old](), BACKENDS[new]())
                _assert_identical(reference, result, f"ticked {old} -> {new}")

    def test_the_long_event_reaches_the_sink(self):
        result = _one_shot("push-long-event", VectorizedBackend())
        assert result.durations[result.times == LONG_AT + 4].tolist() == [LONG_FOR]

    @pytest.mark.parametrize("cap", [1, 3, None])
    def test_run_caps_agree_on_a_varying_window(self, cap):
        reference = _one_shot("push-long-event", SerialBackend())
        times, values, durations = _events()
        source = ArraySource(times, values, period=2, durations=durations)
        result = LifeStreamEngine(
            window_size=WINDOW, backend=VectorizedBackend(max_run_windows=cap)
        ).run(QUERIES["push-long-event"][0](), {"s": source})
        _assert_identical(reference, result, f"cap {cap}")


class TestPeriodicSinks:
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_result_durations_are_zero_stride_and_read_only(self, backend_name):
        times = np.arange(0, 30_000, 2, dtype=np.int64)
        query = Query.source("s", period=2).select(_scaled).tumbling_window(100).mean()
        engine = LifeStreamEngine(window_size=WINDOW, backend=BACKENDS[backend_name]())
        result = engine.run(query, {"s": ArraySource(times, np.sin(times * 1e-3), period=2)})
        assert len(result) == 300
        assert result.durations.strides == (0,)
        assert not result.durations.flags.writeable
        assert set(result.durations.tolist()) == {100}

    def test_a_ticked_sessions_result_holds_no_column_either(self):
        times = np.arange(0, 30_000, 2, dtype=np.int64)
        source = PushSource(period=2)
        session = LifeStreamEngine(window_size=WINDOW).open_session(
            Query.source("s", period=2).select(_scaled), {"s": source}
        )
        for watermark in range(5_000, 30_001, 5_000):
            batch = (times >= watermark - 5_000) & (times < watermark)
            source.append(times[batch], np.ones(batch.sum()))
            session.poll()
        result = session.result()
        session.close()
        assert len(result) == times.size
        assert result.durations.strides == (0,) and set(result.durations.tolist()) == {2}


class TestFWindowDurations:
    def test_writing_a_uniform_windows_durations_raises(self):
        window = FWindow(StreamDescriptor(offset=0, period=2), dimension=100)
        assert window.duration == 2
        with pytest.raises(ValueError, match="read-only"):
            window.durations[:] = 3
        window.vary_durations()[:] = 3
        assert window.duration is None
        assert window.durations.tolist() == [3] * 50

    def test_clear_restores_the_period(self):
        window = FWindow(StreamDescriptor(offset=0, period=2), dimension=100)
        window.set_events(np.array([0, 2, 4]), np.ones(3), np.array([2, 6, 2]))
        assert window.duration is None
        assert window.present_durations().tolist() == [2, 6, 2]
        window.slide_to(100)
        assert window.duration == 2 and window.durations.strides == (0,)

    def test_one_duration_is_held_as_the_scalar(self):
        window = FWindow(StreamDescriptor(offset=0, period=2), dimension=100)
        window.set_events(np.array([0, 2, 4]), np.ones(3), np.array([7, 7, 7]))
        assert window.duration == 7
        # A second batch with another duration makes the window vary, and
        # the first batch keeps its own.
        window.set_events(np.array([10]), np.ones(1))
        assert window.duration is None
        assert window.present_durations().tolist() == [7, 7, 7, 2]

    def test_views_share_their_buffers_duration(self):
        buffer = FWindow(StreamDescriptor(offset=0, period=2), dimension=400)
        first, second = buffer.view(0, 200), buffer.view(200, 200)
        first.duration = 10
        assert buffer.duration == 10 and second.duration == 10
        # Another duration in another view: the buffer's events now vary,
        # each view keeping what it was given.
        second.duration = 4
        assert buffer.duration is None
        assert first.durations.tolist() == [10] * 100
        assert second.durations.tolist() == [4] * 100
        # Declaring the whole buffer's durations makes it uniform again.
        buffer.duration = 2
        assert buffer.duration == 2 and first.duration == 2
