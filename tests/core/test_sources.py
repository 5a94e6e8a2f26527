"""Unit tests for stream sources (array, CSV, replay)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.event import StreamDescriptor
from repro.core.intervals import IntervalSet
from repro.core.sources import (
    ArraySource,
    CsvSource,
    PushSource,
    ReplaySource,
    write_csv,
)
from repro.errors import StreamDefinitionError


class TestArraySource:
    def test_descriptor_from_period(self):
        source = ArraySource(np.array([0, 2, 4]), np.array([1.0, 2.0, 3.0]), period=2)
        assert source.descriptor.period == 2
        assert source.descriptor.offset == 0

    def test_offset_inferred_from_first_timestamp(self):
        source = ArraySource(np.array([6, 8, 10]), np.zeros(3), period=2)
        assert source.descriptor.offset == 0  # 6 % 2 == 0

        source = ArraySource(np.array([5, 13]), np.zeros(2), period=8)
        assert source.descriptor.offset == 5

    def test_misaligned_timestamps_rejected(self):
        with pytest.raises(StreamDefinitionError):
            ArraySource(np.array([0, 3]), np.zeros(2), period=2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StreamDefinitionError):
            ArraySource(np.array([0, 2]), np.zeros(3), period=2)

    def test_unsorted_input_is_sorted(self):
        source = ArraySource(np.array([4, 0, 2]), np.array([3.0, 1.0, 2.0]), period=2)
        np.testing.assert_array_equal(source.times, [0, 2, 4])
        np.testing.assert_array_equal(source.values, [1.0, 2.0, 3.0])

    def test_read_half_open_interval(self):
        source = ArraySource(np.arange(0, 20, 2), np.arange(10.0), period=2)
        times, values, durations = source.read(4, 10)
        np.testing.assert_array_equal(times, [4, 6, 8])
        np.testing.assert_array_equal(values, [2.0, 3.0, 4.0])
        assert np.all(durations == 2)

    def test_read_empty_region(self):
        source = ArraySource(np.arange(0, 20, 2), np.arange(10.0), period=2)
        times, _, _ = source.read(100, 200)
        assert times.size == 0

    def test_coverage_reflects_gaps(self):
        times = np.array([0, 2, 4, 100, 102])
        source = ArraySource(times, np.zeros(5), period=2)
        assert source.coverage() == IntervalSet([(0, 6), (100, 104)])

    def test_event_count(self):
        source = ArraySource(np.arange(0, 20, 2), np.zeros(10), period=2)
        assert source.event_count() == 10

    def test_duplicate_timestamps_rejected(self):
        # Regression: duplicates used to be silently kept, leaving two events
        # fighting over one FWindow grid slot.
        with pytest.raises(StreamDefinitionError, match="duplicate timestamp 10"):
            ArraySource(np.array([0, 10, 10, 20]), np.arange(4.0), period=10)

    def test_duplicate_timestamps_dedupe_last(self):
        source = ArraySource(
            np.array([0, 10, 10, 20]), np.array([1.0, 2.0, 3.0, 4.0]),
            period=10, dedupe="last",
        )
        np.testing.assert_array_equal(source.times, [0, 10, 20])
        np.testing.assert_array_equal(source.values, [1.0, 3.0, 4.0])

    def test_duplicate_timestamps_dedupe_first(self):
        # Stable sort: "first"/"last" refer to the order events were supplied,
        # even when the input is unsorted.
        source = ArraySource(
            np.array([20, 10, 10, 0]), np.array([1.0, 2.0, 3.0, 4.0]),
            period=10, dedupe="first",
        )
        np.testing.assert_array_equal(source.times, [0, 10, 20])
        np.testing.assert_array_equal(source.values, [4.0, 2.0, 1.0])

    def test_duplicate_timestamps_kept_without_validation(self):
        source = ArraySource(
            np.array([0, 10, 10, 20]), np.arange(4.0), period=10, validate=False
        )
        assert source.event_count() == 4

    def test_unknown_dedupe_policy_rejected(self):
        with pytest.raises(StreamDefinitionError, match="dedupe"):
            ArraySource(np.array([0, 10]), np.zeros(2), period=10, dedupe="mean")

    def test_dedupe_applies_to_durations(self):
        source = ArraySource(
            np.array([0, 10, 10]), np.array([1.0, 2.0, 3.0]), period=10,
            durations=np.array([10, 5, 7]), dedupe="last",
        )
        times, _, durations = source.read(0, 100)
        np.testing.assert_array_equal(times, [0, 10])
        np.testing.assert_array_equal(durations, [10, 7])

    def test_nonpositive_durations_rejected(self):
        # Regression: durations=[10, -5] used to be silently swallowed and
        # produced nonsense coverage.
        with pytest.raises(StreamDefinitionError, match="duration -5.*timestamp 10"):
            ArraySource(
                np.array([0, 10]), np.zeros(2), period=10,
                durations=np.array([10, -5]),
            )
        with pytest.raises(StreamDefinitionError, match="duration 0"):
            ArraySource(
                np.array([0, 10]), np.zeros(2), period=10,
                durations=np.array([0, 10]),
            )

    def test_nonpositive_durations_allowed_without_validation(self):
        source = ArraySource(
            np.array([0, 10]), np.zeros(2), period=10,
            durations=np.array([10, -5]), validate=False,
        )
        assert source.event_count() == 2

    def test_durations_shape_mismatch_rejected(self):
        with pytest.raises(StreamDefinitionError, match="durations"):
            ArraySource(
                np.array([0, 10]), np.zeros(2), period=10,
                durations=np.array([10, 10, 10]),
            )

    def test_implicit_durations_hold_no_column(self):
        """Every event lasts one period: the source keeps times and values
        only, and reads back a read-only zero-stride view of the period."""
        import tracemalloc

        n = 1_000_000
        times = np.arange(n, dtype=np.int64) * 2
        values = np.ones(n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            source = ArraySource(times, values, period=2)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert allocated < 1 << 20
        _, _, durations = source.read(100, 1_000_100)
        assert durations.shape == (500_000,) and durations.strides == (0,)
        assert not durations.flags.writeable
        assert set(np.unique(durations).tolist()) == {2}

    def test_from_frequency(self):
        source = ArraySource.from_frequency(np.array([0, 2]), np.zeros(2), frequency_hz=500)
        assert source.descriptor.period == 2


def _two_pass_construction(times, values, period, offset, durations, validate, dedupe):
    """ArraySource's construction as separate passes — sort check, duplicate
    scan, full-array grid modulo, re-sorting coverage build — returning
    ``(times, values, durations, descriptor, coverage)`` or raising."""
    times = np.asarray(times, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if durations is not None:
        durations = np.asarray(durations, dtype=np.int64)
    if times.size and np.any(np.diff(times) <= 0):
        order = np.argsort(times, kind="stable")
        times, values = times[order], values[order]
        if durations is not None:
            durations = durations[order]
    duplicated = np.flatnonzero(np.diff(times) == 0)
    if duplicated.size:
        if dedupe is not None:
            distinct = np.diff(times) != 0
            keep = np.append(distinct, True) if dedupe == "last" else np.append(True, distinct)
            times, values = times[keep], values[keep]
            if durations is not None:
                durations = durations[keep]
        elif validate:
            raise StreamDefinitionError(
                f"duplicate timestamp {int(times[duplicated[0]])}: two events cannot "
                f"share one grid slot of a periodic stream; pass dedupe='last' (or "
                f"'first') to keep one event per slot"
            )
    if offset is None:
        offset = int(times[0] % period) if times.size else 0
    if validate and times.size:
        misaligned = np.flatnonzero((times - offset) % period)
        if misaligned.size:
            raise StreamDefinitionError(
                f"timestamp {int(times[misaligned[0]])} does not lie on the periodic "
                f"grid (offset={offset}, period={period})"
            )
        if durations is not None and np.any(durations <= 0):
            index = int(np.flatnonzero(durations <= 0)[0])
            raise StreamDefinitionError(
                f"duration {int(durations[index])} of the event at timestamp "
                f"{int(times[index])} must be positive"
            )
    descriptor = StreamDescriptor(offset=offset, period=period)
    if durations is None:
        durations = np.full(times.shape, period, dtype=np.int64)
        ordered = np.sort(times)
        gaps = np.flatnonzero(np.diff(ordered) > period)
        firsts = np.concatenate(([0], gaps + 1)) if times.size else []
        lasts = np.concatenate((gaps, [ordered.size - 1])) if times.size else []
        coverage = IntervalSet(
            [(int(ordered[f]), int(ordered[last]) + period) for f, last in zip(firsts, lasts)]
        )
    else:
        coverage = IntervalSet.from_events(times, durations)
    return times, values, durations, descriptor, coverage


def _outcome(build):
    try:
        return build()
    except StreamDefinitionError as error:
        return str(error)


@st.composite
def _array_source_inputs(draw):
    """Timestamps sorted or not, with duplicates, gaps and off-grid samples."""
    period = draw(st.sampled_from([1, 2, 3, 8]))
    cells = draw(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2 * period)), max_size=30)
    )
    on_grid = draw(st.booleans())
    times = [k * period + (0 if on_grid else jitter) for k, jitter in cells]
    if draw(st.booleans()):
        times.sort()
    durations = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(-1, 12), min_size=len(times), max_size=len(times)),
        )
    )
    return dict(
        times=np.asarray(times, dtype=np.int64),
        values=np.arange(len(times), dtype=np.float64),
        period=period,
        offset=draw(st.one_of(st.none(), st.integers(0, period - 1))),
        durations=None if durations is None else np.asarray(durations, dtype=np.int64),
        validate=draw(st.booleans()),
        dedupe=draw(st.sampled_from([None, "first", "last"])),
    )


class TestArraySourceOnePassValidation:
    """The one-pass constructor raises exactly what the multi-pass logic
    raises, or builds the same arrays, descriptor and coverage."""

    @given(_array_source_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_two_pass_construction(self, inputs):
        expected = _outcome(lambda: _two_pass_construction(**inputs))

        def build():
            source = ArraySource(**inputs)
            return (
                source.times,
                source.values,
                source.read(-(2**40), 2**40)[2],
                source.descriptor,
                source.coverage(),
            )

        actual = _outcome(build)
        if isinstance(expected, str):
            assert actual == expected
            return
        assert not isinstance(actual, str), actual
        for want, got in zip(expected[:3], actual[:3]):
            np.testing.assert_array_equal(got, want)
        assert actual[3:] == expected[3:]

    def test_first_offending_timestamps_are_named(self):
        # Off grid after a gap: the scan only takes the modulo of uneven steps.
        with pytest.raises(StreamDefinitionError, match="timestamp 41 does not lie"):
            ArraySource(np.array([0, 2, 4, 41, 43]), np.zeros(5), period=2)
        # The first sample itself off an explicit grid.
        with pytest.raises(StreamDefinitionError, match="timestamp 1 does not lie"):
            ArraySource(np.array([1, 3]), np.zeros(2), period=2, offset=0)
        # Unsorted input is checked in sorted order.
        with pytest.raises(StreamDefinitionError, match="duplicate timestamp 4"):
            ArraySource(np.array([8, 4, 0, 4]), np.zeros(4), period=2)


class TestCsvSource:
    def test_round_trip(self, tmp_path):
        times = np.arange(0, 100, 2)
        values = np.linspace(0.0, 1.0, 50)
        path = write_csv(tmp_path / "signal.csv", times, values)
        source = CsvSource(path, period=2)
        assert source.event_count() == 50
        read_times, read_values, _ = source.read(0, 100)
        np.testing.assert_array_equal(read_times, times)
        np.testing.assert_allclose(read_values, values)

    def test_coverage(self, tmp_path):
        times = np.array([0, 2, 4, 50, 52])
        path = write_csv(tmp_path / "gappy.csv", times, np.zeros(5))
        source = CsvSource(path, period=2)
        assert source.coverage() == IntervalSet([(0, 6), (50, 54)])

    @staticmethod
    def _write(tmp_path, text, name="signal.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_float_formatted_timestamps_accepted(self, tmp_path):
        # Regression: "10.0" (a pandas/Excel export artifact) used to crash
        # with a bare ValueError from int().
        path = self._write(tmp_path, "timestamp,value\n0.0,1.5\n10.0,2.5\n")
        source = CsvSource(path, period=10)
        times, values, _ = source.read(0, 100)
        np.testing.assert_array_equal(times, [0, 10])
        np.testing.assert_allclose(values, [1.5, 2.5])

    def test_non_integral_timestamp_names_offending_row(self, tmp_path):
        path = self._write(tmp_path, "timestamp,value\n0,1.0\n10.5,2.0\n")
        with pytest.raises(StreamDefinitionError, match=r"row 3.*'10\.5'"):
            CsvSource(path, period=10)

    def test_garbage_timestamp_names_offending_row(self, tmp_path):
        path = self._write(tmp_path, "timestamp,value\noops,1.0\n")
        with pytest.raises(StreamDefinitionError, match="row 2.*'oops'"):
            CsvSource(path, period=10)

    def test_garbage_value_names_offending_row(self, tmp_path):
        path = self._write(tmp_path, "timestamp,value\n0,1.0\n10,n/a\n")
        with pytest.raises(StreamDefinitionError, match="row 3.*'n/a'"):
            CsvSource(path, period=10)

    def test_blank_value_cells_skipped_and_counted(self, tmp_path):
        # Regression: a blank value cell used to crash with float("").
        path = self._write(
            tmp_path, "timestamp,value\n0,1.0\n10,\n20,3.0\n30\n,4.0\n"
        )
        source = CsvSource(path, period=10)
        assert source.skipped_rows == 3
        times, values, _ = source.read(0, 100)
        np.testing.assert_array_equal(times, [0, 20])
        np.testing.assert_allclose(values, [1.0, 3.0])

    def test_fully_blank_rows_ignored(self, tmp_path):
        path = self._write(tmp_path, "timestamp,value\n0,1.0\n,\n\n10,2.0\n")
        source = CsvSource(path, period=10)
        assert source.event_count() == 2
        assert source.skipped_rows == 0

    def test_dedupe_passthrough(self, tmp_path):
        path = self._write(tmp_path, "timestamp,value\n0,1.0\n10,2.0\n10,3.0\n")
        with pytest.raises(StreamDefinitionError, match="duplicate timestamp"):
            CsvSource(path, period=10)
        source = CsvSource(path, period=10, dedupe="last")
        np.testing.assert_allclose(source.read(0, 100)[1], [1.0, 3.0])


class TestReplaySource:
    def test_initial_watermark_hides_everything(self):
        inner = ArraySource(np.arange(0, 100, 2), np.arange(50.0), period=2)
        replay = ReplaySource(inner)
        assert replay.coverage().total_length() == 0

    def test_advance_exposes_prefix(self):
        inner = ArraySource(np.arange(0, 100, 2), np.arange(50.0), period=2)
        replay = ReplaySource(inner)
        replay.advance(50)
        times, _, _ = replay.read(0, 100)
        assert times.max() < 50
        assert replay.coverage().span() == (0, 50)

    def test_advance_to_end(self):
        inner = ArraySource(np.arange(0, 100, 2), np.arange(50.0), period=2)
        replay = ReplaySource(inner)
        replay.advance_to_end()
        times, _, _ = replay.read(0, 100)
        assert times.size == 50

    def test_watermark_cannot_move_backwards(self):
        inner = ArraySource(np.arange(0, 100, 2), np.arange(50.0), period=2)
        replay = ReplaySource(inner, watermark=50)
        with pytest.raises(StreamDefinitionError):
            replay.advance(10)


class TestPushSource:
    def test_starts_empty_and_grows_with_appends(self):
        push = PushSource(period=2)
        assert push.event_count() == 0
        assert not push.coverage()
        assert push.watermark == 0
        watermark = push.append(np.arange(0, 10, 2), np.arange(5.0))
        assert watermark == 10 and push.watermark == 10
        watermark = push.append(np.arange(10, 20, 2), np.arange(5.0, 10.0))
        assert watermark == 20
        assert push.event_count() == 10
        times, values, durations = push.read(0, 100)
        np.testing.assert_array_equal(times, np.arange(0, 20, 2))
        np.testing.assert_array_equal(values, np.arange(10.0))
        assert set(durations.tolist()) == {2}
        assert push.coverage().span() == (0, 20)

    def test_is_a_replay_source(self):
        # Sessions gate readiness on isinstance(source, ReplaySource); the
        # push path plugs in through that exact contract.
        assert isinstance(PushSource(period=2), ReplaySource)

    def test_read_never_exposes_beyond_watermark(self):
        push = PushSource(period=2)
        push.append(np.arange(0, 20, 2), np.arange(10.0))
        push._watermark = 10  # pretend only part is announced
        times, _, _ = push.read(0, 100)
        assert times.max() < 10

    def test_heartbeat_advance_without_data(self):
        push = PushSource(period=2)
        push.append(np.arange(0, 10, 2), np.arange(5.0))
        push.advance(600)  # "no data through 600"
        assert push.watermark == 600
        with pytest.raises(StreamDefinitionError, match="forward"):
            push.advance(10)
        # Appending later data after a silence is fine.
        push.append(np.asarray([600]), np.asarray([1.0]))
        assert push.watermark == 602

    def test_rejects_out_of_order_and_overlapping_batches(self):
        push = PushSource(period=2)
        push.append(np.arange(0, 10, 2), np.arange(5.0))
        with pytest.raises(StreamDefinitionError, match="time order"):
            push.append(np.asarray([4]), np.asarray([9.0]))
        with pytest.raises(StreamDefinitionError, match="time order"):
            push.append(np.asarray([8]), np.asarray([9.0]))  # duplicate of last
        with pytest.raises(StreamDefinitionError, match="strictly increasing"):
            push.append(np.asarray([20, 20]), np.asarray([1.0, 2.0]))

    def test_rejects_off_grid_and_bad_shapes(self):
        push = PushSource(period=2, offset=0)
        with pytest.raises(StreamDefinitionError, match="grid"):
            push.append(np.asarray([3]), np.asarray([1.0]))
        with pytest.raises(StreamDefinitionError, match="same shape"):
            push.append(np.asarray([2, 4]), np.asarray([1.0]))
        with pytest.raises(StreamDefinitionError, match="positive"):
            push.append(np.asarray([2]), np.asarray([1.0]), durations=np.asarray([0]))
        with pytest.raises(StreamDefinitionError, match="period must be positive"):
            PushSource(period=0)

    def test_empty_append_is_a_noop(self):
        push = PushSource(period=2)
        push.append(np.arange(0, 10, 2), np.arange(5.0))
        assert push.append(np.empty(0, dtype=np.int64), np.empty(0)) == 10
        assert push.event_count() == 5

    def test_explicit_durations_extend_coverage_and_watermark(self):
        push = PushSource(period=4)
        push.append(np.asarray([0, 4]), np.asarray([1.0, 2.0]), durations=np.asarray([4, 12]))
        assert push.watermark == 16
        assert push.coverage().span() == (0, 16)

    def test_buffer_growth_preserves_history(self):
        push = PushSource(period=1)
        total = 5000  # forces several capacity doublings past the 1024 floor
        for start in range(0, total, 7):
            times = np.arange(start, min(start + 7, total), dtype=np.int64)
            push.append(times, times.astype(np.float64))
        times, values, _ = push.read(0, total)
        np.testing.assert_array_equal(times, np.arange(total))
        np.testing.assert_array_equal(values, np.arange(total, dtype=np.float64))

    def test_durations_column_only_after_a_non_period_duration(self):
        """Period-only batches store no duration column; the first longer
        event creates one, back-filled with the period; later period-only
        batches fill it with the period.  Reads return exactly what was
        appended."""
        push = PushSource(period=2)
        push.append(np.arange(0, 20, 2), np.zeros(10))
        push.append(np.arange(20, 30, 2), np.zeros(5), durations=np.full(5, 2))
        _, _, durations = push.read(0, 30)
        assert durations.strides == (0,) and not durations.flags.writeable
        push.append(np.asarray([30, 32]), np.zeros(2), durations=np.asarray([2, 6]))
        push.append(np.arange(38, 50, 2), np.zeros(6))
        _, _, durations = push.read(0, 100)
        np.testing.assert_array_equal(durations, [2] * 16 + [6] + [2] * 6)
        assert push.watermark == 50

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_mixed_durations_survive_checkpoint_restore(self, backend):
        """A session over a push stream whose durations switch from the
        period to a longer one and back, checkpointed and restored midway,
        emits exactly the one-shot run over the same events."""
        from repro.core.engine import LifeStreamEngine
        from repro.core.query import Query
        from repro.core.runtime import SerialBackend, VectorizedBackend

        def query():
            return Query.source("s", frequency_hz=500).select(lambda v: v * 3 - 1)

        n = 3000
        times = np.arange(n, dtype=np.int64) * 2
        values = np.cos(np.arange(n) * 0.02)
        durations = np.full(n, 2, dtype=np.int64)
        durations[1700] = 5
        make = SerialBackend if backend == "serial" else VectorizedBackend
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query(), {"s": ArraySource(times, values, period=2, durations=durations)}
        )
        engine = LifeStreamEngine(window_size=1000, backend=make())
        push = PushSource(period=2)
        batches = [(0, 1200), (1200, 1300), (1300, 1600), (1600, 1800), (1800, n)]
        session = engine.open_session(query(), {"s": push})
        for index, (lo, hi) in enumerate(batches):
            # Batch 1 spells out durations that all equal the period; batch
            # 3 carries the 5-tick event; the others pass none.
            push.append(times[lo:hi], values[lo:hi], durations[lo:hi] if index in (1, 3) else None)
            session.poll()
            if index == 2:
                saved = session.checkpoint()
                session.close()
                session = engine.open_session(query(), {"s": push}, checkpoint=saved)
        session.finish()
        result = session.result()
        np.testing.assert_array_equal(push.read(0, 2 * n)[2], durations)
        np.testing.assert_array_equal(reference.times, result.times)
        np.testing.assert_array_equal(reference.values, result.values)
        np.testing.assert_array_equal(reference.durations, result.durations)
        assert set(result.durations.tolist()) == {2, 5}
        session.close()

    def test_session_over_pushed_stream_matches_one_shot(self):
        # The core push-path guarantee: a session fed by incremental appends
        # emits bit-identically to a one-shot run over the same data.
        from repro.core.engine import LifeStreamEngine
        from repro.core.query import Query
        from repro.core.runtime import SerialBackend

        def query():
            return (
                Query.source("s", frequency_hz=500)
                .select(lambda v: v * 2 + 1)
                .sliding_window(200, 100)
                .mean()
            )

        n = 4000
        times = np.arange(n, dtype=np.int64) * 2
        values = np.sin(np.arange(n) * 0.01) * 10
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query(), {"s": ArraySource(times, values, period=2)}
        )
        engine = LifeStreamEngine(window_size=1000)

        push = PushSource(period=2)
        session = engine.open_session(query(), {"s": push})
        for start in range(0, n, 333):
            stop = min(start + 333, n)
            push.append(times[start:stop], values[start:stop])
            session.poll()
        session.finish()
        result = session.result()
        np.testing.assert_array_equal(reference.times, result.times)
        np.testing.assert_array_equal(reference.values, result.values)
        np.testing.assert_array_equal(reference.durations, result.durations)
        session.close()
