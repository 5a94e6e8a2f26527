"""Stream sources.

A source feeds a periodic stream into the engine.  The engine only needs
three things from a source:

* its :class:`~repro.core.event.StreamDescriptor` ``(offset, period)``,
* its *coverage* — an :class:`~repro.core.intervals.IntervalSet` describing
  where data actually exists (physiological data is full of gaps), and
* a ``read(start, end)`` method returning the events inside a half-open time
  interval as columnar NumPy arrays.

Three concrete sources are provided: in-memory arrays (``ArraySource``),
CSV files on disk (``CsvSource``), matching the paper's retrospective-data
use case, and a replayable wrapper (``ReplaySource``) that simulates live
ingestion by only exposing data up to a movable "now" watermark.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.intervals import CoverageLog, IntervalSet
from repro.errors import StreamDefinitionError


class StreamSource:
    """Abstract base class for stream sources."""

    descriptor: StreamDescriptor

    def coverage(self, since: int | None = None) -> IntervalSet:
        """Interval set describing where events exist.

        With *since*, only the part at or past that time: a streaming
        session plans each tick from a trailing window of every source, so
        implementations should answer it without walking the history below
        *since* (:meth:`IntervalSet.window` bisects).
        """
        raise NotImplementedError

    def read(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(times, values, durations)`` for events in ``[start, end)``."""
        raise NotImplementedError

    def event_count(self) -> int:
        """Total number of events the source holds."""
        raise NotImplementedError


#: Duplicate-timestamp policies accepted by :class:`ArraySource`.
DEDUPE_POLICIES = ("first", "last")


class ArraySource(StreamSource):
    """A source backed by in-memory NumPy arrays of timestamps and values.

    Timestamps are sorted if needed.  Duplicate timestamps are rejected by
    default (two events cannot share one grid slot of a periodic stream —
    silently keeping both would corrupt FWindow fills downstream); pass
    ``dedupe="last"`` (or ``"first"``) to opt into keeping one event per
    slot instead.  ``validate=False`` disables duplicate, grid-alignment and
    duration checks entirely.
    """

    def __init__(
        self,
        times: np.ndarray,
        values: np.ndarray,
        period: int,
        offset: int | None = None,
        durations: np.ndarray | None = None,
        validate: bool = True,
        dedupe: str | None = None,
    ) -> None:
        if dedupe is not None and dedupe not in DEDUPE_POLICIES:
            raise StreamDefinitionError(
                f"unknown dedupe policy {dedupe!r}; expected one of {DEDUPE_POLICIES}"
            )
        times = np.asarray(times, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise StreamDefinitionError(
                f"times and values must have the same shape, got {times.shape} "
                f"and {values.shape}"
            )
        if durations is not None:
            durations = np.asarray(durations, dtype=np.int64)
            if durations.shape != times.shape:
                raise StreamDefinitionError(
                    f"durations must have the same shape as times, got "
                    f"{durations.shape} and {times.shape}"
                )
        if times.size and np.any(np.diff(times) <= 0):
            order = np.argsort(times, kind="stable")
            times = times[order]
            values = values[order]
            if durations is not None:
                durations = durations[order]
        duplicated = np.flatnonzero(np.diff(times) == 0) if times.size else np.empty(0, int)
        if duplicated.size:
            if dedupe is not None:
                # Stable sort preserved input order within equal timestamps,
                # so "first"/"last" refer to the order events were supplied.
                if dedupe == "last":
                    keep = np.append(np.diff(times) != 0, True)
                else:
                    keep = np.append(True, np.diff(times) != 0)
                times = times[keep]
                values = values[keep]
                if durations is not None:
                    durations = durations[keep]
            elif validate:
                bad = int(times[duplicated[0]])
                raise StreamDefinitionError(
                    f"duplicate timestamp {bad}: two events cannot share one grid "
                    f"slot of a periodic stream; pass dedupe='last' (or 'first') "
                    f"to keep one event per slot"
                )
        if offset is None:
            offset = int(times[0] % period) if times.size else 0
        if validate and times.size:
            misaligned = (times - offset) % period
            if np.any(misaligned != 0):
                bad = int(times[np.flatnonzero(misaligned)[0]])
                raise StreamDefinitionError(
                    f"timestamp {bad} does not lie on the periodic grid "
                    f"(offset={offset}, period={period})"
                )
            if durations is not None and np.any(durations <= 0):
                index = int(np.flatnonzero(durations <= 0)[0])
                raise StreamDefinitionError(
                    f"duration {int(durations[index])} of the event at timestamp "
                    f"{int(times[index])} must be positive"
                )
        self.descriptor = StreamDescriptor(offset=offset, period=period)
        self._times = times
        self._values = values
        if durations is None:
            self._durations = np.full(times.shape, period, dtype=np.int64)
            self._coverage = IntervalSet.from_timestamps(times, period)
        else:
            self._durations = np.asarray(durations, dtype=np.int64)
            self._coverage = IntervalSet.from_events(times, self._durations)

    @staticmethod
    def from_frequency(
        times: np.ndarray,
        values: np.ndarray,
        frequency_hz: float,
        **kwargs,
    ) -> "ArraySource":
        """Build an ArraySource from a sampling frequency in Hz."""
        descriptor = StreamDescriptor.from_frequency(frequency_hz)
        return ArraySource(times, values, period=descriptor.period, **kwargs)

    def coverage(self, since: int | None = None) -> IntervalSet:
        return self._coverage if since is None else self._coverage.window(since)

    def event_count(self) -> int:
        return int(self._times.size)

    def read(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo = int(np.searchsorted(self._times, start, side="left"))
        hi = int(np.searchsorted(self._times, end, side="left"))
        return self._times[lo:hi], self._values[lo:hi], self._durations[lo:hi]

    @property
    def times(self) -> np.ndarray:
        """The full timestamp array backing this source."""
        return self._times

    @property
    def values(self) -> np.ndarray:
        """The full value array backing this source."""
        return self._values


class CsvSource(StreamSource):
    """A source reading ``timestamp,value`` rows from a CSV file.

    This mirrors the paper's retrospective-data workflow where historical
    waveform data is stored on persistent disks in CSV form (Section 8.3).
    The file is loaded eagerly into memory; for the dataset sizes used in
    the reproduction this is both simpler and faster than chunked reads.

    Timestamps may be written as integers (``10``) or integral floats
    (``"10.0"``, a common artifact of exporting from pandas/Excel); anything
    else raises :class:`~repro.errors.StreamDefinitionError` naming the
    offending row.  Rows whose timestamp or value cell is blank are skipped
    (they represent missing samples, i.e. gaps) and counted in
    :attr:`skipped_rows`.
    """

    def __init__(
        self,
        path: str | Path,
        period: int,
        has_header: bool = True,
        validate: bool = True,
        dedupe: str | None = None,
    ) -> None:
        self.path = Path(path)
        times: list[int] = []
        values: list[float] = []
        #: Number of data rows skipped because a timestamp/value cell was blank.
        self.skipped_rows = 0
        with open(self.path, newline="") as handle:
            reader = csv.reader(handle)
            if has_header:
                next(reader, None)
            for line_number, row in enumerate(reader, start=2 if has_header else 1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                raw_time = row[0].strip()
                raw_value = row[1].strip() if len(row) > 1 else ""
                if not raw_time or not raw_value:
                    self.skipped_rows += 1
                    continue
                times.append(self._parse_timestamp(raw_time, line_number))
                try:
                    values.append(float(raw_value))
                except ValueError:
                    raise StreamDefinitionError(
                        f"{self.path}, row {line_number}: value {raw_value!r} is "
                        f"not a number"
                    ) from None
        self._delegate = ArraySource(
            np.asarray(times, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            period=period,
            validate=validate,
            dedupe=dedupe,
        )
        self.descriptor = self._delegate.descriptor

    def _parse_timestamp(self, raw: str, line_number: int) -> int:
        try:
            parsed = float(raw)
        except ValueError:
            raise StreamDefinitionError(
                f"{self.path}, row {line_number}: timestamp {raw!r} is not a number"
            ) from None
        if not parsed.is_integer():
            raise StreamDefinitionError(
                f"{self.path}, row {line_number}: timestamp {raw!r} is not an "
                f"integer tick (periodic streams use integer timestamps)"
            )
        return int(parsed)

    def coverage(self, since: int | None = None) -> IntervalSet:
        return self._delegate.coverage(since)

    def event_count(self) -> int:
        return self._delegate.event_count()

    def read(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._delegate.read(start, end)


class ReplaySource(StreamSource):
    """Wraps another source and only exposes events up to a watermark.

    Data analysts develop pipelines against retrospective data and then
    deploy them on live streams (Section 2).  ``ReplaySource`` simulates the
    live case: the same query runs unchanged, but ``read`` never returns
    events beyond the current watermark, and the watermark can be advanced
    between executor steps to mimic data arriving over time.
    """

    def __init__(self, inner: StreamSource, watermark: int | None = None) -> None:
        self._inner = inner
        self.descriptor = inner.descriptor
        span = inner.coverage().span()
        self._watermark = watermark if watermark is not None else span[0]

    @property
    def watermark(self) -> int:
        """Current watermark: no event at or beyond this time is visible."""
        return self._watermark

    def advance(self, new_watermark: int) -> None:
        """Move the watermark forward (it can never move backwards)."""
        if new_watermark < self._watermark:
            raise StreamDefinitionError(
                f"watermark can only move forward ({self._watermark} -> {new_watermark})"
            )
        self._watermark = new_watermark

    def advance_to_end(self) -> None:
        """Expose the entire underlying source (never moves the watermark back)."""
        self._watermark = max(self._watermark, self._inner.coverage().span()[1])

    def coverage(self, since: int | None = None) -> IntervalSet:
        return self._inner.coverage().window(since, self._watermark)

    def event_count(self) -> int:
        return self._inner.event_count()

    def read(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._inner.read(start, min(end, self._watermark))


class PushSource(ReplaySource):
    """An appendable, watermark-gated source for push-based ingestion.

    Where :class:`ReplaySource` *replays* a fully-known retrospective stream
    behind a movable watermark, ``PushSource`` is the live half of the same
    contract: it starts empty, grows as producers :meth:`append` sample
    batches, and advances its watermark to the end of each appended batch —
    so a :class:`~repro.core.runtime.session.StreamingSession` over it
    executes exactly the windows the pushed data has fully covered.  This is
    the source the ingest gateway feeds: *pushed samples*, not hand-delivered
    watermarks, are what move stream time forward.

    Appends are validated like :class:`ArraySource` construction (on-grid
    timestamps, positive durations) plus an ordering rule arrays do not
    need: batches must arrive in time order, strictly after the previous
    batch's last event, because data behind the watermark may already have
    been executed and can never be amended.  :meth:`advance` still works for
    watermark-only progress announcements (heartbeat punctuation: "no data
    through *t*"), letting windows that end in a silence flush.

    Storage is a pair of amortised-growth column buffers (capacity doubles)
    and a :class:`~repro.core.intervals.CoverageLog` extended at its tail, so
    a long-lived session pays O(1) per appended sample, not O(history).
    """

    def __init__(
        self,
        period: int,
        offset: int = 0,
        watermark: int | None = None,
    ) -> None:
        # Deliberately does not call ReplaySource.__init__: there is no
        # inner source to wrap.  Subclassing ReplaySource is what plugs the
        # push path into the runtime — sessions gate readiness on
        # `isinstance(source, ReplaySource)` watermarks.
        if period <= 0:
            raise StreamDefinitionError(f"period must be positive, got {period}")
        self.descriptor = StreamDescriptor(offset=offset, period=period)
        self._times = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)
        self._durations = np.empty(0, dtype=np.int64)
        self._size = 0
        self._coverage = CoverageLog()
        self._watermark = int(offset) if watermark is None else int(watermark)

    # -- the push path -----------------------------------------------------

    def append(
        self,
        times: np.ndarray,
        values: np.ndarray,
        durations: np.ndarray | None = None,
    ) -> int:
        """Append one batch of samples and advance the watermark past them.

        *times* must be strictly increasing, lie on the stream's periodic
        grid, and start strictly after the last already-appended event (data
        behind the watermark may already have been executed downstream).
        Returns the new watermark: the end of the last appended event
        (``time + duration``, duration defaulting to the period).  An empty
        batch is a no-op returning the current watermark.
        """
        times, values, durations = self.validate_batch(times, values, durations)
        if times.size == 0:
            return self._watermark
        if durations is None:
            durations = np.full(times.shape, self.descriptor.period, dtype=np.int64)
            chunk_coverage = IntervalSet.from_timestamps(times, self.descriptor.period)
        else:
            chunk_coverage = IntervalSet.from_events(times, durations)
        self._store(times, values, durations)
        # Batches arrive in time order, so the chunk can only touch the
        # history at its tail.
        self._coverage.extend(chunk_coverage)
        appended_through = int(times[-1]) + int(durations[-1])
        self._watermark = max(self._watermark, appended_through)
        return self._watermark

    def validate_batch(
        self,
        times: np.ndarray,
        values: np.ndarray,
        durations: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Check one batch against this stream's append rules without storing it.

        Returns the batch as typed arrays; raises
        :class:`~repro.errors.StreamDefinitionError` naming the offending
        sample otherwise.
        """
        times = np.asarray(times, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if times.shape != values.shape:
            raise StreamDefinitionError(
                f"times and values must have the same shape, got {times.shape} "
                f"and {values.shape}"
            )
        if durations is not None:
            durations = np.asarray(durations, dtype=np.int64)
            if durations.shape != times.shape:
                raise StreamDefinitionError(
                    f"durations must have the same shape as times, got "
                    f"{durations.shape} and {times.shape}"
                )
            if durations.size and np.any(durations <= 0):
                index = int(np.flatnonzero(durations <= 0)[0])
                raise StreamDefinitionError(
                    f"duration {int(durations[index])} of the pushed event at "
                    f"timestamp {int(times[index])} must be positive"
                )
        if times.size == 0:
            return times, values, durations
        if times.size > 1 and np.any(np.diff(times) <= 0):
            bad = int(times[int(np.flatnonzero(np.diff(times) <= 0)[0]) + 1])
            raise StreamDefinitionError(
                f"pushed timestamps must be strictly increasing; timestamp "
                f"{bad} does not advance past its predecessor"
            )
        descriptor = self.descriptor
        misaligned = (times - descriptor.offset) % descriptor.period
        if np.any(misaligned != 0):
            bad = int(times[np.flatnonzero(misaligned)[0]])
            raise StreamDefinitionError(
                f"pushed timestamp {bad} does not lie on the periodic grid "
                f"(offset={descriptor.offset}, period={descriptor.period})"
            )
        if self._size and int(times[0]) <= int(self._times[self._size - 1]):
            raise StreamDefinitionError(
                f"pushed batch starts at timestamp {int(times[0])} but the "
                f"stream already holds data through "
                f"{int(self._times[self._size - 1])}; batches must arrive in "
                f"time order (data behind the watermark may already have "
                f"been executed and cannot be amended)"
            )
        return times, values, durations

    def _store(self, times: np.ndarray, values: np.ndarray, durations: np.ndarray) -> None:
        """Write one validated batch into the column buffers."""
        self._reserve(times.size)
        end = self._size + times.size
        self._times[self._size : end] = times
        self._values[self._size : end] = values
        self._durations[self._size : end] = durations
        self._size = end

    def _reserve(self, extra: int) -> None:
        """Grow the column buffers to hold *extra* more samples (amortised)."""
        needed = self._size + extra
        capacity = self._times.size
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity, 1024)
        for name, dtype in (
            ("_times", np.int64),
            ("_values", np.float64),
            ("_durations", np.int64),
        ):
            grown = np.empty(new_capacity, dtype=dtype)
            grown[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, grown)

    # -- the ReplaySource contract -----------------------------------------

    @property
    def watermark(self) -> int:
        """Current watermark: no event at or beyond this time is visible."""
        return self._watermark

    def advance(self, new_watermark: int) -> None:
        """Announce watermark-only progress (heartbeat: no data through *t*)."""
        if new_watermark < self._watermark:
            raise StreamDefinitionError(
                f"watermark can only move forward ({self._watermark} -> {new_watermark})"
            )
        self._watermark = int(new_watermark)

    def advance_to_end(self) -> None:
        """Expose everything appended so far (used by ``session.finish()``)."""
        if self._coverage:
            self._watermark = max(self._watermark, self._coverage.span()[1])

    def coverage(self, since: int | None = None) -> IntervalSet:
        return self._coverage.window(since, self._watermark)

    def event_count(self) -> int:
        return int(self._size)

    def read(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        times = self._times[: self._size]
        lo = int(np.searchsorted(times, start, side="left"))
        hi = int(np.searchsorted(times, min(end, self._watermark), side="left"))
        return (
            times[lo:hi],
            self._values[: self._size][lo:hi],
            self._durations[: self._size][lo:hi],
        )


def write_csv(path: str | Path, times: np.ndarray, values: np.ndarray) -> Path:
    """Write a ``timestamp,value`` CSV file compatible with :class:`CsvSource`."""
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "value"])
        for t, v in zip(np.asarray(times).tolist(), np.asarray(values).tolist()):
            writer.writerow([int(t), float(v)])
    return path
