"""The fixed-interval sliding window (FWindow).

The FWindow is LifeStream's central runtime construct (Section 4 of the
paper).  It is a columnar buffer holding every grid slot of a periodic
stream inside a fixed-size time interval:

* ``values``     — the event payloads,
* ``durations``  — per-event active lifetimes,
* ``bitvector``  — presence flags marking which grid slots actually hold an
  event (gaps in the physiological signal leave their slot absent).

Because the stream is periodic, the sync time of the event in slot ``i`` is
simply ``sync_time + i * period`` — no per-event timestamp column is needed
and index ↔ time conversion is pure arithmetic.

Operators slide an FWindow forward through the stream by updating its
``sync_time``.  The buffers themselves are allocated exactly once by the
static memory planner and reused for the whole query execution, which is
what eliminates runtime allocation overhead (Section 5.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.event import Event, StreamDescriptor
from repro.errors import MemoryPlanError, NonMonotonicProgressError, StreamDefinitionError


class FWindow:
    """A fixed-interval sliding window over a periodic stream."""

    __slots__ = (
        "descriptor",
        "dimension",
        "capacity",
        "sync_time",
        "values",
        "durations",
        "bitvector",
        "name",
        "_tracer",
        "_values_buffer",
        "_durations_buffer",
        "_bitvector_buffer",
        "_monotonic",
        "_has_slid",
    )

    def __init__(
        self,
        descriptor: StreamDescriptor,
        dimension: int,
        name: str = "",
        tracer=None,
        monotonic: bool = True,
    ) -> None:
        if dimension <= 0:
            raise MemoryPlanError(f"FWindow dimension must be positive, got {dimension}")
        if dimension % descriptor.period != 0:
            raise MemoryPlanError(
                f"FWindow dimension {dimension} must be a multiple of the stream "
                f"period {descriptor.period}"
            )
        self.descriptor = descriptor
        self.dimension = int(dimension)
        self.capacity = dimension // descriptor.period
        self.sync_time = descriptor.offset
        self.name = name
        self._monotonic = monotonic
        # The very first slide may position the window anywhere (including
        # before the descriptor offset, e.g. for warm-up windows of stateful
        # operators); monotonic progress is enforced from then on.
        self._has_slid = False
        # The three columnar fields.  They are allocated here, once, and are
        # never reallocated: operators overwrite them in place as the window
        # slides forward.
        self.values = np.zeros(self.capacity, dtype=np.float64)
        self.durations = np.full(self.capacity, descriptor.period, dtype=np.int64)
        self.bitvector = np.zeros(self.capacity, dtype=bool)
        self._tracer = tracer
        self._values_buffer = None
        self._durations_buffer = None
        self._bitvector_buffer = None
        if tracer is not None:
            label = name or "fwindow"
            self._values_buffer = tracer.allocate(self.values.nbytes, f"{label}.values")
            self._durations_buffer = tracer.allocate(self.durations.nbytes, f"{label}.durations")
            self._bitvector_buffer = tracer.allocate(self.bitvector.nbytes, f"{label}.bitvector")

    # -- geometry ----------------------------------------------------------

    @property
    def period(self) -> int:
        """Period of the underlying stream."""
        return self.descriptor.period

    @property
    def end_time(self) -> int:
        """First tick after the window's current interval."""
        return self.sync_time + self.dimension

    def sync_times(self) -> np.ndarray:
        """Sync times of every grid slot in the current window."""
        return self.sync_time + np.arange(self.capacity, dtype=np.int64) * self.period

    def index_of(self, sync_time: int) -> int:
        """Slot index of the event with the given sync time."""
        delta = sync_time - self.sync_time
        if delta < 0 or delta >= self.dimension:
            raise StreamDefinitionError(
                f"sync time {sync_time} is outside the window "
                f"[{self.sync_time}, {self.end_time})"
            )
        if delta % self.period != 0:
            raise StreamDefinitionError(
                f"sync time {sync_time} is not on the period grid of {self.descriptor}"
            )
        return delta // self.period

    def contains_time(self, sync_time: int) -> bool:
        """True when *sync_time* falls inside the current window interval."""
        return self.sync_time <= sync_time < self.end_time

    def subwindow(self, index: int, count: int) -> "FWindow":
        """Zero-copy view of window *index* of a run buffer split into *count*.

        A run buffer holds ``count`` consecutive windows of dimension
        ``dimension / count`` in one contiguous allocation; the view's
        columnar fields are slices of this window's, so writes through the
        view land in the run buffer.  Views are positioned once (at the slot
        they alias) and never slide.
        """
        if count <= 0:
            raise MemoryPlanError(f"subwindow count must be positive, got {count}")
        if self.capacity % count != 0 or self.dimension % count != 0:
            raise MemoryPlanError(
                f"cannot split FWindow of capacity {self.capacity} "
                f"(dimension {self.dimension}) into {count} subwindows"
            )
        if not 0 <= index < count:
            raise MemoryPlanError(f"subwindow index {index} out of range for count {count}")
        capacity = self.capacity // count
        return self._alias(
            index * capacity, capacity, self.sync_time + index * (self.dimension // count),
            f"{self.name}[{index}]",
        )

    def view(self, offset: int, dimension: int) -> "FWindow":
        """Zero-copy view of the *dimension* ticks from *offset* on.

        A buffer sized for the largest block serves every smaller block, and
        each of its segments, through such views: a view slides on its own,
        clearing only its own slots, and its writes land in the buffer's.
        """
        if (
            not 0 <= offset < offset + dimension <= self.dimension
            or offset % self.period
            or dimension % self.period
        ):
            raise MemoryPlanError(
                f"cannot take a view of dimension {dimension} at offset {offset} "
                f"from FWindow of dimension {self.dimension} (period {self.period})"
            )
        return self._alias(
            offset // self.period, dimension // self.period, self.sync_time + offset, self.name
        )

    def _alias(self, low: int, capacity: int, sync_time: int, name: str) -> "FWindow":
        """An untraced, non-monotonic window over slots ``[low, low + capacity)``."""
        view = FWindow.__new__(FWindow)
        view.descriptor = self.descriptor
        view.dimension = capacity * self.period
        view.capacity = capacity
        view.sync_time = sync_time
        view.name = name
        view._monotonic = False
        view._has_slid = True
        view.values = self.values[low : low + capacity]
        view.durations = self.durations[low : low + capacity]
        view.bitvector = self.bitvector[low : low + capacity]
        view._tracer = None
        view._values_buffer = None
        view._durations_buffer = None
        view._bitvector_buffer = None
        return view

    # -- sliding -----------------------------------------------------------

    def slide_to(self, sync_time: int) -> None:
        """Move the window so it starts at *sync_time* and clear its contents.

        Windows may only move forward in time (monotonic query progress,
        Section 4).  The new start must lie on the stream's period grid.
        """
        if not self.descriptor.is_on_grid(sync_time):
            raise StreamDefinitionError(
                f"window start {sync_time} is not on the grid of {self.descriptor}"
            )
        if self._monotonic and self._has_slid and sync_time < self.sync_time:
            raise NonMonotonicProgressError(
                f"FWindow {self.name or ''} asked to move backwards from "
                f"{self.sync_time} to {sync_time}"
            )
        self.sync_time = sync_time
        self._has_slid = True
        self.clear()

    def reset(self) -> None:
        """Return the window to its initial position (used between runs)."""
        self.sync_time = self.descriptor.offset
        self._has_slid = False
        self.clear()

    def clear(self) -> None:
        """Mark every slot absent.  Values/durations are left as garbage."""
        self.bitvector[:] = False

    # -- event access ------------------------------------------------------

    def set_events(
        self,
        times: np.ndarray,
        values: np.ndarray,
        durations: np.ndarray | None = None,
    ) -> None:
        """Place events (given by arrays of sync times and payloads) into the window.

        Only events whose sync time falls inside the current window interval
        are stored; the rest are ignored.  Times must lie on the period grid.
        """
        times = np.asarray(times, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if times.size == 0:
            return
        # Fast path: a contiguous run of events entirely inside the window
        # (the common case when a source reads a dense region) maps to a
        # single slice assignment.
        first, last = int(times[0]), int(times[-1])
        contiguous = times.size == (last - first) // self.period + 1
        if contiguous and first >= self.sync_time and last < self.end_time:
            start = (first - self.sync_time) // self.period
            stop = start + times.size
            self.values[start:stop] = values
            self.bitvector[start:stop] = True
            if durations is None:
                self.durations[start:stop] = self.period
            else:
                self.durations[start:stop] = np.asarray(durations, dtype=np.int64)
            self.trace_write()
            return
        mask = (times >= self.sync_time) & (times < self.end_time)
        if not mask.any():
            return
        selected_times = times[mask]
        indices = (selected_times - self.sync_time) // self.period
        self.values[indices] = values[mask]
        self.bitvector[indices] = True
        if durations is None:
            self.durations[indices] = self.period
        else:
            durations = np.asarray(durations, dtype=np.int64)
            self.durations[indices] = durations[mask]
        self.trace_write()

    def set_event(self, sync_time: int, value: float, duration: int | None = None) -> None:
        """Place a single event into the window (row-wise convenience)."""
        index = self.index_of(sync_time)
        self.values[index] = value
        self.durations[index] = duration if duration is not None else self.period
        self.bitvector[index] = True

    def present_indices(self) -> np.ndarray:
        """Indices of slots that hold an event."""
        return np.flatnonzero(self.bitvector)

    def present_times(self) -> np.ndarray:
        """Sync times of the events present in the window."""
        return self.sync_time + self.present_indices() * self.period

    def present_values(self) -> np.ndarray:
        """Payload values of the events present in the window."""
        return self.values[self.bitvector]

    def present_durations(self) -> np.ndarray:
        """Durations of the events present in the window."""
        return self.durations[self.bitvector]

    def count(self) -> int:
        """Number of events present in the window."""
        return int(self.bitvector.sum())

    def to_events(self) -> list[Event]:
        """Materialise the window contents as a list of :class:`Event` objects."""
        indices = self.present_indices()
        return [
            Event(
                sync_time=int(self.sync_time + i * self.period),
                duration=int(self.durations[i]),
                value=float(self.values[i]),
            )
            for i in indices
        ]

    # -- statistics --------------------------------------------------------

    def occupancy(self) -> float:
        """Fraction of slots holding an event."""
        return float(self.bitvector.mean()) if self.capacity else 0.0

    def fragmentation(self) -> float:
        """Fraction of *internal* holes: absent slots between present slots.

        Leading and trailing absent slots do not count as fragmentation
        because they correspond to data that simply has not arrived (or has
        finished), not to wasted space inside a populated region.  This is
        the metric behind the paper's Section 6.2 discussion.
        """
        present = np.flatnonzero(self.bitvector)
        if present.size < 2:
            return 0.0
        interior = int(present[-1] - present[0] + 1)
        holes = interior - present.size
        return holes / self.capacity

    def memory_bytes(self) -> int:
        """Total bytes held by the three columnar buffers."""
        return int(self.values.nbytes + self.durations.nbytes + self.bitvector.nbytes)

    # -- cache tracing hooks -------------------------------------------------

    def trace_read(self) -> None:
        """Report a sequential read of the window's buffers to the tracer."""
        if self._tracer is not None:
            self._tracer.touch(self._values_buffer, 0, self.values.nbytes)
            self._tracer.touch(self._bitvector_buffer, 0, self.bitvector.nbytes)

    def trace_write(self) -> None:
        """Report a sequential write of the window's buffers to the tracer."""
        if self._tracer is not None:
            self._tracer.touch(self._values_buffer, 0, self.values.nbytes)
            self._tracer.touch(self._durations_buffer, 0, self.durations.nbytes)
            self._tracer.touch(self._bitvector_buffer, 0, self.bitvector.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FWindow({self.descriptor}[{self.dimension}] @ {self.sync_time}, "
            f"{self.count()}/{self.capacity} events)"
        )
