"""Window-loop machinery: the eager span and the sink's result columns.

A compiled plan executes by sliding the sink's FWindow forward through the
output time domain and pulling each window's contents through the operator
graph.  Every execution is a :class:`~repro.core.runtime.session.StreamingSession`
tick — a one-shot ``CompiledQuery.run()`` is a session drained in one tick —
and the session plans the windows on the sink's window grid
(:meth:`~repro.core.compiler.lineage.CoverageProgram.rows`):

* in **targeted** mode (the paper's targeted query processing, Section 5.3)
  only the windows the lineage rows mark as able to emit (plus the warm-up
  windows a stateful node's carry needs) are executed; everything else —
  in particular upstream transforms on signal regions that a downstream
  join would discard — is skipped entirely;
* in **eager** mode the executor mimics conventional engines: every window
  of the span from the sources' first data to the last window their data
  or the covered windows reach is processed, whether or not it can
  produce output.  Eager mode exists for the ablation study (Figure
  10(a)) and for tests that check both modes produce identical results;
  :func:`span_window_count` counts its windows, which is what
  ``windows_skipped`` is measured against.

*How* a tick's windows are driven (serially or in runs of consecutive
windows) is the job of the pluggable :mod:`~repro.core.runtime.backends`;
this module holds how they emit.  A tick of one window or run gathers its
events (:func:`sink_events`); a tick of more than one reserves columns
(:func:`sink_columns`), writes every window or run into them at a cursor
(:func:`write_sink_events`) and trims them (:func:`shrink_columns`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.compiler import CompiledPlan
from repro.core.sources import period_column
from repro.errors import ExecutionError


def span_window_count(plan: CompiledPlan, span: tuple[int, int] | None) -> int:
    """Number of output windows an eager walk of *span* visits, by arithmetic."""
    sink = plan.sink
    if sink.dimension is None:
        raise ExecutionError("plan has no dimensions assigned; was it compiled?")
    if span is None or span[1] <= span[0]:
        return 0
    begin, end = span
    dimension, offset = sink.dimension, sink.descriptor.offset
    first = offset + (begin - offset) // dimension * dimension
    return -(-(end - first) // dimension)


class SinkColumns:
    """Result columns a tick of more than one window or run writes into.

    Times and values are reserved for every slot the tick may fill, so each
    event is written once, at a cursor.  Durations follow the FWindow's
    rule: while every event written so far lasts one :attr:`duration`, no
    column exists; the first window whose events' durations differ from it
    creates one, back-filled.
    """

    __slots__ = ("times", "values", "duration", "durations")

    def __init__(self, events: int) -> None:
        self.times = np.empty(events, dtype=np.int64)
        self.values = np.empty(events, dtype=np.float64)
        #: The one duration of every event written so far (None before any,
        #: or once :attr:`durations` exists).
        self.duration: int | None = None
        #: The duration column, once events' durations differ.
        self.durations: np.ndarray | None = None


def sink_columns(events: int) -> SinkColumns:
    """Uninitialised result columns for *events* events.

    Sized for every slot the caller may fill, so a run writes each event
    exactly once; :func:`shrink_columns` then trims them to what was written.
    """
    return SinkColumns(events)


def write_sink_events(window, columns: SinkColumns, cursor: int) -> int:
    """Write *window*'s present events into *columns* from *cursor* on.

    How a tick of more than one window or run — a one-shot run, a session
    catching up — materialises its output: the serial window loop and run
    execution both emit through here, so a long result is written once, in
    place.  Returns the cursor past the last event written.
    """
    indices = window.present_indices()
    if not indices.size:
        return cursor
    end = cursor + indices.size
    times = columns.times[cursor:end]
    np.multiply(indices, window.period, out=times)
    times += window.sync_time
    window.values.take(indices, out=columns.values[cursor:end], mode="clip")
    duration = window.duration
    if columns.durations is None:
        if duration is not None and columns.duration in (None, duration):
            columns.duration = duration
            return end
        columns.durations = np.empty(columns.times.size, dtype=np.int64)
        if cursor:
            columns.durations[:cursor] = columns.duration
        columns.duration = None
    window.durations.take(indices, out=columns.durations[cursor:end], mode="clip")
    return end


def sink_events(window) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """*window*'s present events as fresh ``(times, values, durations)`` columns.

    How a tick of one window or run takes its events: one gather per
    column, sized exactly, with no columns to reserve and trim for the
    handful of events a live tick emits; one duration for every event is a
    zero-stride view.  Same events, same order as :func:`write_sink_events`.
    """
    indices = window.present_indices()
    duration = window.duration
    return (
        window.sync_time + indices * window.period,
        window.values[indices],
        window.durations[indices] if duration is None else period_column(duration, indices.size),
    )


def shrink_columns(columns: SinkColumns, events: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trim *columns* in place to their first *events* entries, as
    ``(times, values, durations)``.

    ``ndarray.resize`` reallocates without copying what stays, so the
    result owns exactly its events; one duration for every event is a
    zero-stride view.  No view of the columns may outlive this call.
    """
    durations = columns.durations
    if durations is not None:
        durations.resize(events, refcheck=False)
    elif events:
        durations = period_column(columns.duration, events)
    else:
        durations = np.empty(0, dtype=np.int64)
    for column in (columns.times, columns.values):
        column.resize(events, refcheck=False)
    return columns.times, columns.values, durations


def fill_windows(sink, starts: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill *sink* at each of *starts* in order; return its present events.

    The serial window loop: ``(times, values, durations)`` columns of every
    event the sink emitted, each written once.
    """
    columns = sink_columns(len(starts) * sink.fwindow.capacity)
    cursor = 0
    for start in starts:
        sink.fill(start)
        cursor = write_sink_events(sink.fwindow, columns, cursor)
    return shrink_columns(columns, cursor)
