"""Plan execution: targeted (default) and eager modes.

The executor drives a compiled plan by sliding the sink's FWindow forward
through the output time domain and pulling each window's contents through
the operator graph.

In **targeted** mode (the paper's targeted query processing, Section 5.3)
only the windows that intersect the output coverage computed by lineage
analysis are executed; everything else — in particular upstream transforms
on signal regions that a downstream join would discard — is skipped
entirely.

In **eager** mode the executor mimics conventional engines: every window in
the union of the sources' data spans is processed, whether or not it can
produce output.  Eager mode exists for the ablation study (Figure 10(a))
and for tests that check both modes produce identical results.

This module provides the window-loop machinery; *how* the loop is driven
(serially or in runs of consecutive windows) is the job of the pluggable
:mod:`~repro.core.runtime.backends`.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.compiler import CompiledPlan
from repro.core.graph import SourceNode, source_nodes, topological_order
from repro.core.intervals import IntervalSet
from repro.core.runtime.result import ExecutionStats
from repro.errors import ExecutionError


def coverage_span(sources: Sequence[SourceNode], sink) -> tuple[int, int] | None:
    """Time range an eager run must walk (None when every source is empty).

    The union of the sources' data spans, widened to include the sink's
    output coverage: stateful operators (shifts, sliding aggregates) can
    emit events beyond the last source sample, and the eager walk must visit
    those tail windows no matter what window geometry the backend uses —
    this is what keeps eager results identical to targeted ones.
    """
    spans = [node.coverage.span() for node in sources if node.coverage]
    if not spans:
        return None
    start = min(span[0] for span in spans)
    end = max(span[1] for span in spans)
    sink_coverage = sink.coverage
    if sink_coverage:
        coverage_start, coverage_end = sink_coverage.span()
        start = min(start, coverage_start)
        end = max(end, coverage_end)
    return start, end


def _eager_span(plan: CompiledPlan) -> tuple[int, int] | None:
    """:func:`coverage_span` of a whole plan."""
    return coverage_span(source_nodes(plan.sink), plan.sink)


def _window_starts(plan: CompiledPlan, targeted: bool) -> list[int]:
    """Output-window start times the executor will visit, in increasing order."""
    sink = plan.sink
    dimension = sink.dimension
    if dimension is None:
        raise ExecutionError("plan has no dimensions assigned; was it compiled?")
    offset = sink.descriptor.offset
    if targeted:
        coverage = sink.coverage
    else:
        # Eager processing: walk every window in the union of the sources'
        # spans, exactly as a push-based engine would ingest everything.
        span = _eager_span(plan)
        if span is None:
            return []
        coverage = IntervalSet.single(*span)
    return list(coverage.iter_windows(dimension, offset))


def span_window_count(plan: CompiledPlan, span: tuple[int, int] | None) -> int:
    """Number of output windows an eager walk of *span* visits, by arithmetic."""
    sink = plan.sink
    if sink.dimension is None:
        raise ExecutionError("plan has no dimensions assigned; was it compiled?")
    if span is None:
        return 0
    return IntervalSet.single(*span).count_windows(sink.dimension, sink.descriptor.offset)


def eager_window_count(plan: CompiledPlan) -> int:
    """Number of windows an eager run would visit, by pure arithmetic.

    Equivalent to ``len(_window_starts(plan, targeted=False))`` but derived
    from the sources' span and the sink dimension without materialising a
    window-start list, so the targeted executor can report how many windows
    it skipped at no per-run cost.
    """
    return span_window_count(plan, _eager_span(plan))


def sink_columns(events: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialised ``(times, values, durations)`` columns for *events* events.

    Sized for every slot the caller may fill, so a run writes each event
    exactly once; :func:`shrink_columns` then trims them to what was written.
    """
    return (
        np.empty(events, dtype=np.int64),
        np.empty(events, dtype=np.float64),
        np.empty(events, dtype=np.int64),
    )


def write_sink_events(window, columns, cursor: int) -> int:
    """Write *window*'s present events into *columns* from *cursor* on.

    How a one-shot run materialises its output — the serial window loop
    and run execution both emit through here, so a long result is written
    once, in place.  Returns the cursor past the last event written.
    """
    indices = window.present_indices()
    if not indices.size:
        return cursor
    end = cursor + indices.size
    times, values, durations = columns
    times = times[cursor:end]
    np.multiply(indices, window.period, out=times)
    times += window.sync_time
    window.values.take(indices, out=values[cursor:end], mode="clip")
    window.durations.take(indices, out=durations[cursor:end], mode="clip")
    return end


def sink_events(window) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """*window*'s present events as fresh ``(times, values, durations)`` columns.

    How a session tick takes its events: one gather per column, sized
    exactly, with no columns to reserve and trim for the handful of events
    a tick emits.  Same events, same order as :func:`write_sink_events`.
    """
    indices = window.present_indices()
    return (
        window.sync_time + indices * window.period,
        window.values[indices],
        window.durations[indices],
    )


def shrink_columns(columns, events: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trim *columns* in place to their first *events* entries.

    ``ndarray.resize`` reallocates without copying what stays, so the
    result owns exactly its events.  No view of the columns may outlive
    this call.
    """
    for column in columns:
        column.resize(events, refcheck=False)
    return columns


def fill_windows(sink, starts: Sequence[int], collect: bool = True):
    """Fill *sink* at each of *starts* in order; return its present events.

    The serial window loop: ``(times, values, durations)`` columns of every
    event the sink emitted, empty when *collect* is off.
    """
    columns = sink_columns(len(starts) * sink.fwindow.capacity if collect else 0)
    cursor = 0
    for start in starts:
        sink.fill(start)
        if collect:
            cursor = write_sink_events(sink.fwindow, columns, cursor)
    return shrink_columns(columns, cursor)


def run_window_loop(
    plan: CompiledPlan,
    starts: Sequence[int],
    collect: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Drive the sink through *starts*, returning the collected columns.

    The plan's runtime state is reset first.  Returns ``(times, values,
    durations, elapsed_seconds, windows_run)``.
    """
    sink = plan.sink
    nodes = topological_order(sink)
    for node in nodes:
        node.reset()

    began = time.perf_counter()
    times, values, durations = fill_windows(sink, starts, collect)
    elapsed = time.perf_counter() - began
    return times, values, durations, elapsed, len(starts)


def build_stats(
    plan: CompiledPlan,
    output_windows: int,
    events_emitted: int,
    elapsed: float,
    targeted: bool,
) -> ExecutionStats:
    """Assemble the :class:`ExecutionStats` for a completed run."""
    nodes = topological_order(plan.sink)
    if targeted:
        skipped = max(0, eager_window_count(plan) - output_windows)
    else:
        skipped = 0
    return ExecutionStats(
        output_windows=output_windows,
        windows_computed=sum(node.windows_computed for node in nodes),
        windows_skipped=skipped,
        events_emitted=events_emitted,
        events_ingested=sum(
            node.source.event_count() for node in nodes if isinstance(node, SourceNode)
        ),
        preallocated_bytes=plan.memory_plan.total_bytes,
        elapsed_seconds=elapsed,
        targeted=targeted,
        per_node_windows={node.name: node.windows_computed for node in nodes},
    )
