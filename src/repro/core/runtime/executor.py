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


def collect_sink_window(
    sink,
    times: list[np.ndarray],
    values: list[np.ndarray],
    durations: list[np.ndarray],
) -> int:
    """Append the sink FWindow's present events to the columnar accumulators.

    The single materialisation point for output events — the window loop and
    the incremental streaming session both emit through here, so their
    results cannot drift apart.  Returns the number of events appended.
    """
    window = sink.fwindow
    indices = window.present_indices()
    if indices.size:
        times.append(window.sync_time + indices * window.period)
        values.append(window.values[indices].copy())
        durations.append(window.durations[indices].copy())
    return int(indices.size)


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

    collected_times: list[np.ndarray] = []
    collected_values: list[np.ndarray] = []
    collected_durations: list[np.ndarray] = []

    began = time.perf_counter()
    for start in starts:
        sink.fill(start)
        if collect:
            collect_sink_window(sink, collected_times, collected_values, collected_durations)
    elapsed = time.perf_counter() - began

    if collected_times:
        times = np.concatenate(collected_times)
        values = np.concatenate(collected_values)
        durations = np.concatenate(collected_durations)
    else:
        times = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
        durations = np.empty(0, dtype=np.int64)
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
