"""Event lineage tracking and coverage propagation (Sections 5.1 and 5.3).

The linearity property of temporal operators on periodic streams means that
every output event can be mapped back to its parent input events, and —
composed across the whole query — every region of the final output can be
mapped back to regions of the sources.  LifeStream uses the *forward*
direction of this mapping at compile time: each source reports the interval
set where data actually exists (its *coverage*), and each operator
transforms its inputs' coverage into output coverage.  Joins intersect
coverage, which is exactly what lets targeted query processing skip the
expensive upstream transforms on data that a downstream join would discard.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.graph import OperatorNode, PlanNode, SourceNode, topological_order
from repro.core.intervals import IntervalSet
from repro.core.timeutil import LinearTimeMap
from repro.errors import CompilationError


def propagate_coverage(
    sink: PlanNode,
    since: Mapping[SourceNode, int] | None = None,
    nodes: Sequence[PlanNode] | None = None,
) -> IntervalSet:
    """Compute and store the data coverage of every node in the plan.

    Returns the coverage of the sink (the final output stream): the interval
    set that the targeted executor walks.

    *since* gives per-source lower bounds: each source then reports only its
    coverage from its bound on, and every node's coverage is exact only past
    the point those bounds were derived for (a streaming session derives
    them from its emission frontier, minus each operator's
    :meth:`~repro.core.operators.base.Operator.coverage_reach`).  Without it
    the whole history is propagated, as at compile time.  *nodes* is the
    plan's topological order, for callers that already hold it.
    """
    for node in topological_order(sink) if nodes is None else nodes:
        if isinstance(node, SourceNode):
            node.coverage = node.source.coverage(None if since is None else since[node])
        elif isinstance(node, OperatorNode):
            node.coverage = node.operator.propagate_coverage(
                [inp.coverage for inp in node.inputs]
            )
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unknown node type {type(node).__name__}")
    return sink.coverage


def forward_time_map(sink: PlanNode, source: SourceNode) -> LinearTimeMap:
    """Compose the linear time map from *source*'s domain to *sink*'s domain.

    Follows the first path found from the source to the sink.  Operators
    whose time map is the identity contribute nothing; shifts accumulate.
    This is the event-lineage map of Section 5.1 in closed form.
    """
    path = _find_path(sink, source)
    if path is None:
        raise CompilationError(f"source {source.name} is not an input of the plan")
    composed = LinearTimeMap.identity()
    # path is ordered source -> ... -> sink; each interior node is an operator
    # node whose time map takes its input's domain to its output's domain.
    for node in path[1:]:
        assert isinstance(node, OperatorNode)
        composed = node.operator.time_map(0).compose(composed)
    return composed


def backward_time_map(sink: PlanNode, source: SourceNode) -> LinearTimeMap:
    """Map from the sink's time domain back to the source's time domain."""
    return forward_time_map(sink, source).invert()


def trace_output_to_source(
    sink: PlanNode, source: SourceNode, output_interval: tuple[int, int]
) -> tuple[int, int]:
    """Map an output time interval back to the source interval that produced it."""
    return backward_time_map(sink, source).apply_interval(output_interval)


def _find_path(sink: PlanNode, target: SourceNode) -> list[PlanNode] | None:
    """Depth-first search for a path from *target* up to *sink* (ordered source→sink)."""
    if sink is target:
        return [sink]
    for child in sink.inputs:
        sub = _find_path(child, target)
        if sub is not None:
            return sub + [sink]
    return None


def redundant_source_coverage(sink: PlanNode) -> dict[str, IntervalSet]:
    """Per-source coverage that targeted processing will skip.

    For every source, this is the part of its data whose lineage never
    reaches the output (for example ECG regions with no overlapping ABP
    data, which an inner join downstream would discard).  The benchmark for
    Figure 10(a) uses this to report how much computation was pruned.
    """
    output_coverage = sink.coverage
    skipped: dict[str, IntervalSet] = {}
    for node in topological_order(sink):
        if not isinstance(node, SourceNode):
            continue
        backward = backward_time_map(sink, node)
        useful = IntervalSet(
            [backward.apply_interval(interval) for interval in output_coverage]
        )
        skipped[node.name] = node.coverage.difference(useful)
    return skipped
