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
from repro.core.operators.base import Operator
from repro.core.timeutil import LinearTimeMap
from repro.errors import CompilationError


def propagate_coverage(
    sink: PlanNode,
    since: Mapping[int, int] | None = None,
    nodes: Sequence[PlanNode] | None = None,
    program: "CoverageProgram | None" = None,
) -> IntervalSet:
    """Compute and store the data coverage of every node in the plan.

    Returns the coverage of the sink (the final output stream): the interval
    set that the targeted executor walks.

    *since* gives per-source lower bounds, keyed by the source's position in
    the plan's topological order: each source then reports only its
    coverage from its bound on, and every node's coverage is exact only past
    the point those bounds were derived for (a streaming session derives
    them from its emission frontier, minus each operator's
    :meth:`~repro.core.operators.base.Operator.coverage_reach`).  Without it
    the whole history is propagated, as at compile time.  *nodes* is the
    plan's topological order and *program* its :class:`CoverageProgram`, for
    callers that already hold them.
    """
    nodes = topological_order(sink) if nodes is None else nodes
    if program is None:
        program = CoverageProgram(nodes)
    return program.run(nodes, since)


#: Step kinds of a :class:`CoverageProgram`.
_SOURCE, _CALL, _ALIAS = range(3)


def _aliases_input(operator: Operator) -> bool:
    """True when *operator*'s output coverage is its input 0's coverage."""
    return (
        type(operator).propagate_coverage is Operator.propagate_coverage
        and operator.time_map(0).is_identity()
    )


class CoverageProgram:
    """The lineage walk of one plan shape, flattened once.

    One step per node, in topological order: read a source's coverage, call
    an operator's ``propagate_coverage`` on the coverages in its input
    slots, or alias input 0's coverage for an operator whose coverage map is
    the base class's identity.  Clones of a plan-cache template share its
    operator objects and source descriptors, so the template's program
    (:func:`coverage_program`) evaluates every clone: :func:`propagate_coverage`
    runs it over whichever plan's nodes it is given.  The same steps carry
    the event-lineage map back from the sink (:meth:`input_syncs`).
    """

    def __init__(self, nodes: Sequence[PlanNode]) -> None:
        slot = {id(node): index for index, node in enumerate(nodes)}
        #: ``(kind, operator, input slots)`` per node.
        self.steps: list[tuple[int, Operator | None, tuple[int, ...]]] = []
        for node in nodes:
            if isinstance(node, SourceNode):
                self.steps.append((_SOURCE, None, ()))
            elif isinstance(node, OperatorNode):
                operator = node.operator
                self.steps.append((
                    _ALIAS if _aliases_input(operator) else _CALL,
                    operator,
                    tuple(slot[id(upstream)] for upstream in node.inputs),
                ))
            else:  # pragma: no cover - defensive
                raise CompilationError(f"unknown node type {type(node).__name__}")
        self._descriptors = [node.descriptor for node in nodes]

    def run(
        self, nodes: Sequence[PlanNode], since: Mapping[int, int] | None = None
    ) -> IntervalSet:
        """Store the coverage of every node of *nodes* (a plan of this
        program's shape, in topological order); return the sink's."""
        coverages: list[IntervalSet] = []
        for index, (node, (kind, operator, inputs)) in enumerate(zip(nodes, self.steps)):
            if kind == _SOURCE:
                coverage = node.source.coverage(None if since is None else since[index])
            elif kind == _ALIAS:
                coverage = coverages[inputs[0]]
            else:
                coverage = operator.propagate_coverage([coverages[i] for i in inputs])
            node.coverage = coverage
            coverages.append(coverage)
        return coverages[-1]

    def input_syncs(self, start: int, reach: bool = False) -> dict[int, int]:
        """``{source slot: sync time}``: where each source's FWindow sits for
        the output window at *start*, over every path from the sink down.

        Without *reach* a source takes its latest position on any path (the
        watermark a window waits for); with it each operator's
        ``coverage_reach()`` is taken off on the way and a source takes its
        earliest position: the first source time whose coverage can still
        matter to output coverage from *start* on.
        """
        table: dict[int, int] = {}
        pending = [(len(self.steps) - 1, start)]
        while pending:
            index, sync = pending.pop()
            kind, operator, inputs = self.steps[index]
            if kind == _SOURCE:
                known = table.get(index)
                if known is None or (sync < known if reach else sync > known):
                    table[index] = sync
                continue
            if reach:
                sync -= operator.coverage_reach()
            for position, upstream in enumerate(inputs):
                pending.append((
                    upstream,
                    operator.input_sync_time(sync, position, self._descriptors[upstream]),
                ))
        return table


def coverage_program(plan) -> CoverageProgram:
    """The :class:`CoverageProgram` of a compiled *plan*'s shape, cached on
    its plan-cache template (on *plan* itself when it was compiled directly)."""
    shape = plan if plan.template is None else plan.template
    program = shape.__dict__.get("_coverage_program")
    if program is None:
        program = shape.__dict__["_coverage_program"] = CoverageProgram(
            topological_order(shape.sink)
        )
    return program


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
