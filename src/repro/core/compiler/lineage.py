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

The same lineage runs twice: over interval sets and the whole history at
compile time (:func:`propagate_coverage`), and over boolean rows on the
sink's window grid for every streaming tick (:meth:`CoverageProgram.rows`),
where a block of sessions cloned from one template is one array program.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.graph import OperatorNode, PlanNode, SourceNode, topological_order
from repro.core.intervals import IntervalSet, roll_windows, spread_windows
from repro.core.operators.base import Operator
from repro.core.timeutil import LinearTimeMap
from repro.errors import CompilationError, ExecutionError


def propagate_coverage(
    sink: PlanNode,
    nodes: Sequence[PlanNode] | None = None,
    program: "CoverageProgram | None" = None,
) -> IntervalSet:
    """Compute and store the data coverage of every node in the plan.

    Returns the coverage of the sink (the final output stream), the whole
    history of it: the compiler's lineage pass, the plan verifier and
    ``explain()`` read it.  *nodes* is the plan's topological order and
    *program* its :class:`CoverageProgram`, for callers that already hold
    them.  A streaming session plans its ticks on window rows instead
    (:meth:`CoverageProgram.rows`).
    """
    nodes = topological_order(sink) if nodes is None else nodes
    if program is None:
        program = CoverageProgram(nodes)
    return program.run(nodes)


#: Step kinds of a :class:`CoverageProgram`.
_SOURCE, _CALL, _ALIAS = range(3)


def _aliases_input(operator: Operator) -> bool:
    """True when *operator*'s output coverage is its input 0's coverage."""
    return (
        type(operator).propagate_coverage is Operator.propagate_coverage
        and type(operator).coverage_rows is Operator.coverage_rows
        and operator.time_map(0).is_identity()
    )


def _rebase(row, windows: int, straddles: bool):
    """A node's row as read *windows* (plus a fraction when *straddles*)
    windows after the position it was evaluated at."""
    moved = roll_windows(row, -windows)
    return moved | roll_windows(row, -windows - 1) if straddles else moved


class CoverageProgram:
    """The lineage of one plan shape, flattened once into one step per node.

    The steps, in topological order, are: read a source's coverage, call an
    operator on its input slots, or alias input 0 for an operator that keeps
    the base class's identity coverage map.  :meth:`run` evaluates them on
    :class:`~repro.core.intervals.IntervalSet` coverage over the whole
    history (the compiler's lineage pass); :meth:`rows` on boolean rows,
    one row per session and one column per sink window, True where a node
    has coverage in the span a fill of that window reads from it — the
    question a streaming tick asks.  Rows may mark windows the interval
    sets leave out, never the reverse; running such a window is what an
    eager run does.

    A row is evaluated at the node's own read position, so time maps cost
    nothing on the grid; a consumer that reads the node elsewhere (a
    multicast at two positions) reads the row moved by whole windows, ORed
    with its neighbour when the move is not whole.  Clones of a plan-cache
    template share its operators and source descriptors, so the template's
    program (:func:`coverage_program`) plans every clone.
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
        #: Window dimension of the sink grid (None before locality tracing,
        #: when the program can only :meth:`run`).
        self.dimension: int | None = nodes[-1].dimension
        if self.dimension is not None:
            self._bind_grid(nodes)

    def run(self, nodes: Sequence[PlanNode]) -> IntervalSet:
        """Store the coverage of every node of *nodes* (a plan of this
        program's shape, in topological order); return the sink's."""
        coverages: list[IntervalSet] = []
        for node, (kind, operator, inputs) in zip(nodes, self.steps):
            if kind == _SOURCE:
                coverage = node.source.coverage()
            elif kind == _ALIAS:
                coverage = coverages[inputs[0]]
            else:
                coverage = operator.propagate_coverage([coverages[i] for i in inputs])
            node.coverage = coverage
            coverages.append(coverage)
        return coverages[-1]

    # -- the window grid -----------------------------------------------------

    def _read_offsets(self, start: int) -> list[list[int]]:
        """Per node, every offset from the sink window at *start* at which
        filling that window reads the node, the first read first."""
        reads: list[list[int]] = [[] for _ in self.steps]

        def visit(index: int, position: int) -> None:
            if position - start in reads[index]:
                return
            reads[index].append(position - start)
            _, operator, inputs = self.steps[index]
            for position_in, upstream in enumerate(inputs):
                visit(
                    upstream,
                    operator.input_sync_time(position, position_in, self._descriptors[upstream]),
                )

        visit(len(self.steps) - 1, start)
        return reads

    def _bind_grid(self, nodes: Sequence[PlanNode]) -> None:
        dimension = self.dimension
        #: Every sink window starts at ``phase + k * dimension``.
        self.phase = nodes[-1].descriptor.offset % dimension
        #: Per node, every offset from a sink window at which filling the
        #: window reads it, the first read first.
        self.reads = reads = self._read_offsets(self.phase)
        #: Why windows cannot be planned on the grid, or None.
        self.grid_error = None
        if reads != self._read_offsets(self.phase + dimension):
            self.grid_error = (
                "a time map scales time, so a node's position does not move "
                "by one window per window (LS102); the plan cannot be ticked"
            )
        #: Per node, the offset its row is evaluated at (its first read).
        self.offsets = [offsets[0] for offsets in reads]
        #: Per node, the offset past which every read of it ends: a window
        #: is ready once each replayed source's watermark reaches
        #: ``start + ready_offsets[slot]``.
        self.ready_offsets = [
            max(offsets) + node.dimension for offsets, node in zip(reads, nodes)
        ]
        #: ``(slot, offset, width)`` of every source, in topological order.
        self.sources = [
            (index, self.offsets[index], node.dimension)
            for index, (node, (kind, _, _)) in enumerate(zip(nodes, self.steps))
            if kind == _SOURCE
        ]
        #: Where the earliest source read of a window starts and the latest
        #: ends, as offsets from the window's start.
        self.read_start = min(offset for _, offset, _ in self.sources)
        self.read_end = max(offset + width for _, offset, width in self.sources)
        #: ``(slot, operator or None to alias input 0, input edges)`` per
        #: operator node; an edge is ``(input slot, whole windows, straddles)``
        #: from where the input's row was evaluated to where this node reads
        #: it.  The default rule over one input with no reach is an alias.
        self._row_steps = []
        #: Windows a mark can move later (and that many columns a block needs
        #: before its first candidate); windows it can move earlier.
        self.spread = self.early = 0
        for index, (kind, operator, inputs) in enumerate(self.steps):
            if kind == _SOURCE:
                continue
            edges = []
            for position_in, upstream in enumerate(inputs):
                read = operator.input_sync_time(
                    self.phase + self.offsets[index], position_in, self._descriptors[upstream]
                ) - self.phase
                windows, fraction = divmod(read - self.offsets[upstream], dimension)
                edges.append((upstream, windows, bool(fraction)))
                self.spread += max(0, -windows)
                self.early += max(0, windows + bool(fraction))
            reach = -(-operator.coverage_reach() // dimension)
            self.spread += reach
            default = type(operator).coverage_rows is Operator.coverage_rows
            alias = kind == _ALIAS or (default and len(inputs) == 1 and not reach)
            self._row_steps.append((index, None if alias else operator, edges))
        #: ``(slot, reach in windows)`` of every stateful node whose carry
        #: reaches back, sink first: the warm-up rule of :meth:`rows`.
        self._warmups = [
            (index, -(-nodes[index].operator.coverage_reach() // dimension))
            for index, _, _ in reversed(self._row_steps)
            if nodes[index].operator.make_state() is not None
            and nodes[index].operator.coverage_reach() > 0
        ]

    def rows(self, source_rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the program on window rows: ``(covered, scheduled)``.

        *source_rows* holds one boolean block (sessions × windows) per
        entry of :attr:`sources`.  *covered* is the sink's row, the windows
        that can emit; *scheduled* adds the warm-up windows.  A stateful
        node whose carry reaches back (a carry ``Shift``, a sliding
        aggregate) ages skipped input as absent, so every earlier window
        within its reach of a scheduled one where its input is marked runs
        too — sink first, so a downstream node's warm-ups warm the nodes
        above it.
        """
        if self.grid_error is not None:
            raise ExecutionError(self.grid_error)
        rows: list = [None] * len(self.steps)
        for (index, _, _), row in zip(self.sources, source_rows):
            rows[index] = row
        # Each operator node's input rows, as it reads them.
        inputs: dict[int, list] = {}
        for index, operator, edges in self._row_steps:
            read = inputs[index] = [
                _rebase(rows[upstream], windows, straddles)
                for upstream, windows, straddles in edges
            ]
            rows[index] = read[0] if operator is None else operator.coverage_rows(read, self.dimension)
        covered = scheduled = rows[-1]
        for index, reach in self._warmups:
            present = inputs[index][0]
            for other in inputs[index][1:]:
                present = present | other
            scheduled = scheduled | (spread_windows(scheduled, -reach) & present)
        return covered, scheduled


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
