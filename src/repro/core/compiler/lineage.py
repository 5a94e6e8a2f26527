"""Event lineage on the sink's window grid (Sections 5.1 and 5.3).

The linearity property of temporal operators on periodic streams means that
every output event can be mapped back to its parent input events, and —
composed across the whole query — every output window can be mapped back
to the spans of the sources it reads.  LifeStream uses the *forward*
direction of this mapping: each source reports the interval set where data
actually exists (its *coverage*), and each operator maps which of its
inputs' windows hold data to which of its own windows can (its
``coverage_rows``).  Joins intersect, which is exactly what lets targeted
query processing skip the expensive upstream transforms on data that a
downstream join would discard.

The lineage is one boolean row per node on the sink's window grid
(:class:`CoverageProgram`).  Every streaming tick asks it which windows
past its frontier can emit (:meth:`CoverageProgram.rows`), a block of
sessions cloned from one template as one array program; ``explain()``, the
plan verifier and the contracts ask it once over the whole history of a
plan's sources (:meth:`CoverageProgram.history`, :func:`covered_windows`).
Both questions build their source rows with :meth:`CoverageProgram.source_rows`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.graph import OperatorNode, PlanNode, SourceNode
from repro.core.intervals import roll_windows, spread_windows
from repro.core.operators.base import Operator
from repro.errors import CompilationError, ExecutionError


def _rebase(row, windows: int, straddles: bool):
    """A node's row as read *windows* (plus a fraction when *straddles*)
    windows after the position it was evaluated at."""
    moved = roll_windows(row, -windows)
    return moved | roll_windows(row, -windows - 1) if straddles else moved


class CoverageProgram:
    """The lineage of one plan shape, flattened once into one step per node.

    The steps, in topological order, are: read a source's row, or map an
    operator's input rows to its own (``Operator.coverage_rows``).  A row
    holds one column per sink window and is True where the node has
    coverage in the span a fill of that window reads from it; a block of
    rows, one per session, is the question a streaming tick asks
    (:meth:`rows`).  Rows may mark windows that cannot emit, never leave
    out one that can; running such a window is what an eager run does.

    A row is evaluated at the node's own read position, so time maps cost
    nothing on the grid; a consumer that reads the node elsewhere (a
    multicast at two positions) reads the row moved by whole windows, ORed
    with its neighbour when the move is not whole.  Clones of a plan-cache
    template share its operators and source descriptors, so the template's
    program (:func:`coverage_program`) plans every clone.
    """

    def __init__(self, nodes: Sequence[PlanNode]) -> None:
        slot = {id(node): index for index, node in enumerate(nodes)}
        #: ``(operator or None for a source, input slots)`` per node.
        self.steps: list[tuple[Operator | None, tuple[int, ...]]] = []
        for node in nodes:
            if isinstance(node, SourceNode):
                self.steps.append((None, ()))
            elif isinstance(node, OperatorNode):
                self.steps.append(
                    (node.operator, tuple(slot[id(upstream)] for upstream in node.inputs))
                )
            else:  # pragma: no cover - defensive
                raise CompilationError(f"unknown node type {type(node).__name__}")
        self._descriptors = [node.descriptor for node in nodes]
        #: Window dimension of the sink grid.
        self.dimension: int = nodes[-1].dimension
        self._bind_grid(nodes)

    # -- the window grid -----------------------------------------------------

    def _read_offsets(self, start: int) -> list[list[int]]:
        """Per node, every offset from the sink window at *start* at which
        filling that window reads the node, the first read first."""
        reads: list[list[int]] = [[] for _ in self.steps]

        def visit(index: int, position: int) -> None:
            if position - start in reads[index]:
                return
            reads[index].append(position - start)
            operator, inputs = self.steps[index]
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
            for index, (node, (operator, _)) in enumerate(zip(nodes, self.steps))
            if operator is None
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
        for index, (operator, inputs) in enumerate(self.steps):
            if operator is None:
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
            alias = default and len(inputs) == 1 and not reach
            self._row_steps.append((index, None if alias else operator, edges))
        #: ``(slot, reach in windows)`` of every stateful node whose carry
        #: reaches back, sink first: the warm-up rule of :meth:`rows`.
        self._warmups = [
            (index, -(-nodes[index].operator.coverage_reach() // dimension))
            for index, _, _ in reversed(self._row_steps)
            if nodes[index].declared_carries()
            and nodes[index].operator.coverage_reach() > 0
        ]

    # -- source rows ---------------------------------------------------------

    def candidates(self, covers: Sequence[Sequence[tuple[int, int]]]):
        """``(begin, end, low, high)`` for one member whose sources (in
        :attr:`sources` order) hold the intervals *covers*: where their data
        begins and ends, and the sink windows ``low`` to ``high`` (indices on
        the grid) its marks can reach — from the first window some source
        read meets the data in, less the windows marks can move earlier, to
        the last, plus those they can move later.  None without data."""
        begin = end = None
        for intervals in covers:
            if intervals:
                if begin is None or intervals[0][0] < begin:
                    begin = intervals[0][0]
                if end is None or intervals[-1][1] > end:
                    end = intervals[-1][1]
        if begin is None:
            return None
        dimension, phase = self.dimension, self.phase
        low = (begin - self.read_end - phase) // dimension + 1 - self.early
        high = (end - 1 - self.read_start - phase) // dimension + 1 + self.spread
        return begin, end, low, high

    def source_rows(self, covers: Sequence, lows: Sequence[int], highs: Sequence[int]):
        """One boolean block (members × columns) per source: member *m*'s
        row marks every window whose read of the source meets one of the
        intervals ``covers[m][source]``, column 0 being window
        ``lows[m] - spread`` (a member with ``low == high`` has no marks)."""
        dimension, phase, spread = self.dimension, self.phase, self.spread
        columns = max(high - low for low, high in zip(lows, highs)) + spread
        blocks = []
        for index, (_, offset, width) in enumerate(self.sources):
            cells: list[int] = []
            for row, (member, low, high) in enumerate(zip(covers, lows, highs)):
                if high == low:
                    continue
                # The flat index of window k of this member's row.
                base = row * columns - (low - spread)
                for begin, end in member[index]:
                    here = (begin - width - offset - phase) // dimension + 1
                    there = (end - 1 - offset - phase) // dimension + 1
                    cells.extend(range(base + here, base + there))
            block = np.zeros((len(covers), columns), dtype=bool)
            block.flat[cells] = True
            blocks.append(block)
        return blocks

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self, source_rows: Sequence[np.ndarray]) -> tuple[list, dict]:
        """Every node's row, and every operator node's input rows as it
        reads them, from one block per source."""
        if self.grid_error is not None:
            raise ExecutionError(self.grid_error)
        rows: list = [None] * len(self.steps)
        for (index, _, _), row in zip(self.sources, source_rows):
            rows[index] = row
        inputs: dict[int, list] = {}
        for index, operator, edges in self._row_steps:
            read = inputs[index] = [
                _rebase(rows[upstream], windows, straddles)
                for upstream, windows, straddles in edges
            ]
            rows[index] = read[0] if operator is None else operator.coverage_rows(read, self.dimension)
        return rows, inputs

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
        rows, inputs = self._evaluate(source_rows)
        covered = scheduled = rows[-1]
        for index, reach in self._warmups:
            present = inputs[index][0]
            for other in inputs[index][1:]:
                present = present | other
            scheduled = scheduled | (spread_windows(scheduled, -reach) & present)
        return covered, scheduled

    def history(self, sources) -> tuple[int, list[np.ndarray]]:
        """The rows over the whole history of *sources* (one per entry of
        :attr:`sources`), as a first tick of a one-shot run plans them:
        ``(first, rows)``, where ``rows[slot]`` is node *slot*'s row and its
        column *k* is the sink window starting at ``first + k * dimension``.
        Raises, as :meth:`rows` does, when the plan cannot be ticked
        (:attr:`grid_error`)."""
        covers = [source.coverage().intervals for source in sources]
        found = self.candidates(covers)
        low, high = (0, 0) if found is None else found[2:]
        rows, _ = self._evaluate(self.source_rows([covers], [low], [high]))
        return self.phase + low * self.dimension, [row[0, self.spread:] for row in rows]


def coverage_program(plan) -> CoverageProgram:
    """The :class:`CoverageProgram` of a compiled *plan*'s shape: the one
    its compile built, held by its plan-cache template (by *plan* itself
    when it was compiled directly)."""
    shape = plan if plan.template is None else plan.template
    if shape.program is None:
        shape.program = CoverageProgram(shape.nodes)
    return shape.program


def covered_windows(plan) -> np.ndarray:
    """The start of every sink window that can emit over the whole history
    of *plan*'s sources: the windows a one-shot targeted run plans, less
    warm-ups."""
    program = coverage_program(plan)
    first, rows = program.history(plan.nodes[slot].source for slot, _, _ in program.sources)
    return first + np.flatnonzero(rows[-1]) * program.dimension
