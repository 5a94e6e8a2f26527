"""Run-lowered (vectorized) plan execution.

The serial executor slides every FWindow one window at a time and pays the
per-window costs — a Python graph walk, a window slide, a source read, a
handful of fixed-overhead NumPy calls on a few hundred samples — once per
window per node.  On periodic grids those costs are pure overhead: the
paper's central observation is that index ↔ time conversion is arithmetic,
so *consecutive* windows of every stream in the plan occupy *consecutive*
slots of one contiguous column buffer.

This module lowers window loops onto that observation:

* :func:`runs_for_starts` groups the targeted window starts (those
  ``IntervalSet.iter_windows`` yields for the sink's coverage) into maximal
  **runs of consecutive windows** — disjoint, and exactly tiling the window
  starts the serial executor would visit;
* :class:`BlockExecutor` allocates one contiguous buffer (an FWindow of
  dimension ``rows * D``) per stream of a plan template — not per window,
  not per run length and not per clone: a run uses a view of it — and
  pulls each run through the graph in a single walk, dispatching every
  lowerable operator's
  :meth:`~repro.core.operators.base.Operator.compute_run` as one NumPy
  array program over the whole run, then gathers the sink's present
  events, or writes them once, at a cursor, into result columns the caller
  sized;
* an operator is lowerable when its ``compute_run`` is exact over a run of
  consecutive windows (``batch_safe``) and it has one beyond the base
  class's window loop.  Most run kernels are ``compute`` over the run
  buffer as one wider window; a window-aware kernel (interpolation, which
  clamps at every window edge) works on a ``(windows, slots)`` view of it;
* operators that are not lowerable (clip join, shape matching, resampling
  between non-multiple periods) fall back **per node** to the serial
  semantics: the default ``compute_run`` drives the operator's ordinary
  ``compute`` window-by-window over zero-copy views of the run buffer, so
  the fallback is bit-identical to serial execution by construction.

The same observation runs across tenants: serving holds many sessions
cloned from one plan template, and the executor stacks one ready window of
each into the rows of the same buffers, so a stateless lowered operator
computes the whole cohort in one ``compute_run`` while stateful ones run
per member over row views (cross-tenant cohorts, see DESIGN.md).  A run is
the one-member case of such a block.

Why runs are exact
------------------

After locality tracing every node of a compiled plan shares one uniform
dimension ``D``, and every operator's time map is a pure shift (scale 1) —
:func:`analyze_plan` verifies both.  ``input_sync_time`` is then
``align_down(t + shift)``, which distributes over multiples of ``D``, so
window ``k`` of an output run reads exactly window ``k`` of each input run:
positioning each run buffer *once* positions every window in it.  Stateful
operators (Shift carries, sliding-aggregate tails, join/chop carries) see
the same window sequence in the same order as the serial loop, and a
lowered ``compute_run`` leaves their state exactly where that many serial
windows would (the property the contract analyzer's LS202 check tests), so
carries evolve identically across run boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.fwindow import FWindow
from repro.core.graph import OperatorNode, PlanNode, SourceNode, topological_order
from repro.core.operators.base import Operator
from repro.core.runtime.executor import sink_events, write_sink_events
from repro.errors import ExecutionError

#: Grid slots one run buffer may hold.  The default cap on windows per run is
#: this budget over the widest per-window slot count in the plan, so a run
#: buffer costs about ``RUN_SLOT_BUDGET * 17`` bytes (value, duration and
#: presence per slot) — cache-sized, whatever the window size.  Longer runs
#: are chunked into consecutive runs of at most the cap; chunking is exact (a
#: chunk boundary is just another run boundary, and stateful operators carry
#: across it exactly as they carry across windows).  The value is measured:
#: see the budget sweep in DESIGN.md.
RUN_SLOT_BUDGET = 65_536


# ---------------------------------------------------------------------------
# Coverage -> runs
# ---------------------------------------------------------------------------


def runs_for_starts(
    starts: Iterable[int], window: int, max_run_windows: int | None = None
) -> list[tuple[int, int]]:
    """Group increasing window *starts* into maximal consecutive runs.

    Returns ``(start, count)`` pairs: ``count`` windows at ``start``,
    ``start + window``, ...  Runs are maximal (adjacent runs are never
    contiguous unless split by *max_run_windows*), disjoint, and together
    contain exactly the given starts.
    """
    if window <= 0:
        raise ExecutionError(f"window must be positive, got {window}")
    if max_run_windows is not None and max_run_windows < 1:
        raise ExecutionError(f"max_run_windows must be positive, got {max_run_windows}")
    runs: list[tuple[int, int]] = []
    run_start: int | None = None
    run_count = 0
    for start in starts:
        if (
            run_count
            and start == run_start + run_count * window
            and (max_run_windows is None or run_count < max_run_windows)
        ):
            run_count += 1
            continue
        if run_count:
            runs.append((run_start, run_count))
        run_start, run_count = int(start), 1
    if run_count:
        runs.append((run_start, run_count))
    return runs


# ---------------------------------------------------------------------------
# Plan analysis
# ---------------------------------------------------------------------------


@dataclass
class VectorPlanInfo:
    """What run-lowered execution can do with one compiled plan."""

    #: Whether run execution is sound for this plan at all (uniform
    #: dimension, pure-shift time maps).  When False, the vectorized backend
    #: delegates the whole plan to serial execution.
    runnable: bool
    #: Human-readable reason when not runnable (empty otherwise).
    reason: str
    #: Per node, by topological index: True for operator nodes whose
    #: ``compute_run`` is dispatched as one array program over the run;
    #: False for sources and for operator nodes that execute window by
    #: window (per-node serial fallback).  Positional, so every clone of a
    #: template reads the template's analysis.
    lowered: tuple[bool, ...]
    #: Total operator nodes in the plan.
    operator_nodes: int
    #: Operator nodes with a lowered run kernel.
    lowered_operators: int
    #: Default cap on windows per run: :data:`RUN_SLOT_BUDGET` over the slots
    #: in one window of the plan's finest-period stream, at least one.
    default_run_windows: int = 1

    @property
    def worthwhile(self) -> bool:
        """True when run execution would actually vectorize something.

        A runnable plan in which *no* operator node lowers would execute
        every node window-by-window — serial execution with extra buffer
        copies.  The vectorized backend runs (and reports) plain serial in
        that case, per the execution-mode honesty convention.
        """
        return self.runnable and (self.operator_nodes == 0 or self.lowered_operators > 0)


def node_lowerable(node: OperatorNode) -> bool:
    """True when *node*'s operator has a whole-run kernel that is exact here.

    Requires both a ``compute_run`` implementation (beyond the base class's
    window-by-window fallback) and ``batch_safe`` inputs — the operator's
    claim that this kernel is exact over a run of consecutive windows.
    """
    operator = node.operator
    if type(operator).compute_run is Operator.compute_run:
        return False
    return operator.batch_safe([inp.descriptor for inp in node.inputs])


def analyze_plan(sink: PlanNode) -> VectorPlanInfo:
    """Classify every node of the plan rooted at *sink* for run execution."""
    nodes = topological_order(sink)
    dimensions = {node.dimension for node in nodes}
    if None in dimensions:
        return VectorPlanInfo(False, "plan has no dimensions assigned", (), 0, 0)
    if len(dimensions) != 1:
        return VectorPlanInfo(
            False, f"plan mixes FWindow dimensions {sorted(dimensions)}", (), 0, 0
        )
    operators = [node for node in nodes if isinstance(node, OperatorNode)]
    for node in operators:
        for index in range(len(node.inputs)):
            if node.operator.time_map(index).scale != 1:
                # A time-scaling operator breaks the "consecutive windows map
                # to consecutive windows" invariant for the whole plan: even
                # per-window fallback views would be positioned wrongly.
                return VectorPlanInfo(
                    False,
                    f"operator {node.name} scales time "
                    f"(map {node.operator.time_map(index)})",
                    (),
                    len(operators),
                    0,
                )
    lowered = tuple(
        isinstance(node, OperatorNode) and node_lowerable(node) for node in nodes
    )
    return VectorPlanInfo(
        runnable=True,
        reason="",
        lowered=lowered,
        operator_nodes=len(operators),
        lowered_operators=sum(lowered),
        default_run_windows=max(
            1, RUN_SLOT_BUDGET // max(node.dimension // node.descriptor.period for node in nodes)
        ),
    )


def lowering_summary(sink: PlanNode) -> str:
    """The ``vectorize`` pass's one-line summary of :func:`analyze_plan`.

    The runtime takes the analysis itself from :func:`plan_vector_info`, so
    plans compiled without the pass lower identically.
    """
    info = analyze_plan(sink)
    if not info.runnable:
        return f"not run-lowerable ({info.reason})"
    return (
        f"{info.lowered_operators}/{info.operator_nodes} operator node(s) "
        f"lowerable to run kernels"
    )


def plan_vector_info(plan) -> VectorPlanInfo:
    """The (cached) run-lowering analysis for a compiled plan.

    Which nodes lower depends only on the plan's shape, which
    :meth:`~repro.core.compiler.CompiledPlan.instantiate` copies, so a clone
    reads its template's analysis: it is computed once per template (or per
    directly compiled plan) and cached on it, tying its lifetime to the
    template's.
    """
    owner = plan.template or plan
    info = owner.__dict__.get("_vector_info")
    if info is None:
        info = owner.__dict__["_vector_info"] = analyze_plan(owner.sink)
    return info


# ---------------------------------------------------------------------------
# The block executor
# ---------------------------------------------------------------------------


def fill_schedule(sink: PlanNode, start: int) -> list[tuple[PlanNode, int]]:
    """Every node of the plan under *sink*, inputs first, with its offset
    from a sink window at *start*.

    Mirrors the serial executor's recursive fill (children before parents,
    multicast nodes deduplicated like its ``_filled_at`` memo) as a flat
    replayable list: each node's fill position is ``start + offset``.  With
    pure-shift time maps (``analyze_plan`` rejects everything else) the
    offsets depend only on ``start % D``, so one walk serves every window
    with the same phase.
    """
    order: list[tuple[PlanNode, int]] = []
    positions: dict[int, int] = {}

    def visit(node: PlanNode, node_start: int) -> None:
        key = id(node)
        if key in positions:
            if positions[key] != node_start:
                raise ExecutionError(
                    f"node {node.name} is multicast at inconsistent "
                    f"positions {positions[key]} and {node_start}"
                )
            return
        positions[key] = node_start
        if isinstance(node, OperatorNode):
            operator = node.operator
            for index, upstream in enumerate(node.inputs):
                visit(
                    upstream,
                    operator.input_sync_time(node_start, index, upstream.descriptor),
                )
        order.append((node, node_start - start))

    visit(sink, start)
    return order


#: How :class:`BlockExecutor` runs a node: read its source, one kernel call
#: over the whole block, its run kernel per segment, or the base class's
#: window loop per segment.
SOURCE, STACKED, LOWERED, WINDOW = "source", "stacked", "lowered", "window"


class BlockExecutor:
    """Executes blocks of windows of the clones of one plan template.

    A **block** is a list of segments ``(nodes, start, count)``: ``count``
    consecutive windows from *start* on of one member plan, whose nodes
    *nodes* lists in the template's topological order.  Every start of a
    block lies on one phase of the sink grid.  A session's run of
    consecutive windows is a block of one segment; a cross-tenant cohort —
    sessions cloned from one :class:`~repro.serve.cache.PlanCache` template
    with one ready window each — is a block of one-window segments, one per
    member.

    Every template node owns one buffer FWindow of one row (window) per
    window of the block, the segments' rows back to back; a segment's rows
    are a zero-copy view positioned at its member's own start.  Per node:

    * a source fills each segment's rows from that member's own source, in
      one read over its windows;
    * a node **stacks** when it is lowered and stateless (``make_state()``
      is None): one ``compute_run`` over all rows of the block, as if they
      were one run.  A stateless kernel depends only on its window's
      contents and the grid phase (the
      :meth:`~repro.core.operators.base.Operator.compute` contract), so each
      row is what its member computes alone;
    * any other lowered node runs ``compute_run`` once per segment, with
      that member's own state, and a node that is not lowered runs the base
      class's window loop per segment over zero-copy window views:
      bit-identical to the member running alone by construction.

    The sink's present events are gathered once and split per segment, or
    written at the caller's cursor.  The buffers only grow, sized for the
    largest block so far.  The executor reads and advances the members' node
    ``state`` and ``windows_computed``, so one-shot runs, resumed sessions
    and checkpoints all see exactly the serial executor's bookkeeping; it
    never touches the template's.  It is cached on the template
    (:func:`block_executor`), so its buffers are scratch shared by every
    session and service cloned from that template: one plan cache's
    sessions may only tick from one thread at a time.
    """

    def __init__(self, template) -> None:
        info = plan_vector_info(template)
        if not info.runnable:
            raise ExecutionError(
                f"plan is not run-lowerable: {info.reason}; "
                f"execute it with the serial backend instead"
            )
        self._nodes = template.nodes
        self._dimension = template.sink.dimension
        self._position = {id(node): index for index, node in enumerate(self._nodes)}
        self._modes = [
            SOURCE if isinstance(node, SourceNode)
            else WINDOW if not lowered
            else STACKED if node.operator.make_state() is None
            else LOWERED
            for node, lowered in zip(self._nodes, info.lowered)
        ]
        #: Whether some operator node runs below its run kernel (the
        #: per-window fallback), which demotes a session's execution mode.
        self.fell_back = WINDOW in self._modes
        #: Rows (windows) every buffer holds (see :meth:`reserve`).
        self.rows = 0
        #: High-water mark of buffer bytes allocated by this executor.
        self.peak_buffer_bytes = 0
        self._buffers: list[FWindow] = []
        #: ``(first row, rows)`` -> per node, a view of those rows of its
        #: buffer, and per node the views of its inputs.
        self._views: dict[tuple[int, int], tuple[list, list]] = {}
        #: ``(topological index, offset, mode, operator)`` per node in fill
        #: order, for the grid phase ``_phase``.
        self._schedule: list[tuple] = []
        self._phase: int | None = None

    def reserve(self, rows: int) -> None:
        """Size the buffers for blocks of up to *rows* windows."""
        if rows <= self.rows:
            return
        self.rows = int(rows)
        self._buffers = [
            FWindow(
                node.descriptor,
                self._dimension * self.rows,
                name=f"{node.name}@block",
                monotonic=False,
            )
            for node in self._nodes
        ]
        self._views.clear()
        allocated = sum(buffer.memory_bytes() for buffer in self._buffers)
        self.peak_buffer_bytes = max(self.peak_buffer_bytes, allocated)

    def _view(self, row: int, rows: int) -> tuple[list, list]:
        key = (row, rows)
        views = self._views.get(key)
        if views is None:
            low, dimension = row * self._dimension, rows * self._dimension
            windows = [buffer.view(low, dimension) for buffer in self._buffers]
            inputs = [
                [windows[self._position[id(upstream)]] for upstream in node.inputs]
                for node in self._nodes
            ]
            views = self._views[key] = (windows, inputs)
        return views

    def execute(self, segments, columns=None, cursor: int = 0):
        """Execute the block *segments*: ``(nodes, start, count)`` each.

        Returns one ``(times, values, durations)`` triple per segment, in
        stream order, exactly as :func:`~repro.core.runtime.executor.sink_events`
        would for that member's windows run alone.  When *columns* are
        given, writes every segment's events into them from *cursor* on
        instead and returns the cursor past them.
        """
        rows = sum(count for _, _, count in segments)
        self.reserve(rows)
        views = self._views
        members = []
        row = 0
        for nodes, start, count in segments:
            view = views.get((row, count)) or self._view(row, count)
            members.append((nodes, int(start), count, row, view))
            row += count
        first = members[0][1]
        phase = first % self._dimension
        if phase != self._phase:
            self._schedule = []
            for node, offset in fill_schedule(self._nodes[-1], first):
                index = self._position[id(node)]
                operator = getattr(node, "operator", None)
                self._schedule.append((index, offset, self._modes[index], operator))
            self._phase = phase
        block, block_inputs = self._view(0, rows)

        for index, offset, mode, operator in self._schedule:
            window = block[index]
            window.clear()
            window.sync_time = first + offset
            if mode == STACKED:
                operator.compute_run(window, block_inputs[index], None, rows)
            for nodes, start, count, _, (windows, inputs) in members:
                node = nodes[index]
                window = windows[index]
                low = window.sync_time = start + offset
                if mode == SOURCE:
                    times, values, durations = node.source.read(low, low + window.dimension)
                    if times.size:
                        window.set_events(times, values, durations)
                elif mode == LOWERED:
                    operator.compute_run(window, inputs[index], node.state, count)
                elif mode == WINDOW:
                    # The base-class window loop even if the operator defines
                    # a run kernel: lowering was rejected for this node (its
                    # run kernel is not exact here), so only the serial
                    # per-window semantics are.
                    Operator.compute_run(operator, window, inputs[index], node.state, count)
                node.windows_computed += count

        if columns is not None:
            for *_, (windows, _) in members:
                cursor = write_sink_events(windows[-1], columns, cursor)
            return cursor
        if len(members) == 1:
            return [sink_events(block[-1])]
        return self._split_sink(block[-1], members)

    def _split_sink(self, window: FWindow, members: list[tuple]) -> list[tuple]:
        """Gather the block's sink events once; split them per segment."""
        indices = window.present_indices()
        row_of = indices // (self._dimension // window.period)
        # Row r of a segment whose rows begin at row `first` holds the window
        # at start + (r - first) * D, so one base per row turns slot indices
        # into times.
        bases = []
        for _, start, count, first, _ in members:
            bases += [start - first * self._dimension] * count
        times = np.asarray(bases)[row_of] + indices * window.period
        values = window.values[indices]
        durations = window.durations[indices]
        firsts = [member[3] for member in members]
        bounds = [*np.searchsorted(row_of, firsts).tolist(), indices.size]
        return [
            (times[low:high], values[low:high], durations[low:high])
            for low, high in zip(bounds, bounds[1:])
        ]


def block_executor(plan) -> BlockExecutor:
    """The :class:`BlockExecutor` of *plan*'s template, or of *plan* itself
    when it was compiled directly, cached on it (the only mutable thing a
    cached template holds)."""
    owner = plan.template or plan
    executor = owner.__dict__.get("_block_executor")
    if executor is None:
        executor = owner.__dict__["_block_executor"] = BlockExecutor(owner)
    return executor
