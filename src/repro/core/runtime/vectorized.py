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
* :class:`RunExecutor` allocates one contiguous run buffer (an FWindow of
  dimension ``cap * D``) per stream — not per window, and not per run
  length: a shorter run uses a prefix view of it, a one-window run the
  stream's planned FWindow — and pulls
  each run through the graph in a single walk, dispatching every lowerable
  operator's :meth:`~repro.core.operators.base.Operator.compute_run` as one
  NumPy array program over the whole run, then writes the sink's present
  events once, at a cursor, into result columns the caller sized;
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
cloned from one plan template, and :class:`CohortExecutor` stacks one ready
window of each into the rows of one buffer per node, so a stateless
lowered operator computes the whole cohort in one ``compute_run`` while
stateful ones run per member over row views (cross-tenant cohorts, see
DESIGN.md).

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

from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable

import numpy as np

from repro.core.fwindow import FWindow
from repro.core.graph import OperatorNode, PlanNode, SourceNode, topological_order
from repro.core.operators.base import Operator
from repro.core.runtime.executor import write_sink_events
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
    #: ``id(node) -> True`` for operator nodes whose ``compute_run`` is
    #: dispatched as one array program over the run; False means the node
    #: executes window-by-window (per-node serial fallback).
    lowered: dict[int, bool]
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
        return VectorPlanInfo(False, "plan has no dimensions assigned", {}, 0, 0)
    if len(dimensions) != 1:
        return VectorPlanInfo(
            False, f"plan mixes FWindow dimensions {sorted(dimensions)}", {}, 0, 0
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
                    {},
                    len(operators),
                    0,
                )
    lowered = {id(node): node_lowerable(node) for node in operators}
    return VectorPlanInfo(
        runnable=True,
        reason="",
        lowered=lowered,
        operator_nodes=len(operators),
        lowered_operators=sum(lowered.values()),
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

    Cached on the plan object itself so its lifetime is tied to the plan's.
    """
    info = plan.__dict__.get("_vector_info")
    if info is None:
        info = plan.__dict__["_vector_info"] = analyze_plan(plan.sink)
    return info


def share_vector_info(template, clone, clones: dict[int, PlanNode]) -> None:
    """Give *clone* the analysis of the *template* it was instantiated from.

    Which nodes lower depends only on the plan's shape, which
    :meth:`~repro.core.compiler.CompiledPlan.instantiate` copies, so the
    template is analysed once and each clone gets that analysis re-keyed
    through *clones* (``id(template node) -> clone node``).
    """
    info = plan_vector_info(template)
    lowered = {id(clones[key]): flag for key, flag in info.lowered.items()}
    clone.__dict__["_vector_info"] = replace(info, lowered=lowered)


# ---------------------------------------------------------------------------
# The run executor
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


class RunExecutor:
    """Pulls runs of consecutive windows through a plan graph.

    One contiguous run buffer (an FWindow of dimension ``run_windows * D``)
    is allocated per node and reused by every run, a shorter run filling a
    zero-copy prefix view of it and a one-window run filling the node's own
    planned FWindow (so single-window ticks allocate nothing).  Lowered
    operators compute the whole run in one call, the rest fall back to the
    window-by-window default over zero-copy subwindow views.  The executor
    reads and advances the plan nodes' own ``state`` and
    ``windows_computed``, so one-shot runs, resumed sessions and checkpoints
    all see exactly the serial executor's bookkeeping.
    """

    def __init__(self, plan, info: VectorPlanInfo | None = None) -> None:
        self.plan = plan
        self.info = plan_vector_info(plan) if info is None else info
        if not self.info.runnable:
            raise ExecutionError(
                f"plan is not run-lowerable: {self.info.reason}; "
                f"execute it with the serial backend instead"
            )
        #: Names of operator nodes that executed window-by-window (at least
        #: once) — the honest-execution-mode report reads this.
        self.fallback_nodes: set[str] = set()
        #: High-water mark of run-buffer bytes allocated by this executor.
        self.peak_buffer_bytes = 0
        #: Windows every node's run buffer holds (see :meth:`reserve`).
        self.run_windows = 0
        #: The sink's run buffer after the last :meth:`execute_run`.
        self.sink_window: FWindow | None = None
        #: The run buffer of every node, keyed by ``id(node)``.
        self._buffers: dict[int, FWindow] = {}
        #: The :func:`fill_schedule` of the current run phase.
        self._schedule: list[tuple[PlanNode, int]] | None = None
        self._schedule_phase: int | None = None
        #: Per run-length bindings of the schedule to (prefix views of) the
        #: run buffers.
        self._bound: dict[int, list] = {}

    def reserve(self, windows: int) -> None:
        """Size the run buffers for runs of up to *windows* windows.

        Buffers only grow.  Callers reserve the longest run they are about to
        execute, so a one-shot execution allocates once, and a session
        reallocates only when a tick brings a longer run than any before.
        """
        if windows <= self.run_windows:
            return
        self.run_windows = int(windows)
        self._buffers.clear()
        self._bound.clear()

    def _buffer(self, node: PlanNode, count: int) -> FWindow:
        if count == 1:
            # A one-window run is exactly the node's own planned FWindow.
            return node.fwindow
        window = self._buffers.get(id(node))
        if window is None:
            window = self._buffers[id(node)] = FWindow(
                node.descriptor,
                node.dimension * self.run_windows,
                name=f"{node.name}@run",
                monotonic=False,
            )
            allocated = sum(buffer.memory_bytes() for buffer in self._buffers.values())
            self.peak_buffer_bytes = max(self.peak_buffer_bytes, allocated)
        if count == self.run_windows:
            return window
        return window.prefix(node.dimension * count)

    def _bind(self, count: int) -> list:
        """Bind the schedule to the run buffers for run length *count*."""
        windows = {
            id(node): self._buffer(node, count) for node, _ in self._schedule
        }
        bound = []
        for node, offset in self._schedule:
            window = windows[id(node)]
            if isinstance(node, SourceNode):
                bound.append((node, offset, window, None, None, False))
            else:
                inputs = [windows[id(upstream)] for upstream in node.inputs]
                lowered = bool(self.info.lowered.get(id(node), False))
                bound.append((node, offset, window, node.operator, inputs, lowered))
        self._bound[count] = bound
        return bound

    def execute_run(self, start: int, count: int, columns=None, cursor: int = 0) -> int:
        """Execute ``count`` consecutive windows beginning at *start*.

        *count* must not exceed :attr:`run_windows` (:meth:`reserve` first).
        Writes the sink's present events (in stream order) into *columns*
        from *cursor* on, when columns are given, and returns the cursor
        past them; the events also stay readable in :attr:`sink_window`
        until the next run.
        """
        start = int(start)
        count = int(count)
        phase = start % self.plan.sink.dimension
        if self._schedule is None or self._schedule_phase != phase:
            self._schedule = fill_schedule(self.plan.sink, start)
            self._schedule_phase = phase
            self._bound.clear()
        bound = self._bound.get(count)
        if bound is None:
            bound = self._bind(count)

        window = None
        for node, offset, window, operator, inputs, lowered in bound:
            node_start = start + offset
            window.slide_to(node_start)
            if operator is None:
                read_times, read_values, read_durations = node.source.read(
                    node_start, node_start + node.dimension * count
                )
                if read_times.size:
                    window.set_events(read_times, read_values, read_durations)
            elif lowered:
                operator.compute_run(window, inputs, node.state, count)
            else:
                # Force the base-class window-by-window fallback even if the
                # operator defines a run kernel: lowering was rejected for
                # this node (its run kernel is not exact here), so only the
                # serial per-window semantics are.
                Operator.compute_run(operator, window, inputs, node.state, count)
                self.fallback_nodes.add(node.name)
            node.windows_computed += count

        self.sink_window = window
        if columns is None:
            return cursor
        return write_sink_events(window, columns, cursor)


# ---------------------------------------------------------------------------
# Cross-tenant cohorts
# ---------------------------------------------------------------------------


class CohortExecutor:
    """Executes one window of each of many clones of one template together.

    Serving runs many sessions cloned from one
    :class:`~repro.serve.cache.PlanCache` template; when several of them
    have exactly one ready window in the same batch, they form a **cohort**
    and execute along a tenant axis.  Every template node owns one stacked
    FWindow of one row (window) per member; row *b* is a view positioned at
    member *b*'s own window, whatever start each member sits at (all on one
    grid phase).

    * A node **stacks** when it is lowered and stateless
      (``make_state()`` is None): one ``compute_run`` over all rows, as if
      they were a run of consecutive windows.  A stateless kernel depends
      only on its window's contents and the grid phase (the
      :meth:`~repro.core.operators.base.Operator.compute` contract), so each
      row is what that member computes alone.
    * Every other node runs per member over its rows, with that member's
      own state: bit-identical to the member ticking alone by construction.
    * Source rows are filled from each member's own source, and the sink's
      events are gathered once and split per member.

    Buffers only grow, sized for the largest cohort seen, as
    :meth:`RunExecutor.reserve` does.  The executor reads and advances the
    members' node ``state`` and ``windows_computed``, never the template's.
    It is cached on the template (:func:`cohort_executor`), so its buffers
    are scratch shared by every session and service cloned from that
    template: one plan cache's sessions may only tick from one thread at a
    time.
    """

    def __init__(self, template) -> None:
        info = plan_vector_info(template)
        self.nodes = topological_order(template.sink)
        self._position = {id(node): index for index, node in enumerate(self.nodes)}
        #: Per node: ``"source"``, ``"stacked"`` (lowered and stateless: one
        #: call for all rows), ``"lowered"`` (per member, run kernel) or
        #: ``"window"`` (per member, window loop).
        self._modes = [
            "source" if isinstance(node, SourceNode)
            else "window" if not info.lowered[id(node)]
            else "stacked" if node.operator.make_state() is None
            else "lowered"
            for node in self.nodes
        ]
        #: Whether some operator node runs below its run kernel (the
        #: per-window fallback), which demotes a session's execution mode.
        self.fell_back = "window" in self._modes
        #: Rows every stacked buffer holds (see :meth:`reserve`).
        self.rows = 0
        self._buffers: list[FWindow] = []
        #: Per node, a view of each row of its buffer.
        self._row_views: list[list[FWindow]] = []
        #: Per cohort size, the stacked views of the first that many rows.
        self._stacked: dict[int, list[FWindow]] = {}
        self._schedule: list[tuple] | None = None
        self._schedule_phase: int | None = None

    def reserve(self, members: int) -> None:
        """Size the stacked buffers for cohorts of up to *members* members."""
        if members <= self.rows:
            return
        self.rows = int(members)
        self._buffers = [
            FWindow(
                node.descriptor,
                node.dimension * members,
                name=f"{node.name}@cohort",
                monotonic=False,
            )
            for node in self.nodes
        ]
        self._row_views = [
            [buffer.subwindow(row, members) for row in range(members)]
            for buffer in self._buffers
        ]
        self._stacked.clear()

    def _views(self, count: int) -> list[FWindow]:
        views = self._stacked.get(count)
        if views is None:
            views = self._stacked[count] = [
                buffer if count == self.rows else buffer.prefix(node.dimension * count)
                for node, buffer in zip(self.nodes, self._buffers)
            ]
        return views

    def _bind_schedule(self, start: int) -> list[tuple]:
        """``(index, offset, operator, input indices, mode)`` per node, in
        fill order."""
        schedule = []
        for node, offset in fill_schedule(self.nodes[-1], start):
            index = self._position[id(node)]
            schedule.append((
                index,
                offset,
                getattr(node, "operator", None),
                tuple(self._position[id(upstream)] for upstream in node.inputs),
                self._modes[index],
            ))
        return schedule

    def execute(self, members: list[tuple[list[PlanNode], int]]) -> list[tuple]:
        """Execute one window per member; return each member's sink events.

        *members* holds ``(nodes, start)`` per member: the member plan's
        nodes in the template's topological order and the start of its one
        ready window.  Every start must lie on one phase of the sink grid.
        Returns one ``(times, values, durations)`` triple per member, in
        stream order, exactly as :func:`~repro.core.runtime.executor.sink_events`
        would for that member alone.
        """
        count = len(members)
        self.reserve(count)
        first = members[0][1]
        phase = first % self.nodes[-1].dimension
        if self._schedule is None or self._schedule_phase != phase:
            self._schedule = self._bind_schedule(first)
            self._schedule_phase = phase
        stacked = self._views(count)
        rows = self._row_views
        starts = [start for _, start in members]

        for index, offset, operator, inputs, mode in self._schedule:
            window = stacked[index]
            window.clear()
            window.sync_time = first + offset
            node_rows = rows[index]
            for row, start in zip(node_rows, starts):
                row.sync_time = start + offset
            if mode == "source":
                for row, (nodes, _) in zip(node_rows, members):
                    low = row.sync_time
                    times, values, durations = nodes[index].source.read(
                        low, low + row.dimension
                    )
                    if times.size:
                        row.set_events(times, values, durations)
            elif mode == "stacked":
                operator.compute_run(window, [stacked[i] for i in inputs], None, count)
            else:
                kernel = operator.compute_run if mode == "lowered" else partial(
                    Operator.compute_run, operator
                )
                input_rows = [rows[i] for i in inputs]
                for member, (row, (nodes, _)) in enumerate(zip(node_rows, members)):
                    kernel(row, [r[member] for r in input_rows], nodes[index].state, 1)
            for nodes, _ in members:
                nodes[index].windows_computed += 1
        return self._split_sink(stacked[-1], starts)

    def _split_sink(self, window: FWindow, starts: list[int]) -> list[tuple]:
        """Gather the stacked sink's present events once; split per member."""
        capacity = self._row_views[-1][0].capacity
        indices = window.present_indices()
        row_of = indices // capacity
        times = np.asarray(starts, dtype=np.int64)[row_of] + (
            indices - row_of * capacity
        ) * window.period
        values = window.values[indices]
        durations = window.durations[indices]
        bounds = [0, *np.searchsorted(row_of, range(1, len(starts))).tolist(), indices.size]
        return [
            (times[low:high], values[low:high], durations[low:high])
            for low, high in zip(bounds, bounds[1:])
        ]


def cohort_executor(template) -> CohortExecutor:
    """The :class:`CohortExecutor` of a plan-cache *template*, cached on it
    (the only mutable thing a cached template holds)."""
    executor = template.__dict__.get("_cohort_executor")
    if executor is None:
        executor = template.__dict__["_cohort_executor"] = CohortExecutor(template)
    return executor
