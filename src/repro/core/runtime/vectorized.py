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
from typing import Iterable

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
        #: Topologically ordered ``(node, offset)`` fill schedule: each
        #: node's fill position is ``run start + offset``.  With pure-shift
        #: time maps (``analyze_plan`` rejects everything else) the offset
        #: of ``align_down(start + shift)`` from ``start`` depends only on
        #: ``start % D``, so one walk serves every run with the same phase.
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

    def _build_schedule(self, start: int) -> list[tuple[PlanNode, int]]:
        """Walk the graph once, recording every node's offset from *start*.

        Mirrors the serial executor's recursive fill (children before
        parents, multicast nodes deduplicated like its ``_filled_at`` memo)
        but replaces the per-run recursion with a flat replayable list.
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

        visit(self.plan.sink, start)
        return order

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
            self._schedule = self._build_schedule(start)
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
