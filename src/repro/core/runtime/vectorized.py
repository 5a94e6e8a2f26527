"""Run-lowered (vectorized) plan execution.

The serial executor slides every FWindow one window at a time and pays the
per-window costs — a Python graph walk, a window slide, a source read, a
handful of fixed-overhead NumPy calls on a few hundred samples — once per
window per node.  On periodic grids those costs are pure overhead: the
paper's central observation is that index ↔ time conversion is arithmetic,
so *consecutive* windows of every stream in the plan occupy *consecutive*
slots of one contiguous column buffer.

This module lowers window loops onto that observation:

* :func:`runs_for_coverage` / :func:`runs_for_starts` convert the targeted
  coverage (an :class:`~repro.core.intervals.IntervalSet`) into maximal
  **runs of consecutive windows** — disjoint, and exactly tiling the window
  starts the serial executor would visit;
* :class:`RunExecutor` allocates one contiguous run buffer (an FWindow of
  dimension ``count * D``) per run per stream — not per window — and pulls
  each run through the graph in a single walk, dispatching every lowerable
  operator's :meth:`~repro.core.operators.base.Operator.compute_run` as one
  NumPy array program over the whole run;
* operators that are not lowerable (``batch_safe`` is False, or no
  ``compute_run`` implementation) fall back **per node** to the serial
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
the same window sequence in the same order as the serial loop — their
``compute`` is already extent-invariant for batch-safe operators (the
property the contract analyzer's LS201 check proves), so carries evolve
identically across run boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.fwindow import FWindow
from repro.core.graph import OperatorNode, PlanNode, SourceNode, topological_order
from repro.core.intervals import IntervalSet
from repro.core.operators.base import Operator
from repro.errors import ExecutionError

#: Default cap on windows per run buffer.  Long eager spans are chunked into
#: consecutive runs of at most this many windows, bounding run-buffer memory;
#: chunking is exact (a chunk boundary is just another run boundary, and
#: stateful operators carry across it exactly as they carry across windows).
DEFAULT_MAX_RUN_WINDOWS = 512


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


def runs_for_coverage(
    coverage: IntervalSet,
    window: int,
    offset: int = 0,
    max_run_windows: int | None = None,
) -> list[tuple[int, int]]:
    """Convert *coverage* into maximal runs of consecutive windows.

    The runs tile exactly the window starts
    ``coverage.iter_windows(window, offset)`` yields — the set the targeted
    serial executor visits — grouped greedily into maximal consecutive
    stretches (optionally chunked at *max_run_windows*).
    """
    return runs_for_starts(coverage.iter_windows(window, offset), window, max_run_windows)


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
    window-by-window fallback) and ``batch_safe`` inputs — the run buffer is
    a widened window, so only widening-invariant operators may compute it in
    one call.
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
    )


def annotate_plan(sink: PlanNode) -> str:
    """Compile-time entry point for the ``vectorize`` pass.

    Marks every operator node with a ``vectorizable`` attribute (for plan
    introspection) and returns the one-line summary stored in the pass
    metadata.  The runtime re-derives the same analysis from the operators
    themselves, so plans that skip the pass (or clones from
    ``CompiledPlan.instantiate``) lower identically.
    """
    info = analyze_plan(sink)
    for node in topological_order(sink):
        if isinstance(node, OperatorNode):
            node.vectorizable = info.runnable and info.lowered.get(id(node), False)
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


# ---------------------------------------------------------------------------
# The run executor
# ---------------------------------------------------------------------------


class RunExecutor:
    """Pulls runs of consecutive windows through a plan graph.

    One contiguous run buffer (an FWindow of dimension ``count * D``) is
    allocated per node and reused across runs of the same length; lowered
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
        self._pool_bytes = 0
        #: All buffers ever allocated, keyed by (node, run length) — coverage
        #: gaps make run lengths alternate between a handful of values, and
        #: reusing the matching buffer instead of reallocating keeps the
        #: executor allocation-free in the steady state.
        self._pool: dict[tuple[int, int], FWindow] = {}
        #: Topologically ordered ``(node, offset)`` fill schedule: each
        #: node's fill position is ``run start + offset``.  With pure-shift
        #: time maps (``analyze_plan`` rejects everything else) the offset
        #: of ``align_down(start + shift)`` from ``start`` depends only on
        #: ``start % D``, so one walk serves every run with the same phase.
        self._schedule: list[tuple[PlanNode, int]] | None = None
        self._schedule_phase: int | None = None
        #: Per run-length bindings of the schedule to concrete run buffers.
        self._bound: dict[int, list] = {}

    def _buffer(self, node: PlanNode, count: int) -> FWindow:
        key = (id(node), count)
        window = self._pool.get(key)
        if window is None:
            window = FWindow(
                node.descriptor,
                node.dimension * count,
                name=f"{node.name}@run",
                monotonic=False,
            )
            self._pool[key] = window
            self._pool_bytes += window.memory_bytes()
            self.peak_buffer_bytes = max(self.peak_buffer_bytes, self._pool_bytes)
        return window

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

    def execute_run(
        self,
        start: int,
        count: int,
        collect: bool,
        times: list[np.ndarray],
        values: list[np.ndarray],
        durations: list[np.ndarray],
    ) -> int:
        """Execute ``count`` consecutive windows beginning at *start*.

        Appends the sink's present events (in stream order) to the columnar
        accumulators when *collect* is set and returns the number appended.
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
                # this node (not batch-safe), so only the serial per-window
                # semantics are exact.
                Operator.compute_run(operator, window, inputs, node.state, count)
                self.fallback_nodes.add(node.name)
            node.windows_computed += count

        if not collect:
            return 0
        indices = window.present_indices()
        if not indices.size:
            return 0
        times.append(window.sync_time + indices * window.period)
        # Fancy indexing already yields fresh arrays — safe to keep past the
        # buffer's reuse in the next run.
        values.append(window.values[indices])
        durations.append(window.durations[indices])
        return int(indices.size)
