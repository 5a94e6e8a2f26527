"""Pluggable execution backends.

A backend decides *how* a compiled plan's ready windows are driven, one
session tick at a time (a one-shot ``CompiledQuery.run()`` is a session
drained in one tick):

* :class:`SerialBackend` — one window at a time, in-process: the reference
  every parity suite and operator contract compares to;
* :class:`VectorizedBackend` — the engine default, run execution: lowers
  the ready windows to maximal runs of consecutive windows and executes
  each operator as a single NumPy array program over one contiguous run
  buffer per stream (:mod:`~repro.core.runtime.vectorized`), falling back
  per node to the window-by-window semantics where lowering is not exact.

Both backends produce bit-identical :class:`~repro.core.runtime.result.StreamResult`
event columns for the same plan; the parity suite in
``tests/core/test_backends.py`` asserts this across operator-chain queries
in both targeted and eager modes.  Multi-core scale-out is patient-level
(:func:`~repro.scaling.multicore.run_data_parallel` for one-shot cohorts,
:class:`~repro.ingest.pool.IngestWorkerPool` for sessions), not a backend.
"""

from __future__ import annotations

from repro.core.compiler import CompiledPlan
from repro.core.graph import OperatorNode, topological_order
from repro.core.runtime.executor import (
    fill_windows,
    shrink_columns,
    sink_columns,
    sink_events,
)
from repro.core.runtime.vectorized import (
    RunExecutor,
    plan_vector_info,
    runs_for_starts,
)
from repro.errors import ExecutionError


class ExecutionBackend:
    """Base class for execution backends."""

    #: Short name used in stats, benchmarks and error messages.
    name = "backend"

    def session_mode(self, plan: CompiledPlan) -> str:
        """Honest execution-mode label for a session driving *plan* through
        this backend, asked once when the session opens.

        The default :meth:`session_tick` fills the sink one window at a
        time, so the default label is ``"serial"`` whatever the backend's
        name; backends whose ticks run differently override both.
        """
        return "serial"

    def fallback_reason(self, plan: CompiledPlan) -> str | None:
        """Why ticks of *plan* run wholly below this backend's nominal mode
        (:attr:`~repro.core.runtime.result.ExecutionStats.fallback_reason`),
        or None when they run as asked."""
        return None

    def session_tick(self, plan: CompiledPlan, starts) -> tuple[list, bool]:
        """Execute one session tick's ready window *starts* on *plan*.

        Returns ``(chunks, fell_back)``: the ``(times, values, durations)``
        columns of the events the tick emitted, in stream order, and whether
        any node executed below this backend's nominal mode (used to demote
        the session's ``execution_mode`` label).  The default drives the
        plan's sink one window at a time — the serial semantics — and, like
        every backend, gathers the events of a one-window tick and writes
        those of a longer one once, into one chunk.
        """
        sink = plan.sink
        if len(starts) > 1:
            return [fill_windows(sink, starts)], False
        chunks = []
        for start in starts:
            sink.fill(start)
            chunks.append(sink_events(sink.fwindow))
        return chunks, False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SerialBackend(ExecutionBackend):
    """Execute every window in order, in the calling process."""

    name = "serial"


def batch_unsafe_node(plan: CompiledPlan) -> OperatorNode | None:
    """The first operator node whose output is not widening-invariant.

    Returns None when the whole plan is batch-safe (:func:`plan_batch_safe`).
    """
    for node in topological_order(plan.sink):
        if isinstance(node, OperatorNode):
            inputs = [inp.descriptor for inp in node.inputs]
            if not node.operator.batch_safe(inputs):
                return node
    return None


def plan_batch_safe(plan: CompiledPlan) -> bool:
    """True when every operator's output is invariant to window widening.

    Checked via :meth:`~repro.core.operators.base.Operator.batch_safe`, the
    claim run lowering rests on (a run buffer is a widened window) and the
    contract analyzer verifies by recompiling at a wider window.
    """
    return batch_unsafe_node(plan) is None


def vectorized_fallback_reason(plan: CompiledPlan) -> str:
    """Why the vectorized backend would run *plan* entirely serially.

    Names the specific blocking property — the cache tracer, the plan-level
    soundness failure (including which node scales time), or the absence of
    any lowerable operator — so the fallback is attributable in
    :attr:`~repro.core.runtime.result.ExecutionStats.fallback_reason`.
    """
    if plan.tracer is not None:
        return "plan carries a cache tracer, which models per-window buffer touches"
    info = plan_vector_info(plan)
    if not info.runnable:
        return info.reason
    return (
        f"none of the plan's {info.operator_nodes} operator node(s) lowers "
        "to a run kernel"
    )


class VectorizedBackend(ExecutionBackend):
    """Execute maximal runs of consecutive windows as NumPy array programs.

    The targeted coverage is converted to runs of consecutive windows
    (:func:`~repro.core.runtime.vectorized.runs_for_starts`); each run is
    pulled through the graph once, with every stream materialised in one
    contiguous run buffer and every lowerable operator executing the whole
    run per :meth:`~repro.core.operators.base.Operator.compute_run` call.
    The run length follows the coverage up to a cap, and unlowerable
    operators degrade *per node* to bit-identical window-by-window execution
    instead of failing the whole plan over to serial.

    The cap defaults to :data:`~repro.core.runtime.vectorized.RUN_SLOT_BUDGET`
    slots per run buffer over the plan's widest window (two one-minute
    windows at 500 Hz, 131 one-second windows); *max_run_windows* sets it
    explicitly instead.

    Plans where run execution is unsound (mixed dimensions, time-scaling
    operators) or useless (no operator lowers) run on the serial backend and
    honestly report ``execution_mode == "serial"``; runs with any per-node
    fallback report ``"vectorized+serial-fallback"``.  Cache-tracing plans
    always run serially — the tracer models per-window buffer touches.
    """

    name = "vectorized"

    def __init__(self, max_run_windows: int | None = None):
        if max_run_windows is not None and max_run_windows < 1:
            raise ExecutionError(f"max_run_windows must be positive, got {max_run_windows}")
        self.max_run_windows = None if max_run_windows is None else int(max_run_windows)

    def _active(self, plan: CompiledPlan) -> bool:
        return plan.tracer is None and plan_vector_info(plan).worthwhile

    def runs(self, plan: CompiledPlan, starts) -> list[tuple[int, int]]:
        """The ``(start, count)`` runs this backend executes for *starts*."""
        cap = self.max_run_windows
        if cap is None:
            cap = plan_vector_info(plan).default_run_windows
        return runs_for_starts(starts, plan.sink.dimension, cap)

    @staticmethod
    def _executor(plan: CompiledPlan, runs: list[tuple[int, int]]) -> RunExecutor:
        """The plan's run executor, its buffers sized for the longest of *runs*.

        Cached on the plan, so repeated executions and session ticks reuse
        one set of run buffers.
        """
        executor = plan.__dict__.get("_run_executor")
        if executor is None:
            executor = plan.__dict__["_run_executor"] = RunExecutor(plan)
        if runs:
            executor.reserve(max(count for _, count in runs))
        return executor

    def session_mode(self, plan: CompiledPlan) -> str:
        return self.name if self._active(plan) else "serial"

    def fallback_reason(self, plan: CompiledPlan) -> str | None:
        return None if self._active(plan) else vectorized_fallback_reason(plan)

    def session_tick(self, plan: CompiledPlan, starts) -> tuple[list, bool]:
        if not self._active(plan):
            return super().session_tick(plan, starts)
        # Ticks advance monotonically, like windows, so the plan's run
        # buffers persist across them.
        runs = self.runs(plan, starts)
        executor = self._executor(plan, runs)
        if len(runs) > 1:
            # One slot per sink slot of every window: each present event is
            # written once, straight into the tick's one chunk.
            columns = sink_columns(len(starts) * plan.sink.fwindow.capacity)
            cursor = 0
            for start, count in runs:
                cursor = executor.execute_run(start, count, columns, cursor)
            return [shrink_columns(columns, cursor)], bool(executor.fallback_nodes)
        chunks = []
        for start, count in runs:
            executor.execute_run(start, count)
            chunks.append(sink_events(executor.sink_window))
        return chunks, bool(executor.fallback_nodes)


def recommend_backend(
    plan: CompiledPlan, targeted: bool = True
) -> tuple[ExecutionBackend, str]:
    """The backend to run *plan* on, as ``(backend, reason)``.

    Always :class:`VectorizedBackend`, the engine default, which itself runs
    plans with nothing to lower serially; kept for callers written against
    the ``(backend, reason)`` shape.
    """
    return VectorizedBackend(), "run execution is the engine default"
