"""Pluggable execution backends.

A backend decides *how* a compiled plan's window loop is driven:

* :class:`SerialBackend` — one window at a time, in-process (the engine's
  historical semantics and the reference every parity suite compares to);
* :class:`VectorizedBackend` — run execution: lowers the targeted coverage
  to maximal runs of consecutive windows and executes each operator as a
  single NumPy array program over one contiguous run buffer per stream
  (:mod:`~repro.core.runtime.vectorized`), falling back per node to the
  window-by-window semantics where lowering is not exact;
* :class:`MultiprocessBackend` — shards disjoint output-window ranges
  across worker processes and merges the per-shard ``StreamResult``s,
  giving real multi-core execution for the Figure 10(c) study.

All backends produce bit-identical :class:`~repro.core.runtime.result.StreamResult`
event columns for the same plan; the parity suite in
``tests/core/test_backends.py`` asserts this across operator-chain queries
in both targeted and eager modes.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np

from repro.core.compiler import CompiledPlan
from repro.core.graph import OperatorNode, topological_order
from repro.core.runtime.executor import (
    _window_starts,
    build_stats,
    collect_sink_window,
    run_window_loop,
)
from repro.core.runtime.result import StreamResult
from repro.core.runtime.vectorized import (
    DEFAULT_MAX_RUN_WINDOWS,
    RunExecutor,
    plan_vector_info,
    runs_for_starts,
)
from repro.errors import ExecutionError


class ExecutionBackend:
    """Base class for execution backends."""

    #: Short name used in stats, benchmarks and error messages.
    name = "backend"

    def execute(
        self, plan: CompiledPlan, targeted: bool = True, collect: bool = True
    ) -> StreamResult:
        """Run *plan* and return its result stream."""
        raise NotImplementedError

    def session_mode(self, plan: CompiledPlan) -> str:
        """Honest execution-mode label for a session driving *plan* through
        this backend, asked once when the session opens.

        The default :meth:`session_tick` fills the sink one window at a
        time, so the default label is ``"serial"`` whatever the backend's
        name; backends whose ticks run differently override both.  Backends
        that cannot keep one long-lived plan alive across ticks
        (multiprocess sharding) raise ``NotImplementedError`` here, which
        refuses the session before it claims the plan.
        """
        return "serial"

    def session_tick(
        self,
        plan: CompiledPlan,
        starts,
        times: list,
        values: list,
        durations: list,
    ) -> tuple[int, bool]:
        """Execute one session tick's ready window *starts* on *plan*.

        Appends the emitted events to the columnar accumulators and returns
        ``(events_emitted, fell_back)`` where ``fell_back`` reports whether
        any node executed below this backend's nominal mode (used to demote
        the session's ``execution_mode`` label).  The default drives the
        plan's sink one window at a time — the serial semantics.
        """
        sink = plan.sink
        events = 0
        for start in starts:
            sink.fill(start)
            events += collect_sink_window(sink, times, values, durations)
        return events, False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SerialBackend(ExecutionBackend):
    """Execute every window in order, in the calling process."""

    name = "serial"

    def execute(
        self, plan: CompiledPlan, targeted: bool = True, collect: bool = True
    ) -> StreamResult:
        starts = _window_starts(plan, targeted)
        times, values, durations, elapsed, windows_run = run_window_loop(plan, starts, collect)
        stats = build_stats(plan, windows_run, int(times.size), elapsed, targeted)
        return StreamResult(times, values, durations, stats=stats)


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


def plan_warmup_windows(plan: CompiledPlan) -> int:
    """Windows of history a shard must replay to rebuild operator state."""
    dimension = plan.sink.dimension
    if dimension is None:
        raise ExecutionError("plan has no dimensions assigned; was it compiled?")
    needed = 0
    for node in topological_order(plan.sink):
        if isinstance(node, OperatorNode):
            needed = max(needed, node.operator.warmup_windows(dimension))
    return needed


#: Per-process state handed to forked shard workers.  Set by the parent
#: immediately before the pool is created; forked children inherit it (the
#: plan graph holds lambdas and NumPy buffers, which cannot be pickled).
#: Guarded by ``_SHARD_LOCK`` so concurrent multiprocess executions from
#: different threads cannot observe each other's plan.
_SHARD_STATE: tuple[CompiledPlan, list[int], bool, int] | None = None
_SHARD_LOCK = threading.Lock()


def _run_shard(bounds: tuple[int, int]):
    """Worker: execute the start range ``[lo, hi)`` of the shared plan."""
    plan, starts, collect, warmup = _SHARD_STATE
    lo, hi = bounds
    warmup_starts = starts[max(0, lo - warmup) : lo]
    times, values, durations, _, windows_run = run_window_loop(
        plan, starts[lo:hi], collect, warmup_starts=warmup_starts
    )
    per_node = {
        node.name: node.windows_computed for node in topological_order(plan.sink)
    }
    return times, values, durations, windows_run, per_node


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


class MultiprocessBackend(ExecutionBackend):
    """Shard disjoint output-window ranges across worker processes.

    The targeted window-start list is split into ``n_workers`` contiguous
    shards.  Each worker (a forked child, so the unpicklable plan graph is
    inherited rather than serialised) replays the few windows preceding its
    shard to rebuild stateful operators' carries, executes its range, and
    ships the columnar results back; the parent concatenates them in shard
    order, which keeps the merged stream chronologically sorted.

    Requires the ``fork`` start method; platforms without it (or runs with
    ``n_workers=1``) fall back to serial in-process execution.
    """

    name = "multiprocess"

    def __init__(self, n_workers: int = 2, warmup_windows: int | None = None):
        if n_workers < 1:
            raise ExecutionError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = int(n_workers)
        self.warmup_windows = warmup_windows

    def session_mode(self, plan: CompiledPlan) -> str:
        raise NotImplementedError(
            "streaming sessions are not supported on the multiprocess backend: "
            "sharding re-replays warm-up windows per run, which conflicts with "
            "a single long-lived carry state; open the session with the serial "
            "or vectorized backend instead"
        )

    def execute(
        self, plan: CompiledPlan, targeted: bool = True, collect: bool = True
    ) -> StreamResult:
        global _SHARD_STATE
        starts = _window_starts(plan, targeted)
        if self.n_workers == 1 or len(starts) < 2 * self.n_workers or not fork_available():
            return SerialBackend().execute(plan, targeted=targeted, collect=collect)

        warmup = (
            self.warmup_windows
            if self.warmup_windows is not None
            else plan_warmup_windows(plan)
        )
        bounds = []
        per_shard = -(-len(starts) // self.n_workers)
        for lo in range(0, len(starts), per_shard):
            bounds.append((lo, min(lo + per_shard, len(starts))))

        began = time.perf_counter()
        with _SHARD_LOCK:
            _SHARD_STATE = (plan, starts, collect, warmup)
            try:
                context = multiprocessing.get_context("fork")
                with context.Pool(len(bounds)) as pool:
                    shard_results = pool.map(_run_shard, bounds)
            finally:
                _SHARD_STATE = None
        elapsed = time.perf_counter() - began

        times = np.concatenate([shard[0] for shard in shard_results])
        values = np.concatenate([shard[1] for shard in shard_results])
        durations = np.concatenate([shard[2] for shard in shard_results])
        windows_run = sum(shard[3] for shard in shard_results)
        stats = build_stats(plan, windows_run, int(times.size), elapsed, targeted)
        stats.execution_mode = self.name
        # The parent plan never executed; fold the workers' per-node counts
        # (shard warm-up replays are included — they are real work done).
        per_node: dict[str, int] = {}
        for shard in shard_results:
            for name, count in shard[4].items():
                per_node[name] = per_node.get(name, 0) + count
        stats.per_node_windows = per_node
        stats.windows_computed = sum(per_node.values())
        return StreamResult(times, values, durations, stats=stats)


def vectorized_fallback_reason(plan: CompiledPlan) -> str:
    """Why the vectorized backend would run *plan* entirely serially.

    Names the specific blocking property — the cache tracer, the plan-level
    soundness failure (including which node scales time), or the absence of
    any lowerable operator — so the fallback is attributable in
    :attr:`~repro.core.runtime.result.ExecutionStats.fallback_reason` and in
    ``--backend auto`` pipeline output.
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
    The run length follows the coverage, and unlowerable operators degrade
    *per node* to bit-identical window-by-window execution instead of
    failing the whole plan over to serial.

    Plans where run execution is unsound (mixed dimensions, time-scaling
    operators) or useless (no operator lowers) run on the serial backend and
    honestly report ``execution_mode == "serial"``; runs with any per-node
    fallback report ``"vectorized+serial-fallback"``.  Cache-tracing plans
    always run serially — the tracer models per-window buffer touches.
    """

    name = "vectorized"

    def __init__(self, max_run_windows: int = DEFAULT_MAX_RUN_WINDOWS):
        if max_run_windows < 1:
            raise ExecutionError(f"max_run_windows must be positive, got {max_run_windows}")
        self.max_run_windows = int(max_run_windows)

    def _active(self, plan: CompiledPlan) -> bool:
        return plan.tracer is None and plan_vector_info(plan).worthwhile

    def execute(
        self, plan: CompiledPlan, targeted: bool = True, collect: bool = True
    ) -> StreamResult:
        if not self._active(plan):
            result = SerialBackend().execute(plan, targeted=targeted, collect=collect)
            result.stats.fallback_reason = vectorized_fallback_reason(plan)
            return result
        starts = _window_starts(plan, targeted)
        runs = runs_for_starts(starts, plan.sink.dimension, self.max_run_windows)
        for node in topological_order(plan.sink):
            node.reset()
        # Run buffers are reused across executions of the same plan (the pool
        # is keyed by run length, and repeated executions see the same run
        # geometry), keeping the steady state allocation-free.
        executor = plan.__dict__.get("_run_executor")
        if executor is None:
            executor = plan.__dict__["_run_executor"] = RunExecutor(plan)
        executor.fallback_nodes.clear()

        collected_times: list[np.ndarray] = []
        collected_values: list[np.ndarray] = []
        collected_durations: list[np.ndarray] = []
        began = time.perf_counter()
        for start, count in runs:
            executor.execute_run(
                start, count, collect, collected_times, collected_values, collected_durations
            )
        elapsed = time.perf_counter() - began

        if collected_times:
            times = np.concatenate(collected_times)
            values = np.concatenate(collected_values)
            durations = np.concatenate(collected_durations)
        else:
            times = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
            durations = np.empty(0, dtype=np.int64)
        stats = build_stats(plan, len(starts), int(times.size), elapsed, targeted)
        stats.execution_mode = (
            "vectorized+serial-fallback" if executor.fallback_nodes else self.name
        )
        # The statically planned per-window FWindows stay allocated (sessions
        # and other backends share the plan); the run buffers are this
        # execution's own extra footprint.
        stats.preallocated_bytes = plan.memory_plan.total_bytes + executor.peak_buffer_bytes
        return StreamResult(times, values, durations, stats=stats)

    def session_mode(self, plan: CompiledPlan) -> str:
        return self.name if self._active(plan) else "serial"

    def session_tick(
        self,
        plan: CompiledPlan,
        starts,
        times: list,
        values: list,
        durations: list,
    ) -> tuple[int, bool]:
        if not self._active(plan):
            return super().session_tick(plan, starts, times, values, durations)
        # One executor per session plan, cached on the plan so run buffers
        # persist across ticks (ticks advance monotonically, like windows).
        executor = plan.__dict__.get("_run_executor")
        if executor is None:
            executor = plan.__dict__["_run_executor"] = RunExecutor(plan)
        events = 0
        for start, count in runs_for_starts(starts, plan.sink.dimension, self.max_run_windows):
            events += executor.execute_run(start, count, True, times, values, durations)
        return events, bool(executor.fallback_nodes)


def recommend_backend(
    plan: CompiledPlan, targeted: bool = True
) -> tuple[ExecutionBackend, str]:
    """Choose an execution backend for *plan* and say why.

    Returns ``(backend, reason)`` — the reason is a human-readable sentence
    surfaced by ``--backend auto`` pipelines, so backend choices are
    auditable rather than silent.

    The rule is the vectorized backend's own go/no-go: run execution
    whenever the plan is run-lowerable and some operator lowers, serial
    otherwise.  There is no coverage threshold because the recorded sweep
    found no crossover (``benchmarks/results/backend_sweep.json``, written
    by ``benchmarks/test_backend_sweep.py``: fully and partly lowered
    Figure 3 plans and a single element-wise stage, at mean run lengths 1,
    2, 4 and 16): on isolated single-window runs run execution takes 0.6x
    (Figure 3 plans) to 1.0x (one element-wise stage) of serial's time, at
    runs of 16 0.1-0.25x.  The choice is static: a session keeps the backend
    it opened with.
    """
    info = plan_vector_info(plan)
    if plan.tracer is not None or not info.worthwhile:
        return SerialBackend(), vectorized_fallback_reason(plan)
    starts = _window_starts(plan, targeted)
    runs = runs_for_starts(starts, plan.sink.dimension)
    return VectorizedBackend(), (
        f"{info.lowered_operators} of {info.operator_nodes} operator node(s) "
        f"lower to run kernels and coverage forms {len(runs)} run(s) over "
        f"{len(starts)} window(s); run execution measured no slower than "
        f"serial at any run length"
    )
