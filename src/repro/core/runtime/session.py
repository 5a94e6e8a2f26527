"""Incremental streaming sessions.

A :class:`StreamingSession` holds a compiled query open against live (or
replayed) sources and turns the Section-4 FWindow slide into a long-lived
loop: every :meth:`advance`/:meth:`poll` executes only the output windows
that became newly computable since the previous tick, while the stateful
operators' carries (Shift FIFOs, sliding-aggregate tails, join carries)
persist in the plan graph between ticks.  A one-shot ``engine.run`` over
the same final coverage and an incremental session that reached the same
watermark produce bit-identical results — the parity suite in
``tests/core/test_session.py`` asserts this across backends and modes.

Three mechanisms make the loop incremental:

* **coverage refresh** — :class:`~repro.core.sources.ReplaySource` reports
  coverage clipped to its watermark, so re-running the compiler's lineage
  propagation over the live plan graph each tick yields exactly the output
  windows the targeted executor would visit if the stream ended now.  The
  lineage map is local, so a tick propagates only a trailing window of
  every source: the next window's input position (the readiness walk below)
  minus what the operators on the way declare via ``coverage_reach()``.
  Coverage past the emission frontier is then exact, and per-tick planning
  costs the same whatever the stream's age;
* **the emission frontier** — the session remembers the last window start
  it executed and only runs strictly later windows.  Coverage only ever
  grows forward as watermarks advance, so the union of per-tick frontiers
  equals the one-shot window list;
* **readiness gating** — a window is only executed once every replayed
  source's watermark has passed the *entire* input span that window reads
  (computed by walking the graph with each operator's event-lineage map).
  Windows straddling a watermark are deferred, never executed on partial
  data; :meth:`finish` drains them once the sources are exhausted.

Sessions checkpoint to disk (:meth:`checkpoint`) by snapshotting every
operator's carry state via :meth:`~repro.core.operators.base.Operator.snapshot_state`
together with the emission frontier, source watermarks and the events
emitted so far; restoring onto a freshly compiled plan resumes the stream
exactly where it stopped, even after a crash.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.compiler.lineage import propagate_coverage
from repro.core.graph import OperatorNode, SourceNode, topological_order
from repro.core.intervals import IntervalSet
from repro.core.runtime.backends import SerialBackend
from repro.core.runtime.executor import coverage_span, span_window_count
from repro.core.runtime.result import ExecutionStats, StreamResult
from repro.core.sources import ReplaySource
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import CompiledQuery

#: On-disk checkpoint format identifier (bump when the layout changes).
CHECKPOINT_FORMAT = "lifestream-session-checkpoint/v1"


@dataclass
class TickStats:
    """Instrumentation record of one session tick.

    ``plan_seconds`` covers the per-tick compile-side work (coverage
    refresh, frontier computation, readiness gating); ``execute_seconds``
    the backend window loop.  Profile-guided adaptation reads these to size
    run buffers and pick backends from observed tick profiles.
    """

    #: 1-based tick index within the session.
    index: int
    #: Minimum watermark across the session's replay sources after this tick
    #: (None when the session has no replayed source).
    watermark: int | None
    #: Windows executed this tick.
    windows_run: int
    #: Events emitted this tick.
    events_emitted: int
    #: Newly-covered windows deferred because their input span still crosses
    #: a watermark (they run on a later tick).
    windows_deferred: int
    #: Seconds spent refreshing coverage and computing the ready frontier.
    plan_seconds: float
    #: Seconds spent in the window loop.
    execute_seconds: float
    #: Name of the execution backend driving the session.
    backend: str
    #: Windows executed since the session (or its restored lineage) started.
    cumulative_windows: int
    #: Events emitted since the session (or its restored lineage) started.
    cumulative_events: int
    #: Maximal consecutive-window runs the executed windows formed (adjacent
    #: starts exactly one dimension apart share a run).  0 on empty ticks.
    window_runs: int = 0
    #: Execution mode that really drove this tick (honest label, including
    #: any ``+serial-fallback`` suffix accrued so far).
    execution_mode: str = "serial"

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock seconds of this tick."""
        return self.plan_seconds + self.execute_seconds


class StreamingSession:
    """A compiled query held open for incremental, tick-by-tick execution.

    The session takes exclusive ownership of the compiled plan's runtime
    state (FWindow positions and operator carries); one-shot ``run()`` calls
    on the same :class:`~repro.core.engine.CompiledQuery` are rejected until
    the session is closed.  Construct via
    :meth:`~repro.core.engine.LifeStreamEngine.open_session`.
    """

    def __init__(
        self,
        compiled: "CompiledQuery",
        targeted: bool | None = None,
        backend=None,
        checkpoint: dict | str | Path | None = None,
    ) -> None:
        self._compiled = compiled
        use_backend = compiled.backend if backend is None else backend
        self._backend = SerialBackend() if use_backend is None else use_backend
        self._backend_name = self._backend.name
        self._plan = compiled.plan
        # The mode that really drives the ticks (a vectorized backend on a
        # plan with nothing to lower ticks serially).  Backends that cannot
        # drive sessions refuse here, before the plan is claimed.
        self._execution_mode = self._backend.session_mode(self._plan)
        self._targeted = compiled.targeted if targeted is None else targeted
        self._nodes = topological_order(self._plan.sink)
        self._operator_nodes = [n for n in self._nodes if isinstance(n, OperatorNode)]
        self._source_nodes = [n for n in self._nodes if isinstance(n, SourceNode)]
        self._replay_nodes = [
            n for n in self._source_nodes if isinstance(n.source, ReplaySource)
        ]
        self._last_start: int | None = None
        self._collected_times: list[np.ndarray] = []
        self._collected_values: list[np.ndarray] = []
        self._collected_durations: list[np.ndarray] = []
        self._windows_run = 0
        self._events_emitted = 0
        self._elapsed_seconds = 0.0
        # Ticks leave node coverage trimmed to the frontier, so the eager
        # span (a full-history fact: where the stream began, how far its
        # coverage reaches) is accumulated here instead of re-read from it.
        self._span = coverage_span(self._source_nodes, self._plan.sink)
        self._ticks: list[TickStats] = []
        self._finished = False
        self._closed = False
        self._recompiled = False
        self._checkpoint_hook = None
        self._checkpoint_every = 1
        self._ticks_since_checkpoint = 0
        # Claim exclusivity BEFORE touching any runtime state: if another
        # session already owns the plan, attach_session raises and the live
        # session's carries/watermarks are left untouched.
        compiled.attach_session(self)
        try:
            for node in self._nodes:
                node.reset()
            # A previous session on this plan may have cached a run executor
            # (vectorized ticks); its buffers sit at that session's frontier
            # and would reject this session's earlier windows.
            self._plan.__dict__.pop("_run_executor", None)
            if checkpoint is not None:
                self._apply_checkpoint(checkpoint)
        except BaseException:
            self._closed = True
            compiled.detach_session(self)
            raise

    # -- introspection -----------------------------------------------------

    @property
    def ticks(self) -> list[TickStats]:
        """Per-tick instrumentation records, oldest first."""
        return list(self._ticks)

    def recent_ticks(self, count: int) -> list[TickStats]:
        """The newest *count* tick records, oldest first.

        Unlike :attr:`ticks` this does not copy the whole history, so
        schedulers polling a long-lived session's recent profile every
        batch pay O(count), not O(session age).
        """
        return self._ticks[-count:] if count > 0 else []

    @property
    def backend_name(self) -> str:
        """Name of the execution backend driving the session."""
        return self._backend_name

    @property
    def backend(self):
        """The execution backend object driving the session."""
        return self._backend

    @property
    def targeted(self) -> bool:
        """Whether the session enumerates output windows from coverage."""
        return self._targeted

    @property
    def recompiled(self) -> bool:
        """True when this session adopted its state from a hot-swap
        (:meth:`swap_plan`) rather than starting fresh."""
        return self._recompiled

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has drained the stream."""
        return self._finished

    @property
    def closed(self) -> bool:
        """True once :meth:`close` released the plan."""
        return self._closed

    @property
    def watermark(self) -> int | None:
        """Minimum watermark across the replayed sources (None if none)."""
        if not self._replay_nodes:
            return None
        return min(node.source.watermark for node in self._replay_nodes)

    @property
    def frontier(self) -> int | None:
        """Start time of the last executed output window (None before any)."""
        return self._last_start

    @property
    def output_complete_through(self) -> int | None:
        """Stream time through which the emitted output is *final*.

        Output windows execute strictly in order along the sink's dimension
        grid, so every window a future tick could still run starts at or
        after ``frontier + dimension`` — nothing already emitted below that
        time can change or gain new neighbours.  (A merely covered-but-
        unexecuted trailing window is *not* final: coverage can extend a
        partial window until it fills and executes, emitting events below
        the coverage end.  The frontier bound has no such hazard.)
        ``None`` before the first window has executed.

        This is exactly the watermark a downstream consumer of the output
        stream may advance to — the contract the sub-plan sharing layer
        (:mod:`repro.serve.subplan`) relies on to feed one prefix session's
        output into many tail sessions without ever exposing a non-final
        event.
        """
        if self._last_start is None:
            return None
        return self._last_start + self._plan.sink.dimension

    # -- the tick loop -----------------------------------------------------

    def advance(self, watermark: int) -> TickStats:
        """Advance every replayed source to *watermark* and run the new windows.

        Re-announcing the current watermark is an idempotent no-op tick, but
        a watermark *behind* any replayed source's clock is a protocol error
        (stream time only moves forward) and raises
        :class:`~repro.errors.ExecutionError` instead of being silently
        ignored; use :meth:`poll` after advancing sources independently.
        """
        self._require_open()
        if self._finished:
            raise ExecutionError("session is finished; no more data can arrive")
        for node in self._replay_nodes:
            if watermark < node.source.watermark:
                raise ExecutionError(
                    f"watermark regression: source {node.name!r} is already at "
                    f"{node.source.watermark} but advance() was asked to move it "
                    f"back to {watermark}; watermarks only move forward "
                    f"(re-announcing the current watermark is a no-op, and poll() "
                    f"ticks without touching the sources)"
                )
        for node in self._replay_nodes:
            if watermark > node.source.watermark:
                node.source.advance(watermark)
        return self.poll()

    def poll(self) -> TickStats:
        """Execute every newly-covered, fully-ready output window."""
        self._require_open()
        return self._tick(drain=False)

    def finish(self) -> TickStats:
        """Declare the stream complete and drain all remaining windows.

        Advances every replayed source to the end of its underlying data and
        executes the deferred tail (windows whose input span extended past
        the last watermark — aggregate lookback tails, shift carries).  After
        this, :meth:`result` is bit-identical to a one-shot run over the full
        data.  Idempotent.
        """
        self._require_open()
        if self._finished:
            return self._empty_tick()
        for node in self._replay_nodes:
            node.source.advance_to_end()
        stats = self._tick(drain=True)
        self._finished = True
        return stats

    def _tick(self, drain: bool) -> TickStats:
        began = time.perf_counter()
        self._refresh_coverage()
        new = self._new_window_starts()
        ready: list[int] = []
        deferred = 0
        for start in new:
            if drain or self._window_ready(start):
                ready.append(start)
            else:
                # Windows must run in order (FWindows only slide forward);
                # everything past the first unready window waits too.
                deferred = len(new) - len(ready)
                break
        planned = time.perf_counter()

        events, fell_back = self._backend.session_tick(
            self._plan,
            ready,
            self._collected_times,
            self._collected_values,
            self._collected_durations,
        )
        if fell_back and not self._execution_mode.endswith("+serial-fallback"):
            self._execution_mode = f"{self._execution_mode}+serial-fallback"
        executed = time.perf_counter()

        if ready:
            self._last_start = ready[-1]
        self._windows_run += len(ready)
        self._events_emitted += events
        dimension = self._plan.sink.dimension
        window_runs = sum(
            1
            for position, start in enumerate(ready)
            if position == 0 or start != ready[position - 1] + dimension
        )
        stats = TickStats(
            index=len(self._ticks) + 1,
            watermark=self.watermark,
            windows_run=len(ready),
            events_emitted=events,
            windows_deferred=deferred,
            plan_seconds=planned - began,
            execute_seconds=executed - planned,
            backend=self._backend_name,
            cumulative_windows=self._windows_run,
            cumulative_events=self._events_emitted,
            window_runs=window_runs,
            execution_mode=self._execution_mode,
        )
        self._ticks.append(stats)
        self._elapsed_seconds += stats.elapsed_seconds
        self._maybe_auto_checkpoint()
        return stats

    # -- checkpoint cadence --------------------------------------------------

    def set_checkpoint_hook(self, hook, every_ticks: int = 1) -> None:
        """Install *hook*, called with a fresh checkpoint dict on a tick cadence.

        After every *every_ticks*-th completed tick (``advance``/``poll``,
        including the drain tick of ``finish``), the session snapshots itself
        via :meth:`checkpoint` and passes the state dict to ``hook(state)``.
        This is the failover feed of the ingest worker pool: workers
        checkpoint their sessions on a cadence and ship the snapshots to a
        supervisor, which can restore a dead worker's sessions on a peer.
        Pass ``hook=None`` to uninstall.
        """
        if hook is not None and every_ticks < 1:
            raise ExecutionError(
                f"checkpoint cadence must be a positive tick count, got {every_ticks}"
            )
        self._checkpoint_hook = hook
        self._checkpoint_every = int(every_ticks)
        self._ticks_since_checkpoint = 0

    def _maybe_auto_checkpoint(self) -> None:
        if self._checkpoint_hook is None:
            return
        self._ticks_since_checkpoint += 1
        if self._ticks_since_checkpoint < self._checkpoint_every:
            return
        self._ticks_since_checkpoint = 0
        self._checkpoint_hook(self.checkpoint())

    def _empty_tick(self) -> TickStats:
        stats = TickStats(
            index=len(self._ticks) + 1,
            watermark=self.watermark,
            windows_run=0,
            events_emitted=0,
            windows_deferred=0,
            plan_seconds=0.0,
            execute_seconds=0.0,
            backend=self._backend_name,
            cumulative_windows=self._windows_run,
            cumulative_events=self._events_emitted,
            window_runs=0,
            execution_mode=self._execution_mode,
        )
        self._ticks.append(stats)
        return stats

    def _input_syncs(self, start: int, reach: bool = False):
        """Yield ``(source node, sync time)`` for every path from the sink
        down: where each source's FWindow sits for the output window at
        *start*.  With *reach*, each operator's ``coverage_reach()`` is taken
        off on the way, giving the earliest source time whose coverage can
        still matter to output coverage from *start* on."""
        pending = [(self._plan.sink, start)]
        while pending:
            node, sync = pending.pop()
            if isinstance(node, SourceNode):
                yield node, sync
                continue
            operator = node.operator
            if reach:
                sync -= operator.coverage_reach()
            for index, upstream in enumerate(node.inputs):
                pending.append(
                    (upstream, operator.input_sync_time(sync, index, upstream.descriptor))
                )

    def _refresh_coverage(self) -> None:
        """Re-propagate lineage coverage, from the emission frontier on.

        Before the first window has run the whole history is propagated, as
        at compile time.  After that every source is asked only for its
        coverage from the next window's input position (less the operators'
        reach) on, which leaves every node's coverage exact past the
        frontier — all a tick reads — at a cost proportional to the new
        coverage.  Source coverage only grows forward, so folding each
        trimmed span into ``_span`` keeps the full-history eager span.
        """
        since = None
        if self._last_start is not None:
            since = {}
            cut = self._last_start + self._plan.sink.dimension
            for node, sync in self._input_syncs(cut, reach=True):
                since[node] = min(sync, since.get(node, sync))
        propagate_coverage(self._plan.sink, since=since, nodes=self._nodes)
        span = coverage_span(self._source_nodes, self._plan.sink)
        if self._span is None:
            self._span = span
        elif span is not None:
            self._span = (min(self._span[0], span[0]), max(self._span[1], span[1]))

    def _new_window_starts(self) -> list[int]:
        """Output-window starts past the emission frontier, in order.

        :meth:`_refresh_coverage` has propagated coverage from the frontier
        on only, and the sink coverage is clipped to the frontier before
        windows are enumerated, so per-tick planning cost is proportional
        to the *new* coverage, not to the stream's age — a session alive
        for weeks pays the same per tick as one opened a second ago.
        """
        sink = self._plan.sink
        dimension = sink.dimension
        if self._targeted:
            coverage = sink.coverage
        else:
            coverage = (
                IntervalSet.empty() if self._span is None else IntervalSet.single(*self._span)
            )
        if self._last_start is not None and coverage:
            end = coverage.span()[1]
            # Windows at starts > frontier lie entirely past frontier + dim
            # (starts sit on the dimension grid), so clipping there drops all
            # already-executed coverage without losing any new window.
            if end <= self._last_start + dimension:
                return []
            coverage = coverage.clip(self._last_start + dimension, end)
        starts = coverage.iter_windows(dimension, sink.descriptor.offset)
        if self._last_start is None:
            return list(starts)
        return [s for s in starts if s > self._last_start]

    def _window_ready(self, start: int) -> bool:
        """True when every replayed source's watermark covers the full input
        span the output window starting at *start* would read."""
        return all(
            sync + node.dimension <= node.source.watermark
            for node, sync in self._input_syncs(start)
            if isinstance(node.source, ReplaySource)
        )

    # -- results -----------------------------------------------------------

    def result(self) -> StreamResult:
        """Everything the session has emitted so far, in stream order."""
        if self._collected_times:
            times = np.concatenate(self._collected_times)
            values = np.concatenate(self._collected_values)
            durations = np.concatenate(self._collected_durations)
        else:
            times = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
            durations = np.empty(0, dtype=np.int64)
        stats = ExecutionStats(
            output_windows=self._windows_run,
            windows_computed=sum(node.windows_computed for node in self._nodes),
            windows_skipped=(
                max(0, span_window_count(self._plan, self._span) - self._windows_run)
                if self._targeted
                else 0
            ),
            events_emitted=int(times.size),
            events_ingested=sum(node.source.event_count() for node in self._source_nodes),
            preallocated_bytes=self._plan.memory_plan.total_bytes,
            elapsed_seconds=self._elapsed_seconds,
            targeted=self._targeted,
            execution_mode=(
                f"{self._execution_mode} (recompiled)"
                if self._recompiled
                else self._execution_mode
            ),
            per_node_windows={node.name: node.windows_computed for node in self._nodes},
        )
        return StreamResult(times, values, durations, stats=stats)

    def recent_events(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The newest *count* emitted events as ``(times, values, durations)``.

        Unlike :meth:`result` this touches only the tail of the collected
        output, so a serving loop delivering per-tick deltas to subscribers
        pays O(delta), not O(history), per tick.
        """
        if count <= 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        tail_times: list[np.ndarray] = []
        tail_values: list[np.ndarray] = []
        tail_durations: list[np.ndarray] = []
        remaining = count
        for index in range(len(self._collected_times) - 1, -1, -1):
            chunk = self._collected_times[index]
            take = min(remaining, int(chunk.size))
            if take:
                tail_times.append(chunk[chunk.size - take :])
                tail_values.append(self._collected_values[index][chunk.size - take :])
                tail_durations.append(
                    self._collected_durations[index][chunk.size - take :]
                )
                remaining -= take
            if remaining == 0:
                break
        if not tail_times:
            return self.recent_events(0)
        tail_times.reverse()
        tail_values.reverse()
        tail_durations.reverse()
        return (
            np.concatenate(tail_times),
            np.concatenate(tail_values),
            np.concatenate(tail_durations),
        )

    def close(self) -> None:
        """Release the plan so one-shot runs on the compiled query work again."""
        if not self._closed:
            self._closed = True
            self._compiled.detach_session(self)

    def _require_open(self) -> None:
        if self._closed:
            raise ExecutionError("session is closed")

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self, path: str | Path | None = None) -> dict:
        """Snapshot the session so it can resume after a restart or crash.

        The checkpoint captures the plan geometry (for compatibility
        checks), every operator node's carry state (by topological index),
        the replayed sources' watermarks, the emission frontier and the
        events emitted so far.  It contains only NumPy arrays and plain
        Python containers, so it pickles cleanly; pass *path* to also write
        it to disk.  Restore by opening a new session over a freshly
        compiled copy of the same query with ``checkpoint=``.

        The on-disk write is crash-safe: the state is pickled to a temporary
        file in the same directory and atomically renamed into place with
        :func:`os.replace`, so a crash mid-checkpoint can never leave a
        truncated file where failover expects a valid one — the previous
        checkpoint (if any) survives intact.
        """
        self._require_open()
        result = self.result()
        state = {
            "format": CHECKPOINT_FORMAT,
            "targeted": self._targeted,
            "backend": self._backend_name,
            "window_size": self._plan.window_size,
            "sink_dimension": self._plan.sink.dimension,
            "last_start": self._last_start,
            "eager_span": self._span,
            "windows_run": self._windows_run,
            "finished": self._finished,
            "watermarks": {
                node.name: node.source.watermark for node in self._replay_nodes
            },
            "operator_states": [
                {
                    "index": index,
                    "operator": node.operator.name,
                    "state": node.operator.snapshot_state(node.state),
                }
                for index, node in enumerate(self._operator_nodes)
            ],
            "emitted": {
                "times": result.times,
                "values": result.values,
                "durations": result.durations,
            },
        }
        if path is not None:
            path = Path(path)
            descriptor, tmp_name = tempfile.mkstemp(
                prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    pickle.dump(state, handle)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        return state

    def _apply_checkpoint(self, checkpoint: dict | str | Path) -> None:
        if not isinstance(checkpoint, dict):
            path = checkpoint
            try:
                with open(path, "rb") as handle:
                    checkpoint = pickle.load(handle)
            except (EOFError, pickle.UnpicklingError, AttributeError, ValueError) as exc:
                raise ExecutionError(
                    f"checkpoint file {path} is truncated or corrupt "
                    f"({type(exc).__name__}: {exc}); it cannot be restored — "
                    f"checkpoints are written atomically, so this file was not "
                    f"produced by StreamingSession.checkpoint()"
                ) from exc
            if not isinstance(checkpoint, dict):
                raise ExecutionError(
                    f"checkpoint file {path} does not hold a checkpoint dict "
                    f"(found {type(checkpoint).__name__})"
                )
        if checkpoint.get("format") != CHECKPOINT_FORMAT:
            raise ExecutionError(
                f"unrecognised checkpoint format {checkpoint.get('format')!r}; "
                f"expected {CHECKPOINT_FORMAT!r}"
            )
        for field, actual in (
            ("targeted", self._targeted),
            ("backend", self._backend_name),
            ("window_size", self._plan.window_size),
            ("sink_dimension", self._plan.sink.dimension),
        ):
            if checkpoint[field] != actual:
                raise ExecutionError(
                    f"checkpoint was taken with {field}={checkpoint[field]!r} but "
                    f"this session has {field}={actual!r}; recompile with the "
                    f"original configuration to resume"
                )
        saved_states = checkpoint["operator_states"]
        if len(saved_states) != len(self._operator_nodes):
            raise ExecutionError(
                f"checkpoint holds {len(saved_states)} operator states but the "
                f"plan has {len(self._operator_nodes)} operator nodes; was the "
                f"query changed since the checkpoint?"
            )
        for saved, node in zip(saved_states, self._operator_nodes):
            if saved["operator"] != node.operator.name:
                raise ExecutionError(
                    f"checkpoint state {saved['index']} belongs to operator "
                    f"{saved['operator']!r} but the plan has {node.operator.name!r} "
                    f"at that position; was the query changed since the checkpoint?"
                )
            node.state = node.operator.restore_state(saved["state"])
        watermarks = checkpoint["watermarks"]
        for node in self._replay_nodes:
            saved_watermark = watermarks.get(node.name)
            if saved_watermark is not None and saved_watermark > node.source.watermark:
                node.source.advance(saved_watermark)
        self._last_start = checkpoint["last_start"]
        # Absent from checkpoints written before ticks trimmed coverage; the
        # span then restarts at the restored frontier (events are unaffected,
        # windows_skipped undercounts).
        self._span = checkpoint.get("eager_span", self._span)
        self._windows_run = checkpoint["windows_run"]
        self._finished = checkpoint["finished"]
        emitted = checkpoint["emitted"]
        self._events_emitted = int(emitted["times"].size)
        if emitted["times"].size:
            self._collected_times = [np.asarray(emitted["times"], dtype=np.int64)]
            self._collected_values = [np.asarray(emitted["values"], dtype=np.float64)]
            self._collected_durations = [np.asarray(emitted["durations"], dtype=np.int64)]

    # -- hot swap ------------------------------------------------------------

    def swap_plan(
        self,
        compiled: "CompiledQuery",
        targeted: bool | None = None,
        backend=None,
    ) -> "StreamingSession":
        """Replace this session's plan with a recompiled one at a tick boundary.

        Opens a new session over *compiled* (a fresh recompilation of the
        same query bound to the same sources), transplants this session's
        runtime state into it — operator carries, emission frontier, source
        watermarks, emitted output, tick-independent counters — and closes
        this session.  The new session continues the stream exactly where
        this one stopped: the adaptive parity suite asserts output across
        the swap is bit-identical to a never-swapped session.

        Unlike checkpoint restore, the new plan may differ in backend,
        targeted mode or fusion cuts; only two things must hold, and both
        are checked:

        * **frontier alignment** — the emitted-through time must land on the
          new sink's window grid, or the new session would re-emit or skip a
          partial window.  A recompile of the same query at the same
          ``window_size`` always aligns; a plan compiled at a different
          window size aligns only at common multiples, and a misaligned
          swap raises :class:`~repro.errors.ExecutionError`.
        * **matching operator state units** — carries are transplanted
          operator-by-operator (fused chains flattened to their stages, so
          different fusion cuts still line up); a mismatch means the plans
          do not compute the same query and the swap is refused.

        Returns the new session; on failure this session is left open and
        untouched.
        """
        self._require_open()
        state = {
            "units": self._flatten_operator_states(),
            "watermarks": {
                node.name: node.source.watermark for node in self._replay_nodes
            },
            "emitted_through": (
                None
                if self._last_start is None
                else self._last_start + self._plan.sink.dimension
            ),
            "eager_span": self._span,
            "windows_run": self._windows_run,
            "events_emitted": self._events_emitted,
            "finished": self._finished,
            "collected": (
                list(self._collected_times),
                list(self._collected_values),
                list(self._collected_durations),
            ),
        }
        new = compiled.open_session(targeted=targeted, backend=backend)
        try:
            new._adopt_swap_state(state)
        except BaseException:
            new.close()
            raise
        self.close()
        return new

    def _flatten_operator_states(self) -> list[tuple[str, object]]:
        """Snapshot every operator's carry as ``(name, state)`` units, with
        fused chains expanded to one unit per stage.

        Flattening makes the transplant invariant to *where* the fusion pass
        cut the chains: a plan fused as ``[a+b+c]`` and one fused as
        ``[a+b][c]`` both yield units ``a, b, c``.
        """
        from repro.core.operators.fused import FusedElementwise

        units: list[tuple[str, object]] = []
        for node in self._operator_nodes:
            operator = node.operator
            if isinstance(operator, FusedElementwise):
                for (stage_op, _), stage_state in zip(operator.stages, node.state):
                    units.append((stage_op.name, stage_op.snapshot_state(stage_state)))
            else:
                units.append((operator.name, operator.snapshot_state(node.state)))
        return units

    def _restore_flattened(self, units: list[tuple[str, object]]) -> None:
        """Install flattened state units into this session's plan, regrouping
        per-stage states for fused nodes.  Raises on any shape mismatch."""
        from repro.core.operators.fused import FusedElementwise

        cursor = 0

        def take(expected_name: str) -> object:
            nonlocal cursor
            if cursor >= len(units):
                raise ExecutionError(
                    f"hot-swap state mismatch: the old plan provided "
                    f"{len(units)} operator state unit(s) but the new plan "
                    f"expects more (next: {expected_name!r}); the plans do not "
                    f"compute the same query"
                )
            name, snapshot = units[cursor]
            if name != expected_name:
                raise ExecutionError(
                    f"hot-swap state mismatch: state unit {cursor} belongs to "
                    f"operator {name!r} but the new plan has "
                    f"{expected_name!r} at that position; the plans do not "
                    f"compute the same query"
                )
            cursor += 1
            return snapshot

        for node in self._operator_nodes:
            operator = node.operator
            if isinstance(operator, FusedElementwise):
                node.state = [
                    stage_op.restore_state(take(stage_op.name))
                    for stage_op, _ in operator.stages
                ]
            else:
                node.state = operator.restore_state(take(operator.name))
        if cursor != len(units):
            raise ExecutionError(
                f"hot-swap state mismatch: the old plan provided {len(units)} "
                f"operator state unit(s) but the new plan consumed only "
                f"{cursor}; the plans do not compute the same query"
            )

    def _adopt_swap_state(self, state: dict) -> None:
        """Continue a predecessor session's stream on this (fresh) session."""
        sink = self._plan.sink
        dimension = sink.dimension
        emitted_through = state["emitted_through"]
        if emitted_through is not None:
            if (emitted_through - sink.descriptor.offset) % dimension != 0:
                raise ExecutionError(
                    f"hot-swap misaligned: the stream is emitted through "
                    f"t={emitted_through}, which is not on the new plan's "
                    f"window grid (dimension {dimension}, offset "
                    f"{sink.descriptor.offset}); retry the swap at a later "
                    f"tick boundary"
                )
            self._last_start = emitted_through - dimension
        self._restore_flattened(state["units"])
        # The recompiled plan usually binds the same source objects as its
        # predecessor (instantiate rebinds by name), making this advance an
        # idempotent no-op; with distinct sources it fast-forwards them to
        # the predecessor's clock.
        for node in self._replay_nodes:
            watermark = state["watermarks"].get(node.name)
            if watermark is not None and watermark > node.source.watermark:
                node.source.advance(watermark)
        self._span = state["eager_span"]
        self._windows_run = state["windows_run"]
        self._finished = state["finished"]
        times, values, durations = state["collected"]
        self._collected_times = list(times)
        self._collected_values = list(values)
        self._collected_durations = list(durations)
        self._events_emitted = state["events_emitted"]
        self._recompiled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamingSession {self._backend_name} frontier={self._last_start} "
            f"ticks={len(self._ticks)} windows={self._windows_run}>"
        )
