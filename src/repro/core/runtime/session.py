"""Incremental streaming sessions.

A :class:`StreamingSession` holds a compiled query open against live (or
replayed) sources and turns the Section-4 FWindow slide into a long-lived
loop: every :meth:`advance`/:meth:`poll` executes only the output windows
that became newly computable since the previous tick, while the stateful
operators' carries (Shift FIFOs, sliding-aggregate tails, join carries)
persist in the plan graph between ticks.  A one-shot ``engine.run`` is a
session drained in one tick, so it and an incremental session that
reached the same watermark produce bit-identical results — the parity
suite in ``tests/core/test_session.py`` asserts this across backends and
modes.

Three mechanisms make the loop incremental:

* **window rows** — each tick asks one question on the sink's window grid:
  which windows past the frontier can emit, and which of them are ready?
  The plan's :class:`~repro.core.compiler.lineage.CoverageProgram`
  answers the first with boolean rows, one column per window: a source's
  row is where its coverage (clipped to its watermark, read from a few
  windows before the frontier on) meets the span a fill of that window
  reads, and every operator maps its inputs' rows to its own
  (``Operator.coverage_rows``: joins ``&``/``|``, everything else a spread
  over its ``coverage_reach()``).  The rows may mark a window that cannot
  emit, never leave out one that can; running it is what an eager run
  does, so results do not change.  A stateful node whose
  carry reaches back also gets its **warm-up windows**: earlier windows
  within its reach of a scheduled one in which its input has data;
* **the emission frontier** — the session remembers the last window start
  it executed and only runs strictly later windows.  Coverage only ever
  grows forward as watermarks advance, so the union of per-tick frontiers
  equals the one-shot window list;
* **readiness gating** — a window is only executed once every replayed
  source's watermark has passed the *entire* input span that window reads
  (where the program's fill positions put each source's window, plus its
  dimension).  Windows straddling a watermark are deferred, never executed
  on partial data; :meth:`finish` drains them once the sources are
  exhausted.

Every tick takes three steps — **plan** (the rows, frontier and readiness
above), **execute** (the backend's window loop) and **commit** (collect the
events, move the frontier, report :class:`TickStats`) — and every tick is
reported by :meth:`advance`, :meth:`poll` or :meth:`finish`, except the one
tick of a one-shot ``CompiledQuery.run()``, whose result is the whole
report.  Planning is one code path for a lone tick and a serving batch:
:func:`tick_batch` plans the sessions cloned from one plan-cache template
as one boolean block (members × windows, :func:`_plan_block`), a lone tick
being a block of one row; it then executes the one-window ticks of one
template together as a cross-tenant cohort, and :meth:`poll` commits each
member's already-executed tick without planning again.  On the vectorized
backend one executor per template
(:class:`~repro.core.runtime.vectorized.BlockExecutor`) runs both: a
session's run of consecutive windows is a block of one segment, a cohort a
block of one one-window segment per member.

Sessions checkpoint to disk (:meth:`checkpoint`) by copying every operator
node's declared carries and their stamp
(:func:`~repro.core.graph.copy_carries`) together with the emission
frontier, source watermarks and the events emitted so far; restoring onto a
freshly compiled plan resumes the stream exactly where it stopped, even
after a crash.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.compiler.lineage import coverage_program
from repro.core.graph import OperatorNode, SourceNode, copy_carries, load_carries
from repro.core.intervals import IntervalSet
from repro.core.runtime.backends import VectorizedBackend
from repro.core.runtime.executor import span_window_count
from repro.core.runtime.result import ExecutionStats, StreamResult
from repro.core.runtime.vectorized import block_executor
from repro.core.sources import ReplaySource, period_column
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import CompiledQuery

#: On-disk checkpoint format identifier (bump when the layout changes).
CHECKPOINT_FORMAT = "lifestream-session-checkpoint/v2"


@dataclass
class TickStats:
    """Instrumentation record of one session tick.

    ``plan_seconds`` covers the per-tick planning (window rows, frontier,
    readiness gating), or this session's share of its block's;
    ``execute_seconds`` the backend window loop, or this session's share of
    its cohort's execution.  The session keeps none of these records:
    each tick returns its own, and the session counts ticks
    (:attr:`StreamingSession.tick_count`).
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
    #: Seconds spent planning the tick's windows (a share of its block's).
    plan_seconds: float
    #: Seconds spent in the window loop.
    execute_seconds: float
    #: Name of the execution backend driving the session.
    backend: str
    #: Windows executed since the session (or its restored lineage) started.
    cumulative_windows: int
    #: Events emitted since the session (or its restored lineage) started.
    cumulative_events: int
    #: Execution mode that really drives the session's ticks (honest label,
    #: with a ``+serial-fallback`` suffix when some operator of the plan
    #: has no run kernel).
    execution_mode: str = "serial"
    #: Sessions whose windows executed together with this tick's (a
    #: cross-tenant cohort, see :func:`tick_batch`); 1 when it ran alone.
    cohort_size: int = 1

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock seconds of this tick."""
        return self.plan_seconds + self.execute_seconds


class _Tick:
    """One planned tick: what :meth:`StreamingSession._commit` records."""

    __slots__ = (
        "ready", "deferred", "plan_seconds", "chunks", "execute_seconds",
        "cohort_size",
    )

    def __init__(self, ready: list[int], deferred: int, plan_seconds: float) -> None:
        self.ready = ready
        self.deferred = deferred
        self.plan_seconds = plan_seconds
        #: Sink events per window run, set once the tick executed.
        self.chunks: list | None = None
        self.execute_seconds = 0.0
        self.cohort_size = 1


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
        self._backend = compiled.backend if backend is None else backend
        self._backend_name = self._backend.name
        self._plan = compiled.plan
        # The mode that really drives the ticks (a vectorized backend on a
        # plan with nothing to lower ticks serially).
        self._execution_mode = self._backend.session_mode(self._plan)
        self._targeted = compiled.targeted if targeted is None else targeted
        self._nodes = self._plan.nodes
        self._operator_nodes = [n for n in self._nodes if isinstance(n, OperatorNode)]
        self._source_nodes = [n for n in self._nodes if isinstance(n, SourceNode)]
        # The lineage of the plan's shape, shared by every clone of its
        # template: a batch plans the clones of one template as one block.
        self._program = program = coverage_program(self._plan)
        #: The sources the program's rows read, in its order.
        self._row_sources = [self._nodes[slot].source for slot, _, _ in program.sources]
        replayed = [
            index
            for index, node in enumerate(self._nodes)
            if isinstance(node, SourceNode) and isinstance(node.source, ReplaySource)
        ]
        self._replay_nodes = [self._nodes[index] for index in replayed]
        #: ``(source, offset)`` per replayed source: a window is ready once
        #: every such source's watermark reaches its start plus the offset.
        self._readiness = [
            (self._nodes[index].source, program.ready_offsets[index]) for index in replayed
        ]
        self._last_start: int | None = None
        self._collected_times: list[np.ndarray] = []
        self._collected_values: list[np.ndarray] = []
        self._collected_durations: list[np.ndarray] = []
        self._windows_run = 0
        self._events_emitted = 0
        self._elapsed_seconds = 0.0
        # The eager span (where the stream began, how far its data and its
        # covered windows reach) is accumulated tick by tick: a tick reads
        # its sources only from a little before the frontier on.
        self._span: tuple[int, int] | None = None
        #: ``(first window start, covered block, row, first column, stop)``
        #: of the last planned tick: its covered windows past the frontier.
        self._planned: tuple | None = None
        self._tick_count = 0
        self._finished = False
        self._closed = False
        self._checkpoint_hook = None
        self._checkpoint_every = 1
        self._ticks_since_checkpoint = 0
        # The plan-cache template a cohort is keyed by: only clones that run
        # vectorized ticks join one.
        self._template = (
            self._plan.template
            if self._execution_mode.startswith(VectorizedBackend.name)
            else None
        )
        #: The planned (and possibly executed) tick the next poll commits.
        self._pending: _Tick | None = None
        #: Why this session refuses to tick, or None (see :meth:`_break_on`).
        self._broken: str | None = None
        # Claim exclusivity BEFORE touching any runtime state: if another
        # session already owns the plan, attach_session raises and the live
        # session's carries/watermarks are left untouched.
        compiled.attach_session(self)
        try:
            for node in self._nodes:
                node.reset()
            if checkpoint is not None:
                self._apply_checkpoint(checkpoint)
        except BaseException:
            self._closed = True
            compiled.detach_session(self)
            raise

    # -- introspection -----------------------------------------------------

    @property
    def tick_count(self) -> int:
        """Ticks run so far (``advance``/``poll``/``finish``, no-ops included)."""
        return self._tick_count

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
    def finished(self) -> bool:
        """True once :meth:`finish` has drained the stream."""
        return self._finished

    @property
    def closed(self) -> bool:
        """True once :meth:`close` released the plan."""
        return self._closed

    @property
    def events_emitted(self) -> int:
        """Events emitted since the session (or its restored lineage) started."""
        return self._events_emitted

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
        self._advance_sources(watermark)
        return self.poll()

    def poll(self) -> TickStats:
        """Execute every newly-covered, fully-ready output window.

        Commits the tick :func:`tick_batch` planned, if any (executed already
        when it ran in a cohort), instead of planning a new one.
        """
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

    def _run_once(self) -> StreamResult:
        """Run every final covered window in one tick and hand back the
        result: how :meth:`~repro.core.engine.CompiledQuery.run` executes.

        The tick drains, as :meth:`finish` does, only once every replayed
        source exposes all its data; until then it gates readiness, as
        :meth:`poll` does, so a window whose input crosses a watermark is
        not run on partial data.  Unlike :meth:`finish` it leaves replayed
        sources where they are, and it is not one of the public ticks
        tracing counts.  The tick's one chunk becomes the result's columns
        uncopied, so the caller closes the session right after and never
        ticks it again.
        """
        self._tick(drain=all(node.source.at_end for node in self._replay_nodes))
        if len(self._collected_times) != 1:
            return self.result()
        times = self._collected_times[0]
        return StreamResult(
            times,
            self._collected_values[0],
            self._collected_durations[0],
            stats=self._stats(int(times.size)),
        )

    def _advance_sources(self, watermark: int) -> None:
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

    # The tick is three steps — plan, execute, commit — and every tick takes
    # all three through _tick; a cohort only executes some ticks early.

    def _tick(self, drain: bool) -> TickStats:
        if self._pending is None or (drain and self._pending.chunks is None):
            _plan_ticks([self], drain)
        tick, self._pending = self._pending, None
        if tick.chunks is None:
            began = time.perf_counter()
            try:
                tick.chunks = self._backend.session_tick(self._plan, tick.ready)
            except BaseException as error:
                self._break_on(error)
                raise
            tick.execute_seconds = time.perf_counter() - began
        return self._commit(tick)

    def _break_on(self, error: BaseException) -> None:
        """Refuse every further tick and checkpoint after a tick's execution
        raised *error*, if the plan carries state from window to window.

        Execution fills node by node and window by window, so the nodes
        that ran before the failure may have moved their carries on
        without a commit; planning the same windows again would run them
        twice and emit wrong values.  A stateless plan just plans afresh.
        """
        if any(node.carries for node in self._operator_nodes):
            self._broken = (
                f"session state is inconsistent: a tick failed mid-execution "
                f"({error!r}) after carries may have advanced; close the session "
                f"and restore an earlier checkpoint"
            )

    def _cohort_key(self):
        """What a cohort is keyed by, or None when this tick runs alone: the
        template of a tick with exactly one ready window.  Clones share the
        sink descriptor, so their windows all start on one grid."""
        tick = self._pending
        if self._template is None or tick is None or len(tick.ready) != 1:
            return None
        return id(self._template)

    def _commit(self, tick: "_Tick") -> TickStats:
        events = 0
        for times, values, durations in tick.chunks:
            if times.size:
                self._collected_times.append(times)
                self._collected_values.append(values)
                self._collected_durations.append(durations)
                events += int(times.size)
        ready = tick.ready
        if ready:
            self._last_start = ready[-1]
        self._windows_run += len(ready)
        self._events_emitted += events
        self._tick_count += 1
        stats = TickStats(
            index=self._tick_count,
            watermark=self.watermark,
            windows_run=len(ready),
            events_emitted=events,
            windows_deferred=tick.deferred,
            plan_seconds=tick.plan_seconds,
            execute_seconds=tick.execute_seconds,
            backend=self._backend_name,
            cumulative_windows=self._windows_run,
            cumulative_events=self._events_emitted,
            execution_mode=self._execution_mode,
            cohort_size=tick.cohort_size,
        )
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
        self._tick_count += 1
        return TickStats(
            index=self._tick_count,
            watermark=self.watermark,
            windows_run=0,
            events_emitted=0,
            windows_deferred=0,
            plan_seconds=0.0,
            execute_seconds=0.0,
            backend=self._backend_name,
            cumulative_windows=self._windows_run,
            cumulative_events=self._events_emitted,
            execution_mode=self._execution_mode,
        )

    def _widen_span(self, begin: int, end: int) -> None:
        """Fold ``[begin, end)`` into the eager span."""
        span = self._span
        self._span = (begin, end) if span is None else (min(span[0], begin), max(span[1], end))

    def _eager_windows(self, low: int, high: int, limit: int) -> tuple[list[int], int]:
        """An eager tick's ``(ready starts, deferred count)``: every window
        of the span among windows *low* to *high* (indices on the sink
        grid), the ones before *limit* ready.  The span takes in the
        covered windows first (an aggregate's lookback, say, covers windows
        past the last sample)."""
        program = self._program
        dimension, phase = program.dimension, program.phase
        start, covered, row, first, stop = self._planned
        marks = np.flatnonzero(covered[row, first:stop])
        if marks.size:
            self._widen_span(
                start + int(marks[0]) * dimension, start + (int(marks[-1]) + 1) * dimension
            )
        if self._span is None:
            return [], 0
        begin, end = self._span
        low = max(low, (begin - phase) // dimension)
        high = min(high, (end - 1 - phase) // dimension + 1)
        ready = max(min(limit, high) - low, 0)
        return [phase + k * dimension for k in range(low, low + ready)], max(high - low - ready, 0)

    @property
    def planned_coverage(self) -> IntervalSet:
        """The sink windows the last planned tick found covered, from the
        first window past the frontier it planned from on, as intervals of
        whole windows on the sink grid.

        Every window that can emit there, exact enough to plan on:
        a sharing group publishes it to its tails as the prefix output's
        coverage (:mod:`repro.serve.subplan`).
        """
        if self._planned is None:
            return IntervalSet.empty()
        start, covered, row, first, stop = self._planned
        edges = np.flatnonzero(np.diff(np.concatenate(([0], covered[row, first:stop], [0])).astype(np.int8)))
        bounds = (start + edges * self._plan.sink.dimension).tolist()
        return IntervalSet.from_normalized(tuple(zip(bounds[::2], bounds[1::2])))

    # -- results -----------------------------------------------------------

    def result(self) -> StreamResult:
        """Everything the session has emitted so far, in stream order."""
        if self._collected_times:
            times = np.concatenate(self._collected_times)
            values = np.concatenate(self._collected_values)
            durations = _concatenate_durations(self._collected_durations, times.size)
        else:
            times = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
            durations = np.empty(0, dtype=np.int64)
        return StreamResult(times, values, durations, stats=self._stats(int(times.size)))

    def _stats(self, events: int) -> ExecutionStats:
        """The :class:`ExecutionStats` of everything run so far, *events*
        events emitted."""
        preallocated = self._plan.memory_plan.total_bytes
        if self._execution_mode != "serial":
            # The template executor's buffers are what run execution adds
            # to the planned per-window FWindows.
            preallocated += block_executor(self._plan).peak_buffer_bytes
        return ExecutionStats(
            output_windows=self._windows_run,
            windows_computed=sum(node.windows_computed for node in self._nodes),
            windows_skipped=(
                max(0, span_window_count(self._plan, self._span) - self._windows_run)
                if self._targeted
                else 0
            ),
            events_emitted=events,
            events_ingested=sum(node.source.event_count() for node in self._source_nodes),
            preallocated_bytes=preallocated,
            elapsed_seconds=self._elapsed_seconds,
            targeted=self._targeted,
            execution_mode=self._execution_mode,
            fallback_reason=self._backend.fallback_reason(self._plan),
            per_node_windows={node.name: node.windows_computed for node in self._nodes},
        )

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
        if self._broken is not None:
            raise ExecutionError(self._broken)

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self, path: str | Path | None = None) -> dict:
        """Snapshot the session so it can resume after a restart or crash.

        The checkpoint captures the plan geometry (for compatibility
        checks), every operator node's carries (its named arrays and stamp,
        by topological index),
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
            "operator_states": [copy_carries(node) for node in self._operator_nodes],
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
        # The backend is recorded but not checked: carries do not depend on
        # it, so a checkpoint resumes under either backend.
        for field, actual in (
            ("targeted", self._targeted),
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
            load_carries(node, saved)
        watermarks = checkpoint["watermarks"]
        for node in self._replay_nodes:
            saved_watermark = watermarks.get(node.name)
            if saved_watermark is not None and saved_watermark > node.source.watermark:
                node.source.advance(saved_watermark)
        self._last_start = checkpoint["last_start"]
        self._span = checkpoint["eager_span"]
        self._windows_run = checkpoint["windows_run"]
        self._finished = checkpoint["finished"]
        emitted = checkpoint["emitted"]
        self._events_emitted = int(emitted["times"].size)
        if emitted["times"].size:
            self._collected_times = [np.asarray(emitted["times"], dtype=np.int64)]
            self._collected_values = [np.asarray(emitted["values"], dtype=np.float64)]
            self._collected_durations = [np.asarray(emitted["durations"], dtype=np.int64)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamingSession {self._backend_name} frontier={self._last_start} "
            f"ticks={self._tick_count} windows={self._windows_run}>"
        )


def _concatenate_durations(chunks: list[np.ndarray], events: int) -> np.ndarray:
    """The duration columns of *chunks* back to back: one zero-stride view
    when every chunk is one of the same duration, as a periodic sink's are."""
    duration = chunks[0][0]
    if all(not chunk.strides[0] and chunk[0] == duration for chunk in chunks):
        return period_column(int(duration), events)
    return np.concatenate(chunks)


# -- cross-tenant cohorts ----------------------------------------------------


def tick_batch(batch) -> list[TickStats]:
    """Tick a batch of ``(session, watermark or None)`` pairs, in order.

    Every session is advanced to its watermark (or just polled, with None)
    first; then the sessions cloned from one plan-cache template are
    planned together as one block (:func:`_plan_block`), the ones with
    exactly one ready window execute together as a cohort (one block of the
    template's :class:`~repro.core.runtime.vectorized.BlockExecutor`), and
    finally every session's :meth:`~StreamingSession.poll` commits its tick
    — executing it first when it ran in no cohort.  Results are
    bit-identical to ticking each session alone, and each session still
    reports exactly one tick.

    An error advancing member *k* (a watermark regression, say) ticks the
    members before it, leaves the later ones untouched and then raises.  An
    error while executing the cohorts commits the members of cohorts that
    completed and raises; the members of the cohort that failed are left
    as a session whose own tick failed (:meth:`StreamingSession._break_on`).
    """
    sessions: list[StreamingSession] = []
    try:
        for session, watermark in batch:
            if watermark is None:
                session._require_open()
            else:
                session._advance_sources(watermark)
            sessions.append(session)
    except BaseException:
        for session in sessions:
            session.poll()
        raise
    # A session listed twice is planned once; its second poll plans afresh.
    _plan_ticks(list(dict.fromkeys(sessions)), drain=False)
    try:
        _execute_cohorts(sessions)
    except BaseException:
        # Members of cohorts that completed commit their tick (their carries
        # already moved on); the others plan afresh on their next tick, or
        # refuse it when their failed cohort may have moved carries.
        for session in sessions:
            tick = session._pending
            if tick is not None and tick.chunks is not None:
                session.poll()
            else:
                session._pending = None
        raise
    return [session.poll() for session in sessions]


def _plan_ticks(sessions: list[StreamingSession], drain: bool) -> None:
    """Plan the next tick of each of *sessions* (each listed once): one
    block per plan shape, so a lone tick is a block of one row."""
    blocks: dict = {}
    for session in sessions:
        blocks.setdefault(session._program, []).append(session)
    for program, members in blocks.items():
        _plan_block(program, members, drain)


def _plan_block(program, members: list[StreamingSession], drain: bool) -> None:
    """Plan one tick of every session of *members*, clones of *program*'s
    plan shape, as one boolean block on the sink's window grid (window
    ``k`` starts at ``phase + k * dimension``).

    A member's candidates run from the window past its frontier (before any
    window ran: from where its sources' data begins) to where that data,
    spread by the program, can reach; its block columns start
    :attr:`~repro.core.compiler.lineage.CoverageProgram.spread` windows
    earlier, so marks spreading from there count.  It runs its marked
    windows (an eager member: every window of its span) up to the first
    one whose input some watermark has not passed, all of them when
    *drain*.
    """
    began = time.perf_counter()
    dimension, phase, spread = program.dimension, program.phase, program.spread
    sources = program.sources
    # One coverage lookup per member and source, from the member's first
    # block column on; the member's candidates, in windows.
    found = []
    lows: list = []
    highs: list = []
    for session in members:
        if session._last_start is None:
            first = None
            covers = [source.coverage().intervals for source in session._row_sources]
        else:
            first = (session._last_start - phase) // dimension + 1
            since = phase + (first - spread) * dimension
            covers = [
                source.coverage(since + offset).intervals
                for source, (_, offset, _) in zip(session._row_sources, sources)
            ]
        low = high = None
        reach = program.candidates(covers)
        if reach is not None:
            begin, end, low, high = reach
            session._widen_span(begin, end)
        if not session._targeted and session._span is not None:
            begin, end = session._span
            here, there = (begin - phase) // dimension, (end - 1 - phase) // dimension + 1
            low = here if low is None else min(low, here)
            high = there if high is None else max(high, there)
        if first is not None:
            low = first
        if high is None or high <= low:
            low = high = 0
        found.append(covers)
        lows.append(low)
        highs.append(high)
    source_rows = program.source_rows(found, lows, highs)
    covered, scheduled = program.rows(source_rows)
    # Each member runs its marked windows up to its last ready one; the
    # marked windows past that are deferred.
    which, at = np.nonzero(scheduled)
    which, at = which.tolist(), at.tolist()
    stop = 0
    for row, (session, low, high) in enumerate(zip(members, lows, highs)):
        # This member's marks are at[start:stop], by column.
        start = stop
        while stop < len(which) and which[stop] == row:
            stop += 1
        # The window after the last whose whole input every replayed
        # source's watermark has passed.
        limit = high
        if not drain:
            for source, offset in session._readiness:
                window = (source.watermark - offset - phase) // dimension + 1
                if window < limit:
                    limit = window
        session._planned = (phase + low * dimension, covered, row, spread, spread + high - low)
        if not session._targeted:
            planned, deferred = session._eager_windows(low, high, limit)
        else:
            # The first `spread` columns lie before the first candidate.
            start = bisect_left(at, spread, start, stop)
            ready = bisect_left(at, limit - low + spread, start, stop)
            planned = [phase + (low - spread + column) * dimension for column in at[start:ready]]
            deferred = stop - ready
            if planned:
                session._widen_span(planned[0], planned[-1] + dimension)
        session._pending = _Tick(planned, deferred, 0.0)
    share = (time.perf_counter() - began) / len(members)
    for session in members:
        session._pending.plan_seconds = share


def _execute_cohorts(sessions: list[StreamingSession]) -> None:
    """Execute the prepared ticks of *sessions* that form cohorts."""
    cohorts: dict[int, list[StreamingSession]] = {}
    # A session listed twice is one member; its second poll plans afresh.
    for session in dict.fromkeys(sessions):
        key = session._cohort_key()
        if key is not None:
            cohorts.setdefault(key, []).append(session)
    for members in cohorts.values():
        if len(members) < 2:
            continue
        executor = block_executor(members[0]._plan)
        began = time.perf_counter()
        try:
            events = executor.execute(
                [(member._nodes, member._pending.ready[0], 1) for member in members]
            )
        except BaseException as error:
            for member in members:
                member._break_on(error)
            raise
        share = (time.perf_counter() - began) / len(members)
        for member, chunk in zip(members, events):
            tick = member._pending
            tick.chunks = [chunk]
            tick.execute_seconds = share
            tick.cohort_size = len(members)
