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

Every tick takes three steps — **plan** (the coverage refresh, frontier
and readiness gating above), **execute** (the backend's window loop) and
**commit** (collect the events, move the frontier, report
:class:`TickStats`) — and every tick is reported by :meth:`advance`,
:meth:`poll` or :meth:`finish`, except the one tick of a one-shot
``CompiledQuery.run()``, whose result is the whole report.  A serving
batch may split them: :func:`tick_batch` plans every member,
executes the one-window ticks of clones of one plan-cache template
together as a cross-tenant cohort, and then :meth:`poll` commits each
member's already-executed tick without planning again.  On the vectorized
backend one executor per template
(:class:`~repro.core.runtime.vectorized.BlockExecutor`) runs both: a
session's run of consecutive windows is a block of one segment, a cohort a
block of one one-window segment per member.

Planning is shared by a template's clones as far as it depends only on
the plan's shape.  The coverage refresh evaluates the template's flat
:class:`~repro.core.compiler.lineage.CoverageProgram` (the one
:func:`~repro.core.compiler.lineage.propagate_coverage` runs) over each
session's own sources, and the sync tables of the frontier cut and of
readiness (where each source sits for a given output window) are built
once per template and window start in a batch and shared by its members
(:meth:`StreamingSession._input_syncs`).

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

from repro.core.compiler.lineage import coverage_program, propagate_coverage
from repro.core.graph import OperatorNode, SourceNode
from repro.core.intervals import IntervalSet
from repro.core.runtime.backends import VectorizedBackend
from repro.core.runtime.executor import coverage_span, span_window_count
from repro.core.runtime.result import ExecutionStats, StreamResult
from repro.core.runtime.vectorized import block_executor
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
    the backend window loop, or this session's share of its cohort's
    execution.  The session keeps none of these records:
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
    #: Execution mode that really drove this tick (honest label, including
    #: any ``+serial-fallback`` suffix accrued so far).
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
        "ready", "deferred", "plan_seconds", "chunks", "fell_back",
        "execute_seconds", "cohort_size",
    )

    def __init__(self, ready: list[int], deferred: int, plan_seconds: float) -> None:
        self.ready = ready
        self.deferred = deferred
        self.plan_seconds = plan_seconds
        #: Sink events per window run, set once the tick executed.
        self.chunks: list | None = None
        self.fell_back = False
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
        #: ``(topological index, node)`` of every replayed source.
        self._replay_slots = [
            (index, node)
            for index, node in enumerate(self._nodes)
            if isinstance(node, SourceNode) and isinstance(node.source, ReplaySource)
        ]
        self._replay_nodes = [node for _, node in self._replay_slots]
        # The lineage walk of the plan's shape, shared by every clone of its
        # template (and keying the sync tables a batch shares).
        self._program = coverage_program(self._plan)
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
        self._tick_count = 0
        self._finished = False
        self._closed = False
        self._checkpoint_hook = None
        self._checkpoint_every = 1
        self._ticks_since_checkpoint = 0
        # The plan-cache template a cohort is keyed by: only clones that run
        # vectorized ticks join one.
        self._template = (
            self._plan.template if self._execution_mode == VectorizedBackend.name else None
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

    def _prepare(self, watermark: int | None, tables: dict) -> None:
        """Plan the next tick without executing it.

        Advances the sources to *watermark* first (as :meth:`advance` does)
        unless it is None.  *tables* holds the sync tables of the batch
        (see :meth:`_input_syncs`).  The next :meth:`poll` executes the
        planned windows — unless :func:`tick_batch` executed them in a
        cohort meanwhile — and commits the tick.
        """
        if watermark is None:
            self._require_open()
        else:
            self._advance_sources(watermark)
        self._pending = self._plan_tick(drain=False, tables=tables)

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
        tick, self._pending = self._pending, None
        if tick is None or (drain and tick.chunks is None):
            tick = self._plan_tick(drain, tables={})
        if tick.chunks is None:
            began = time.perf_counter()
            try:
                tick.chunks, tick.fell_back = self._backend.session_tick(
                    self._plan, tick.ready
                )
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
        if any(node.operator.make_state() is not None for node in self._operator_nodes):
            self._broken = (
                f"session state is inconsistent: a tick failed mid-execution "
                f"({error!r}) after carries may have advanced; close the session "
                f"and restore an earlier checkpoint"
            )

    def _plan_tick(self, drain: bool, tables: dict) -> "_Tick":
        began = time.perf_counter()
        self._refresh_coverage(tables)
        new = self._new_window_starts()
        ready: list[int] = []
        deferred = 0
        for start in new:
            if drain or self._window_ready(start, tables):
                ready.append(start)
            else:
                # Windows must run in order (FWindows only slide forward);
                # everything past the first unready window waits too.
                deferred = len(new) - len(ready)
                break
        return _Tick(ready, deferred, time.perf_counter() - began)

    def _cohort_key(self):
        """What a cohort is keyed by, or None when this tick runs alone: the
        template, and the grid phase of exactly one ready window."""
        tick = self._pending
        if self._template is None or tick is None or len(tick.ready) != 1:
            return None
        return id(self._template), tick.ready[0] % self._plan.sink.dimension

    def _commit(self, tick: "_Tick") -> TickStats:
        events = 0
        for times, values, durations in tick.chunks:
            if times.size:
                self._collected_times.append(times)
                self._collected_values.append(values)
                self._collected_durations.append(durations)
                events += int(times.size)
        if tick.fell_back and not self._execution_mode.endswith("+serial-fallback"):
            self._execution_mode = f"{self._execution_mode}+serial-fallback"
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

    def _input_syncs(self, tables: dict, start: int, reach: bool = False) -> dict[int, int]:
        """The sync table of the output window at *start*
        (:meth:`~repro.core.compiler.lineage.CoverageProgram.input_syncs`):
        ``{topological index: sync}`` per source, the earliest position
        with *reach* and the latest without.

        It depends only on the plan's shape and *start*, so it is memoised
        in *tables*, keyed by the shape's program: the clones of one
        template at one frontier in one :func:`tick_batch` walk the graph
        once between them.  *tables* lives for one batch (a lone tick gets
        a fresh one).
        """
        key = (self._program, start, reach)
        table = tables.get(key)
        if table is None:
            table = tables[key] = self._program.input_syncs(start, reach)
        return table

    def _refresh_coverage(self, tables: dict) -> None:
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
            since = self._input_syncs(
                tables, self._last_start + self._plan.sink.dimension, reach=True
            )
        propagate_coverage(
            self._plan.sink, since=since, nodes=self._nodes, program=self._program
        )
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

    def _window_ready(self, start: int, tables: dict) -> bool:
        """True when every replayed source's watermark covers the full input
        span the output window starting at *start* would read."""
        syncs = self._input_syncs(tables, start)
        return all(
            syncs[index] + node.dimension <= node.source.watermark
            for index, node in self._replay_slots
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamingSession {self._backend_name} frontier={self._last_start} "
            f"ticks={self._tick_count} windows={self._windows_run}>"
        )


# -- cross-tenant cohorts ----------------------------------------------------


def tick_batch(batch) -> list[TickStats]:
    """Tick a batch of ``(session, watermark or None)`` pairs, in order.

    Every session is planned first (advanced to its watermark, or polled
    with None), then sessions cloned from one plan-cache template with
    exactly one ready window on one grid phase execute together as a
    cohort (one block of the template's
    :class:`~repro.core.runtime.vectorized.BlockExecutor`), and
    finally every session's :meth:`~StreamingSession.poll` commits its tick
    — executing it first when it ran in no cohort.  Results are
    bit-identical to ticking each session alone, and each session still
    reports exactly one tick.

    A planning error (a watermark regression, say) at member *k* ticks the
    members before it, leaves the later ones untouched and then raises.  An
    error while executing the cohorts commits the members of cohorts that
    completed and raises; the members of the cohort that failed are left
    as a session whose own tick failed (:meth:`StreamingSession._break_on`).
    """
    prepared: list[StreamingSession] = []
    # Sync tables shared by the batch's clones of one template (see
    # StreamingSession._input_syncs); they do not outlive the batch.
    tables: dict = {}
    try:
        for session, watermark in batch:
            session._prepare(watermark, tables)
            prepared.append(session)
    except BaseException:
        for session in prepared:
            session.poll()
        raise
    try:
        _execute_cohorts(prepared)
    except BaseException:
        # Members of cohorts that completed commit their tick (their carries
        # already moved on); the others plan afresh on their next tick, or
        # refuse it when their failed cohort may have moved carries.
        for session in prepared:
            tick = session._pending
            if tick is not None and tick.chunks is not None:
                session.poll()
            else:
                session._pending = None
        raise
    return [session.poll() for session in prepared]


def _execute_cohorts(sessions: list[StreamingSession]) -> None:
    """Execute the prepared ticks of *sessions* that form cohorts."""
    cohorts: dict[tuple, list[StreamingSession]] = {}
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
            tick.fell_back = executor.fell_back
            tick.execute_seconds = share
            tick.cohort_size = len(members)
