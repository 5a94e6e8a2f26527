"""Dynamic worker pool with checkpointed failover: the multi-process tier.

The paper's scale-out story (Figure 10(c)/(d)) is patient-level data
parallelism: many independent streams processed by identical plans side by
side.  :class:`IngestWorkerPool` is how this repo hosts sessions in other
processes (one-shot cohorts use
:func:`~repro.scaling.multicore.run_data_parallel`).  The sharding unit is
the *whole session*: every client's session lives entirely on one worker,
so every operator carry stays on the worker that owns it and no state
crosses a process boundary between ticks.

**Fork and the catalog.**  Queries hold user lambdas and plans hold NumPy
buffers — neither pickles — so workers are forked and inherit what they
need: a *catalog* (``{query_name: QueryShape}``, query factories fixed at
construction) and the parent's plan cache, pre-warmed with one template per
catalog shape, so N same-shape clients cost one compile *globally*
(:meth:`IngestWorkerPool.cache_stats` shows it per worker).  A client joins
at any time — only its picklable ``(client_id, query_name)`` pair travels
to a worker, which builds the query locally from the inherited factory.
Workers are equally dynamic: :meth:`add_worker` forks a fresh worker
mid-flight, and :meth:`retire_worker` drains one gracefully, rebalancing
its clients onto the survivors.  Platforms without ``fork`` run the same
worker runtime in-process; :attr:`execution_mode` says which.

**Scatter, then gather.**  Every pool-wide command (``tick``, ``finish``,
``results``, ``checkpoint_now``, ``cache_stats``) is sent to all the
workers it concerns before any reply is read, so the workers run
concurrently, and every outstanding reply is drained before an error is
raised or a dead worker is recovered — an unread reply would shift that
worker's pipe protocol by one command for every later call.

**Failover.**  Each worker session checkpoints on a tick cadence
(``lifestream-session-checkpoint/v1``, the format of
:meth:`StreamingSession.checkpoint`), and the states piggyback on the
reply envelopes already flowing to the parent — no extra round trips.
The parent also keeps a bounded *replay log* per client: every accepted
push, truncated once a checkpoint watermark has safely passed it.  When a
heartbeat (or a mid-command pipe death) finds a worker dead, its clients
are restored on surviving peers from the latest checkpoint plus the
replayed post-checkpoint pushes — the restored session re-runs exactly
the ticks the dead worker ran after its last checkpoint, so the final
emitted stream is bit-identical, with zero lost or duplicated events.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro.core.timeutil import TICKS_PER_MINUTE
from repro.errors import ExecutionError
from repro.ingest.types import QueryShape, batch_end, validate_push_batch
from repro.serve.service import ServicePumpReport, StreamingService

#: Ticks between automatic session checkpoints on the workers.
CHECKPOINT_EVERY_TICKS = 4


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()

#: One queued push (or heartbeat) on the wire and in the replay log:
#: ``(stream, times, values, durations, watermark)``; ``times is None``
#: marks a watermark-only heartbeat.
Entry = tuple


def _entry_watermark(entry: Entry) -> int:
    return entry[4]


def _merged(reports) -> ServicePumpReport:
    """Fold the per-worker pump reports of one pool-wide command into one."""
    merged = ServicePumpReport()
    for report in reports:
        merged.merge(report)
    return merged


class _PoolWorkerDied(Exception):
    """Internal: a worker died before (or instead of) replying."""

    def __init__(self, worker_id: int, detail: str) -> None:
        super().__init__(detail)
        self.worker_id = worker_id
        self.detail = detail


class _PoolWorkerRuntime:
    """The in-worker half of the pool protocol.

    Wraps one :class:`~repro.serve.service.StreamingService` plus the
    per-client :class:`~repro.core.sources.PushSource`\\ s, and handles the
    picklable commands the parent sends.  Shared between the forked worker
    loop and the in-process fallback so both modes run the same code.
    """

    def __init__(self, engine, catalog, checkpoint_every: int) -> None:
        self.service = StreamingService(engine=engine)
        self.catalog = catalog
        self.checkpoint_every = checkpoint_every
        self.sources: dict[str, dict] = {}
        #: ``(client_id, state)`` pairs harvested since the last reply.
        self.fresh_checkpoints: list[tuple[str, dict]] = []

    def handle(self, command: str, payload):
        if command == "open":
            return self.open(*payload)
        if command == "ingest":
            return self.ingest(payload)
        if command == "finish":
            return self.finish(payload)
        if command == "results":
            return {
                client_id: self.service.result(client_id)
                for client_id in (payload or self.service.client_ids)
            }
        if command == "checkpoint":
            for client_id in payload or self.service.client_ids:
                self.fresh_checkpoints.append(
                    (client_id, self.service.session(client_id).checkpoint())
                )
            return None
        if command == "cache-stats":
            return self.service.cache_stats
        if command == "close":
            self.service.close_all()
            return None
        raise ExecutionError(f"unknown pool command {command!r}")

    def open(self, client_id, query_name, checkpoint, replay, clocks):
        """Open (or restore) one client's session on this worker."""
        shape = self.catalog.get(query_name)
        if shape is None:
            raise ExecutionError(
                f"query {query_name!r} is not in the pool's catalog "
                f"(known: {sorted(self.catalog)})"
            )
        sources = {name: spec.build_source() for name, spec in shape.streams.items()}
        # Replayed pushes go in *before* the session opens: restore reads
        # windows around the checkpoint frontier, and their input data must
        # already be covered.
        self._apply(sources, replay)
        for stream, clock in (clocks or {}).items():
            if clock is not None and clock > sources[stream].watermark:
                sources[stream].advance(clock)
        session = self.service.open(
            client_id, shape.factory(), sources, checkpoint=checkpoint
        )
        session.set_checkpoint_hook(
            lambda state, cid=client_id: self.fresh_checkpoints.append((cid, state)),
            every_ticks=self.checkpoint_every,
        )
        self.sources[client_id] = sources
        if checkpoint is not None:
            # Catch up: re-run the ticks the dead worker ran after its last
            # checkpoint (the replayed pushes already moved the watermarks).
            self.service.poll([client_id])
        return None

    def ingest(self, batches: dict) -> ServicePumpReport:
        """Apply each client's queued entries, then tick the batch."""
        for client_id, entries in batches.items():
            sources = self.sources.get(client_id)
            if sources is None:
                raise ExecutionError(
                    f"worker holds no session for client {client_id!r}"
                )
            self._apply(sources, entries)
        return self.service.poll(list(batches))

    def finish(self, client_ids) -> ServicePumpReport:
        report = ServicePumpReport()
        for client_id in client_ids or list(self.service.client_ids):
            report.ticks[client_id] = self.service.session(client_id).finish()
        return report

    @staticmethod
    def _apply(sources: dict, entries) -> None:
        for stream, times, values, durations, watermark in entries:
            source = sources[stream]
            if times is None:
                if watermark > source.watermark:
                    source.advance(watermark)
            else:
                source.append(times, values, durations)

    def reply_to(self, command: str, payload) -> tuple:
        """Handle one command and wrap the outcome in the reply envelope.

        Every reply is ``(status, payload, checkpoints)``: a failure is
        ferried to the parent as text instead of taking the worker down,
        and cadence checkpoints ride along on whatever reply goes out next.
        """
        try:
            status, reply = "ok", self.handle(command, payload)
        except Exception as exc:
            status, reply = "error", f"{type(exc).__name__}: {exc}"
        fresh, self.fresh_checkpoints = self.fresh_checkpoints, []
        return status, reply, fresh


def _pool_worker_main(conn, engine, catalog, checkpoint_every, foreign_conns=()) -> None:
    """Forked worker loop: answer commands until EOF or ``close``."""
    for foreign in foreign_conns:
        foreign.close()
    runtime = _PoolWorkerRuntime(engine, catalog, checkpoint_every)
    conn.send(("ok", None, []))
    while True:
        try:
            command, payload = conn.recv()
        except EOFError:
            break
        conn.send(runtime.reply_to(command, payload))
        if command == "close":
            break


class _ForkedWorker:
    """Parent-side handle of one forked worker process."""

    mode = "forked"

    def __init__(self, worker_id: int, process, pipe) -> None:
        self.worker_id = worker_id
        self.process = process
        self.pipe = pipe

    def send(self, command: str, payload) -> None:
        try:
            self.pipe.send((command, payload))
        except (BrokenPipeError, OSError) as exc:
            raise _PoolWorkerDied(
                self.worker_id, f"unreachable on send: {exc}"
            ) from exc

    def recv(self) -> tuple:
        """Receive one reply envelope, detecting a dead worker.

        Waits on the pipe *and* the process sentinel, so a worker that dies
        without its pipe end closing (the fd still inherited somewhere) is
        detected instead of blocking the parent forever.  A reply buffered
        before death is still drained.
        """
        while True:
            ready = mp_connection.wait([self.pipe, self.process.sentinel])
            if self.pipe in ready or self.pipe.poll(0):
                try:
                    return self.pipe.recv()
                except (EOFError, OSError) as exc:
                    raise _PoolWorkerDied(
                        self.worker_id,
                        f"connection closed mid-command ({type(exc).__name__})",
                    ) from exc
            if self.process.sentinel in ready:
                raise _PoolWorkerDied(
                    self.worker_id,
                    f"worker process (pid {self.process.pid}, exitcode "
                    f"{self.process.exitcode}) died mid-command",
                )

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker — no cleanup, no goodbye (chaos testing)."""
        if self.process.is_alive():
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.join(timeout=5)

    def reap(self) -> None:
        try:
            self.pipe.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join(timeout=5)


class _LocalWorker:
    """In-process fallback worker (no ``fork`` on the platform).

    Runs the identical :class:`_PoolWorkerRuntime`; :meth:`kill` discards
    the runtime outright — losing all session state, exactly like a killed
    process — so failover is testable without ``fork``.
    """

    mode = "in-process"

    def __init__(self, worker_id: int, engine, catalog, checkpoint_every: int) -> None:
        self.worker_id = worker_id
        self.runtime = _PoolWorkerRuntime(engine, catalog, checkpoint_every)
        self._reply = None

    def send(self, command: str, payload) -> None:
        if self.runtime is None:
            raise _PoolWorkerDied(self.worker_id, "worker was killed")
        self._reply = self.runtime.reply_to(command, payload)

    def recv(self) -> tuple:
        if self.runtime is None:
            raise _PoolWorkerDied(self.worker_id, "worker was killed")
        return self._reply

    def alive(self) -> bool:
        return self.runtime is not None

    def kill(self) -> None:
        self.runtime = None

    def reap(self) -> None:
        self.runtime = None


@dataclass
class _PoolClient:
    """Parent-side record of one client: placement + failover state."""

    client_id: str
    query_name: str
    worker_id: int
    streams: dict
    #: Per-stream end of the last accepted batch (push-order validation,
    #: and the clock restored onto a peer's fresh sources).
    pushed_through: dict = field(default_factory=dict)
    #: Entries accepted but not yet shipped to the worker.
    outbox: list = field(default_factory=list)
    #: Entries kept for failover replay (truncated at each checkpoint).
    replay: list = field(default_factory=list)
    checkpoint: dict | None = None
    checkpoint_watermark: int | None = None
    finished: bool = False


class IngestWorkerPool:
    """Serve pushed clients across a dynamic, failure-tolerant worker pool.

    Usage::

        catalog = {"hr": QueryShape(make_hr_query, {"ecg": StreamSpec(4)})}
        pool = IngestWorkerPool(catalog, n_workers=2)
        pool.connect("patient-1", "hr")        # join any time
        pool.push("patient-1", "ecg", times, values)
        report = pool.tick()                   # ship + tick all dirty clients
        pool.heartbeat()                       # detect + recover dead workers
        results = pool.results()
        pool.close()
    """

    def __init__(
        self,
        catalog: dict,
        n_workers: int = 2,
        checkpoint_every_ticks: int = CHECKPOINT_EVERY_TICKS,
        retention_ticks: int | None = None,
        window_size: int = TICKS_PER_MINUTE,
        targeted: bool = True,
        backend=None,
        optimization_level: int | None = None,
        max_cached_plans: int = 32,
    ) -> None:
        if n_workers < 1:
            raise ExecutionError(f"n_workers must be positive, got {n_workers}")
        if checkpoint_every_ticks < 1:
            raise ExecutionError(
                f"checkpoint_every_ticks must be positive, got "
                f"{checkpoint_every_ticks}"
            )
        self.catalog = {
            name: shape if isinstance(shape, QueryShape) else QueryShape(*shape)
            for name, shape in dict(catalog).items()
        }
        if not self.catalog:
            raise ExecutionError("the pool catalog must hold at least one query")
        self.checkpoint_every_ticks = int(checkpoint_every_ticks)
        #: Replay entries are dropped once a checkpoint watermark is this
        #: far past them.  The margin exists because a restored session may
        #: re-read inputs up to one window of lookback *before* its
        #: checkpoint frontier; two windows is a conservative bound.
        self.retention_ticks = (
            2 * window_size if retention_ticks is None else int(retention_ticks)
        )
        # Built the way every serving engine is: by the service constructor.
        self._engine = StreamingService(
            window_size=window_size,
            targeted=targeted,
            backend=backend,
            optimization_level=optimization_level,
            max_cached_plans=max_cached_plans,
        ).engine
        # Pre-warm one template per catalog shape in the parent: every
        # worker — including ones forked much later — inherits the warmed
        # cache, so N same-shape clients cost one compile globally.
        for shape in self.catalog.values():
            probe = {name: spec.build_source() for name, spec in shape.streams.items()}
            self._engine._cached_template(shape.factory(), probe)
        self._use_fork = fork_available()
        self._mp_context = (
            multiprocessing.get_context("fork") if self._use_fork else None
        )
        self._workers: dict[int, object] = {}
        self._clients: dict[str, _PoolClient] = {}
        self._next_worker_id = 0
        self._recoveries: list[dict] = []
        self._closed = False
        for _ in range(n_workers):
            self.add_worker()

    # -- workers -------------------------------------------------------------

    @property
    def execution_mode(self) -> str:
        """``"forked"`` or ``"in-process"`` (no ``fork`` on this platform)."""
        return "forked" if self._use_fork else "in-process"

    @property
    def worker_ids(self) -> list[int]:
        return list(self._workers)

    @property
    def client_ids(self) -> list[str]:
        return list(self._clients)

    def clients_of(self, worker_id: int) -> list[str]:
        """Ids of the clients currently placed on *worker_id*."""
        return [
            c.client_id for c in self._clients.values() if c.worker_id == worker_id
        ]

    @property
    def recoveries(self) -> list[dict]:
        """One record per recovered worker: which clients moved where."""
        return list(self._recoveries)

    def add_worker(self) -> int:
        """Fork (or locally create) a fresh worker and add it to the pool.

        Joining after start is first-class: the new worker inherits the
        parent's warmed plan cache and query catalog, and future placements
        (and failover restores) can land on it immediately.
        """
        self._require_open()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        if not self._use_fork:
            self._workers[worker_id] = _LocalWorker(
                worker_id, self._engine, self.catalog, self.checkpoint_every_ticks
            )
            return worker_id
        parent_conn, child_conn = self._mp_context.Pipe()
        # The child inherits copies of every older worker's parent-side pipe
        # end; close them in the child so a dead sibling's pipe can still
        # reach EOF (the sentinel wait covers the rest).
        foreign = [
            worker.pipe for worker in self._workers.values() if hasattr(worker, "pipe")
        ]
        process = self._mp_context.Process(
            target=_pool_worker_main,
            args=(
                child_conn,
                self._engine,
                self.catalog,
                self.checkpoint_every_ticks,
                foreign + [parent_conn],
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _ForkedWorker(worker_id, process, parent_conn)
        self._workers[worker_id] = worker
        # Startup ack: the worker sends one unprompted envelope once ready.
        try:
            status, payload, _ = parent_conn.recv()
        except (EOFError, OSError) as exc:  # pragma: no cover - defensive
            status, payload = "error", f"died during startup ({exc})"
        if status != "ok":  # pragma: no cover - defensive
            worker.reap()
            del self._workers[worker_id]
            raise ExecutionError(f"worker {worker_id} failed to start: {payload}")
        return worker_id

    def retire_worker(self, worker_id: int) -> list[str]:
        """Gracefully drain *worker_id* and rebalance its clients.

        Ships any queued pushes, takes a fresh checkpoint of every hosted
        session, closes the worker, and restores each client on the
        least-loaded survivor.  Returns the moved client ids.
        """
        self._require_open()
        worker = self._worker(worker_id)
        moved = self.clients_of(worker_id)
        if moved:
            batches = self._drain_outboxes(moved)
            if batches:
                self._request(worker, "ingest", batches)
            self._request(worker, "checkpoint", moved)
        self._shutdown_worker(worker)
        del self._workers[worker_id]
        if not self._workers and moved:
            self.add_worker()
        for client_id in moved:
            self._restore_client(self._clients[client_id])
        return moved

    def kill_worker(self, worker_id: int) -> None:
        """Kill *worker_id* without warning (SIGKILL) — chaos helper.

        All session state on the worker is lost; the next
        :meth:`heartbeat` or :meth:`tick` detects the death and restores
        its clients from checkpoints on the surviving workers.
        """
        self._require_open()
        self._worker(worker_id).kill()

    def heartbeat(self) -> list[int]:
        """Detect dead workers and fail their clients over.  Returns the
        recovered worker ids (empty when everyone is healthy)."""
        self._require_open()
        dead = [wid for wid, worker in self._workers.items() if not worker.alive()]
        for worker_id in dead:
            self._recover_worker(worker_id)
        return dead

    # -- clients -------------------------------------------------------------

    def connect(
        self, client_id: str, query_name: str, worker_id: int | None = None
    ) -> int:
        """Place a new client on a worker (least-loaded unless pinned).

        Works at any time — before or after other clients are mid-stream.
        Returns the hosting worker id.
        """
        self._require_open()
        if client_id in self._clients:
            raise ExecutionError(f"client {client_id!r} is already connected")
        shape = self.catalog.get(query_name)
        if shape is None:
            raise ExecutionError(
                f"query {query_name!r} is not in the pool's catalog "
                f"(known: {sorted(self.catalog)})"
            )
        if worker_id is None:
            worker_id = self._least_loaded()
        client = _PoolClient(
            client_id=client_id,
            query_name=query_name,
            worker_id=worker_id,
            streams=dict(shape.streams),
            pushed_through={name: None for name in shape.streams},
        )
        self._open_on(self._worker(worker_id), client, checkpoint=None, replay=[])
        self._clients[client_id] = client
        return worker_id

    def push(self, client_id, stream, times, values, durations=None) -> int:
        """Queue one validated batch for *client_id*; ships on :meth:`tick`.

        Returns the client's queued-entry count (its outbox depth)."""
        self._require_open()
        client = self._live_client(client_id)
        spec = client.streams.get(stream)
        if spec is None:
            raise ExecutionError(
                f"client {client_id!r} has no stream {stream!r} "
                f"(declared: {sorted(client.streams)})"
            )
        times, values, durations = validate_push_batch(
            spec, client.pushed_through[stream], times, values, durations
        )
        if times.size == 0:
            return len(client.outbox)
        end = batch_end(times, durations, spec.period)
        entry = (stream, times, values, durations, end)
        client.outbox.append(entry)
        client.replay.append(entry)
        client.pushed_through[stream] = end
        return len(client.outbox)

    def advance(self, client_id, stream, watermark: int) -> None:
        """Heartbeat: declare *stream* silent through *watermark*."""
        self._require_open()
        client = self._live_client(client_id)
        if stream not in client.streams:
            raise ExecutionError(
                f"client {client_id!r} has no stream {stream!r} "
                f"(declared: {sorted(client.streams)})"
            )
        watermark = int(watermark)
        through = client.pushed_through[stream]
        if through is not None and watermark < through:
            raise ExecutionError(
                f"heartbeat watermark {watermark} for stream {stream!r} is "
                f"behind its pushed data (through {through})"
            )
        entry = (stream, None, None, None, watermark)
        client.outbox.append(entry)
        client.replay.append(entry)
        client.pushed_through[stream] = watermark

    def tick(self) -> ServicePumpReport:
        """Ship every queued push to its worker and tick the dirty clients.

        Groups outboxes per worker, scatters them, and gathers the
        per-worker reports into one; cadence checkpoints riding on the
        replies are harvested and truncate the replay logs they cover.  A
        worker found dead mid-tick is recovered once the survivors have
        replied — its clients are restored on peers (which re-applies
        their queued pushes from the replay log); nothing is lost.
        """
        self._require_open()
        dirty = self._by_worker(
            c.client_id for c in self._clients.values() if c.outbox and not c.finished
        )
        # The outboxes are drained before anything is sent, but every entry
        # is still in the replay logs — a restore replays them, which is
        # why a dead worker's batch is not re-routed.
        batches = {
            worker_id: self._drain_outboxes(placed) for worker_id, placed in dirty.items()
        }
        return _merged(self._gather("ingest", batches, reroute=False))

    def finish(self) -> ServicePumpReport:
        """Drain every live client's deferred tail across all workers."""
        self._require_open()
        self.tick()
        live = [c.client_id for c in self._clients.values() if not c.finished]
        report = _merged(self._gather("finish", self._by_worker(live)))
        for client_id in live:
            self._clients[client_id].finished = True
        return report

    def results(self) -> dict:
        """Per-client :class:`StreamResult`\\ s, gathered across workers."""
        self._require_open()
        merged: dict = {}
        for reply in self._gather("results", self._by_worker(self._clients)):
            merged.update(reply)
        return merged

    def checkpoint_now(self, client_ids=None) -> None:
        """Force an immediate checkpoint of the given (default all) clients."""
        self._require_open()
        targets = list(client_ids) if client_ids is not None else self.client_ids
        unknown = set(targets) - set(self._clients)
        if unknown:
            raise ValueError(
                f"checkpoint_now() was given unknown client(s) {sorted(unknown)}"
            )
        live = [cid for cid in targets if not self._clients[cid].finished]
        self._gather("checkpoint", self._by_worker(live))

    def cache_stats(self) -> list:
        """Per-worker plan-cache counters, in worker order.

        Forked workers inherit the parent's pre-warmed cache, so each
        shows one miss per catalog shape and a hit for every session it
        opened.  In-process workers share the parent's cache: every entry
        is then the same object.
        """
        self._require_open()
        return self._gather("cache-stats", dict.fromkeys(self._workers, ()))

    # -- failover ------------------------------------------------------------

    def _recover_worker(self, worker_id: int) -> None:
        """Restore a dead worker's clients on the survivors."""
        worker = self._workers.pop(worker_id, None)
        if worker is not None:
            worker.reap()
        displaced = [
            c for c in self._clients.values() if c.worker_id == worker_id
        ]
        if displaced and not self._workers:
            self.add_worker()
        record = {
            "worker_id": worker_id,
            "clients": {},
        }
        for client in displaced:
            self._restore_client(client)
            record["clients"][client.client_id] = client.worker_id
        self._recoveries.append(record)

    def _restore_client(self, client: _PoolClient) -> None:
        """Re-open one displaced client on the least-loaded live worker.

        The restore payload is the latest cadence checkpoint plus the
        replay log (all pushes the checkpoint does not cover, with a
        lookback margin); the worker re-applies the pushes, resumes the
        session from the checkpoint and re-runs the post-checkpoint ticks.
        The outbox is cleared — anything queued is in the replay log and
        lands with the restore.
        """
        target_id = self._least_loaded()
        client.worker_id = target_id
        client.outbox = []
        self._open_on(
            self._workers[target_id],
            client,
            checkpoint=client.checkpoint,
            replay=list(client.replay),
        )
        if client.finished:
            # The stream had already ended; re-run the drain tail too (a
            # checkpoint taken before finish() holds finished=False).
            self._request(self._workers[target_id], "finish", [client.client_id])

    def _open_on(self, worker, client: _PoolClient, checkpoint, replay) -> None:
        payload = (
            client.client_id,
            client.query_name,
            checkpoint,
            replay,
            dict(client.pushed_through),
        )
        self._request(worker, "open", payload)

    # -- plumbing ------------------------------------------------------------

    def _drain_outboxes(self, client_ids) -> dict[str, list]:
        batches: dict[str, list] = {}
        for client_id in client_ids:
            client = self._clients[client_id]
            if client.outbox:
                batches[client_id] = client.outbox
                client.outbox = []
        return batches

    def _request(self, worker, command, payload):
        """One round trip to one worker (placement, restore, retirement)."""
        worker.send(command, payload)
        return self._receive(worker, command)

    def _receive(self, worker, command):
        """One reply: harvest its piggybacked checkpoints, raise its error."""
        status, reply, checkpoints = worker.recv()
        self._harvest(checkpoints)
        if status != "ok":
            raise ExecutionError(
                f"worker {worker.worker_id} failed on {command!r}: {reply}"
            )
        return reply

    def _gather(self, command: str, payloads: dict, reroute: bool = True) -> list:
        """Send *command* to every worker in *payloads*, then collect every reply.

        *payloads* maps worker id to that worker's payload — a list of the
        client ids the command concerns, or anything at all with
        ``reroute=False``.  All sends go out before the first receive, so
        the workers run concurrently, and every outstanding reply is
        drained (its piggybacked checkpoints harvested) before anything
        else happens.  Then each worker found dead — on send or while the
        parent waited — is recovered, and with ``reroute`` the request is
        sent again for its clients, grouped by the peers that now host
        them.  Error replies raise one :class:`ExecutionError` after the
        recovery, so the pool stays usable.  Returns the ``ok`` payloads.
        """
        replies: list = []
        while payloads:
            sent, dead, errors = [], [], []
            for worker_id, payload in payloads.items():
                worker = self._workers.get(worker_id)
                if worker is None:
                    dead.append(worker_id)
                    continue
                try:
                    worker.send(command, payload)
                except _PoolWorkerDied:
                    dead.append(worker_id)
                else:
                    sent.append(worker)
            for worker in sent:
                try:
                    replies.append(self._receive(worker, command))
                except _PoolWorkerDied:
                    dead.append(worker.worker_id)
                except ExecutionError as error:
                    errors.append(str(error))
            displaced: list[str] = []
            for worker_id in dead:
                self._recover_worker(worker_id)
                if reroute:
                    displaced.extend(payloads[worker_id])
            if errors:
                raise ExecutionError("; ".join(errors))
            payloads = self._by_worker(displaced)
        return replies

    def _by_worker(self, client_ids) -> dict[int, list[str]]:
        """Group *client_ids* by the worker currently hosting each."""
        placed: dict[int, list[str]] = {}
        for client_id in client_ids:
            placed.setdefault(self._clients[client_id].worker_id, []).append(client_id)
        return placed

    def _harvest(self, checkpoints) -> None:
        """Adopt piggybacked checkpoints and truncate the replay logs."""
        for client_id, state in checkpoints or ():
            client = self._clients.get(client_id)
            if client is None:
                continue
            watermarks = state.get("watermarks") or {}
            low = min(watermarks.values()) if watermarks else None
            client.checkpoint = state
            client.checkpoint_watermark = low
            if low is not None:
                horizon = low - self.retention_ticks
                client.replay = [
                    entry
                    for entry in client.replay
                    if _entry_watermark(entry) > horizon
                ]

    def _least_loaded(self) -> int:
        live = [wid for wid, worker in self._workers.items() if worker.alive()]
        if not live:
            return self.add_worker()
        load = {wid: 0 for wid in live}
        for client in self._clients.values():
            if client.worker_id in load:
                load[client.worker_id] += 1
        return min(live, key=lambda wid: (load[wid], wid))

    def _worker(self, worker_id: int):
        worker = self._workers.get(worker_id)
        if worker is None:
            raise ExecutionError(
                f"no worker {worker_id} in the pool (workers: {self.worker_ids})"
            )
        return worker

    def _live_client(self, client_id: str) -> _PoolClient:
        client = self._clients.get(client_id)
        if client is None:
            raise ExecutionError(
                f"no connected client {client_id!r} "
                f"(connected: {sorted(self._clients)})"
            )
        if client.finished:
            raise ExecutionError(
                f"client {client_id!r} is finished; no more data can arrive"
            )
        return client

    def _require_open(self) -> None:
        if self._closed:
            raise ExecutionError("the worker pool is closed")

    def _shutdown_worker(self, worker) -> None:
        try:
            self._request(worker, "close", None)
        except (_PoolWorkerDied, ExecutionError):  # pragma: no cover - defensive
            pass
        worker.reap()

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Shut down every worker.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            self._shutdown_worker(worker)
        self._workers.clear()

    def __enter__(self) -> "IngestWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IngestWorkerPool {len(self._clients)} client(s) on "
            f"{len(self._workers)} worker(s), {self.execution_mode}>"
        )
