"""Session-level process parallelism: shard whole clients across workers.

The paper's Figure 10(c)/(d) throughput comes from patient-level data
parallelism — many independent streams processed by identical plans side by
side.  :class:`ShardedStreamingService` realises that for serving: every
registered client's *entire* session lives on one forked worker process, so
each worker runs an ordinary in-process :class:`~repro.serve.service.StreamingService`
over its shard and a ``pump`` fans the watermark batch out to all workers
at once.  This closes the streaming gap of
:class:`~repro.core.runtime.backends.MultiprocessBackend` (whose
``session_mode`` rejects single-session use, because per-window sharding
would re-replay warm-up state every tick): with whole sessions as the
sharding unit, every operator carry stays on the worker that owns it and no
state ever crosses a process boundary.

Queries hold user lambdas and plans hold NumPy buffers — neither pickles —
so the protocol is fork-based, exactly like the multiprocess backend:

1. clients are registered *before* :meth:`start` (queries and sources are
   inherited by the fork, never serialised);
2. the parent pre-warms a shared :class:`~repro.serve.cache.PlanCache` (one
   compile per distinct plan signature), which every forked worker inherits
   — N same-shape clients still cost one compile *globally*;
3. after the fork only picklable values cross the pipes: watermark batches
   in, :class:`~repro.serve.service.ServicePumpReport` and
   :class:`~repro.core.runtime.result.StreamResult` payloads out.

Platforms without ``fork`` (or ``n_workers=1``, or a single client) fall
back to one in-process service; :attr:`execution_mode` reports which mode
actually serves — ``"forked"`` or ``"in-process"`` — mirroring the honest
``ExecutionStats.execution_mode`` accounting of the batch backends.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

from repro.core.engine import LifeStreamEngine
from repro.core.runtime.backends import fork_available
from repro.core.timeutil import TICKS_PER_MINUTE
from repro.errors import ExecutionError
from repro.serve.cache import PlanCache
from repro.serve.service import ServicePumpReport, StreamingService


@dataclass
class _RegisteredClient:
    """A client captured before the fork (inherited, never pickled)."""

    client_id: str
    query: object
    sources: dict
    targeted: bool | None


class _WorkerDied(Exception):
    """Internal: a shard's worker process died before replying."""

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(detail)
        self.shard = shard
        self.detail = detail


def _shard_worker_main(conn, engine: LifeStreamEngine, clients, foreign_conns=()) -> None:
    """Worker loop: serve one shard of sessions over an inherited engine."""
    # Close the other shards' inherited pipe ends first: if this worker kept
    # them open, a sibling's death would not close its pipe's last write end
    # and the parent would block on recv() instead of seeing EOF.
    for foreign in foreign_conns:
        foreign.close()
    service = StreamingService(engine=engine)
    try:
        for client in clients:
            service.open(
                client.client_id, client.query, client.sources, targeted=client.targeted
            )
        conn.send(("ok", None))
    except BaseException as exc:  # noqa: B036 - report, then die
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    while True:
        try:
            command, payload = conn.recv()
        except EOFError:
            break
        try:
            if command == "pump":
                reply = service.pump(payload)
            elif command == "finish":
                reply = service.finish()
            elif command == "results":
                reply = service.results()
            elif command == "cache-stats":
                reply = service.cache_stats
            elif command == "close":
                service.close_all()
                conn.send(("ok", None))
                break
            else:
                raise ExecutionError(f"unknown shard command {command!r}")
            conn.send(("ok", reply))
        except BaseException as exc:  # noqa: B036 - ferry the error to the parent
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


class ShardedStreamingService:
    """Run many streaming clients sharded, whole-session, across processes.

    Usage::

        service = ShardedStreamingService(n_workers=4, window_size=1000)
        for patient_id, source in patients.items():
            service.register(patient_id, make_query(), {"ecg": source})
        service.start()                    # fork + open all sessions
        for watermark in schedule:
            report = service.pump(watermark)
        service.finish()
        results = service.results()        # {client_id: StreamResult}
        service.close()
    """

    def __init__(
        self,
        n_workers: int = 2,
        window_size: int = TICKS_PER_MINUTE,
        targeted: bool = True,
        backend=None,
        optimization_level: int | None = None,
        max_cached_plans: int = 32,
    ) -> None:
        if n_workers < 1:
            raise ExecutionError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = int(n_workers)
        self.window_size = window_size
        self.targeted = targeted
        self.backend = backend
        self.optimization_level = optimization_level
        self.max_cached_plans = max_cached_plans
        self._registered: list[_RegisteredClient] = []
        self._assignment: dict[str, int] = {}
        self._workers: list = []
        self._pipes: list = []
        self._local: StreamingService | None = None
        self._started = False
        self._closed = False

    # -- setup -------------------------------------------------------------

    #: Platform check, shared with :class:`MultiprocessBackend`.
    _fork_available = staticmethod(fork_available)

    def register(
        self, client_id: str, query, sources, targeted: bool | None = None
    ) -> None:
        """Add a client before :meth:`start` (sessions open at start time)."""
        if self._started:
            raise ExecutionError(
                "clients must be registered before start(): queries cannot "
                "cross a process boundary, so forked workers can only serve "
                "clients they inherited"
            )
        if any(c.client_id == client_id for c in self._registered):
            raise ExecutionError(f"client {client_id!r} is already registered")
        self._registered.append(
            _RegisteredClient(client_id, query, dict(sources), targeted)
        )

    @property
    def client_ids(self) -> list[str]:
        """Registered client ids, in registration order."""
        return [client.client_id for client in self._registered]

    @property
    def execution_mode(self) -> str:
        """How sessions actually run: ``"forked"`` or ``"in-process"``."""
        if not self._started:
            raise ExecutionError("the service has not been started yet")
        return "in-process" if self._local is not None else "forked"

    @property
    def n_shards(self) -> int:
        """Number of worker processes actually serving (1 when in-process)."""
        if self._local is not None:
            return 1
        return len(self._workers)

    def start(self) -> "ShardedStreamingService":
        """Pre-warm the plan cache, fork the workers, open every session."""
        if self._started:
            raise ExecutionError("the service is already started")
        if not self._registered:
            raise ExecutionError("no clients registered; register() before start()")
        engine = self._build_engine()
        # One compile per distinct plan signature, in the parent, *before*
        # the fork: every worker inherits the warmed cache, so same-shape
        # clients cost one compile globally, not one per worker.  Warming
        # resolves templates only — no throwaway per-client instantiation.
        for client in self._registered:
            engine._cached_template(client.query, client.sources)
        self._started = True
        if (
            self.n_workers == 1
            or len(self._registered) < 2
            or not self._fork_available()
        ):
            self._local = StreamingService(engine=engine)
            for client in self._registered:
                self._local.open(
                    client.client_id,
                    client.query,
                    client.sources,
                    targeted=client.targeted,
                )
            return self
        shards: list[list[_RegisteredClient]] = [
            [] for _ in range(min(self.n_workers, len(self._registered)))
        ]
        for index, client in enumerate(self._registered):
            shard = index % len(shards)
            shards[shard].append(client)
            self._assignment[client.client_id] = shard
        context = multiprocessing.get_context("fork")
        # All pipes exist before any fork, so each worker can close every
        # other shard's ends — see _shard_worker_main.
        pairs = [context.Pipe() for _ in shards]
        for index, shard_clients in enumerate(shards):
            parent_conn, child_conn = pairs[index]
            foreign = [
                conn for pair in pairs for conn in pair if conn is not child_conn
            ]
            worker = context.Process(
                target=_shard_worker_main,
                args=(child_conn, engine, shard_clients, foreign),
                daemon=True,
            )
            worker.start()
            self._pipes.append(parent_conn)
            self._workers.append(worker)
        for _, child_conn in pairs:
            child_conn.close()
        # Each worker acknowledges once its shard's sessions are open.
        for shard in range(len(self._pipes)):
            try:
                status, payload = self._recv_from(shard)
            except _WorkerDied as died:
                self._fail([died])
            if status != "ok":
                self.close()
                raise ExecutionError(f"shard {shard} failed to open its sessions: {payload}")
        return self

    def _build_engine(self) -> LifeStreamEngine:
        kwargs = {}
        if self.optimization_level is not None:
            kwargs["optimization_level"] = self.optimization_level
        return LifeStreamEngine(
            window_size=self.window_size,
            targeted=self.targeted,
            backend=self.backend,
            plan_cache=PlanCache(capacity=self.max_cached_plans),
            **kwargs,
        )

    # -- serving -----------------------------------------------------------

    def pump(self, watermarks) -> ServicePumpReport:
        """Tick every shard for the new watermarks; workers run concurrently.

        *watermarks* is one watermark for all clients or a
        ``{client_id: watermark}`` mapping, exactly as for
        :meth:`StreamingService.pump`.  The merged report concatenates the
        per-shard tick orders (shards execute in parallel, so cross-shard
        order records dispatch, not wall-clock interleaving).
        """
        self._require_started()
        if self._local is not None:
            return self._local.pump(watermarks)
        if isinstance(watermarks, dict):
            unknown = set(watermarks) - set(self._assignment)
            if unknown:
                raise ValueError(
                    f"pump() was given unknown client(s) {sorted(unknown)}; "
                    f"registered: {sorted(self._assignment)}"
                )
            batches: list[dict] = [{} for _ in self._workers]
            for client_id, watermark in watermarks.items():
                batches[self._assignment[client_id]][client_id] = watermark
        else:
            batches = [watermarks for _ in self._workers]
        return self._broadcast("pump", batches)

    def finish(self) -> ServicePumpReport:
        """Drain every session's deferred tail across all shards."""
        self._require_started()
        if self._local is not None:
            return self._local.finish()
        return self._broadcast("finish", [None] * len(self._workers))

    def results(self) -> dict:
        """Per-client :class:`StreamResult`s, merged across shards."""
        self._require_started()
        if self._local is not None:
            return self._local.results()
        merged: dict = {}
        for reply in self._gather("results", [None] * len(self._workers)):
            merged.update(reply)
        return merged

    def cache_stats(self) -> list:
        """Per-shard plan-cache counters (one entry when in-process)."""
        self._require_started()
        if self._local is not None:
            return [self._local.cache_stats]
        return self._gather("cache-stats", [None] * len(self._workers))

    def _broadcast(self, command: str, payloads: list) -> ServicePumpReport:
        report = ServicePumpReport()
        for reply in self._gather(command, payloads):
            report.merge(reply)
        return report

    def _gather(self, command: str, payloads: list) -> list:
        """Send *command* to every worker, then collect every reply.

        Every outstanding reply is drained before an error is raised —
        leaving one unread would permanently shift that shard's pipe
        protocol by one command for every later call.  A worker found dead
        (closed pipe, or its process sentinel firing while the parent waits)
        fails the whole service: the surviving workers are reaped and an
        :class:`ExecutionError` names the dead shard and the clients whose
        sessions it took down — their state is gone, and pretending the
        other shards can keep serving would silently drop those clients.
        """
        sent: set[int] = set()
        errors: list[str] = []
        deaths: list[_WorkerDied] = []
        for shard, (pipe, payload) in enumerate(zip(self._pipes, payloads)):
            if command == "pump" and isinstance(payload, dict) and not payload:
                continue
            try:
                pipe.send((command, payload))
                sent.add(shard)
            except (BrokenPipeError, OSError) as exc:
                deaths.append(_WorkerDied(shard, f"unreachable on send: {exc}"))
        replies = []
        for shard in sorted(sent):
            try:
                status, payload = self._recv_from(shard)
            except _WorkerDied as died:
                deaths.append(died)
                continue
            if status != "ok":
                errors.append(f"shard {shard} failed: {payload}")
            else:
                replies.append(payload)
        if deaths:
            self._fail(deaths, errors)
        if errors:
            raise ExecutionError("; ".join(errors))
        return replies

    def _recv_from(self, shard: int):
        """Receive one reply from *shard*, detecting a dead worker.

        Waits on the pipe *and* the worker's process sentinel, so a worker
        that dies without its pipe end closing (e.g. the fd still inherited
        somewhere) is still detected instead of blocking the parent forever.
        A reply buffered before death is still drained.
        """
        pipe = self._pipes[shard]
        worker = self._workers[shard]
        while True:
            ready = mp_connection.wait([pipe, worker.sentinel])
            if pipe in ready or pipe.poll(0):
                try:
                    return pipe.recv()
                except (EOFError, OSError) as exc:
                    raise _WorkerDied(
                        shard, f"connection closed mid-command ({type(exc).__name__})"
                    ) from exc
            if worker.sentinel in ready:
                raise _WorkerDied(
                    shard,
                    f"worker process (pid {worker.pid}, exitcode "
                    f"{worker.exitcode}) died mid-command",
                )

    def _shard_client_ids(self, shard: int) -> list[str]:
        """Registered client ids living on *shard*, in registration order."""
        return [
            client_id
            for client_id, assigned in self._assignment.items()
            if assigned == shard
        ]

    def _fail(self, deaths: list[_WorkerDied], errors: list[str] | None = None) -> None:
        """Reap every worker and raise, naming each dead shard's clients."""
        messages = []
        for died in deaths:
            clients = self._shard_client_ids(died.shard)
            messages.append(
                f"shard {died.shard} died ({died.detail}); its client(s) "
                f"{clients} lost their sessions"
            )
        messages.extend(errors or [])
        self._reap()
        self._closed = True
        raise ExecutionError(
            "; ".join(messages) + "; all workers have been reaped and the "
            "service is closed — re-register the clients on a fresh service "
            "(or use repro.ingest.IngestWorkerPool, which restores a dead "
            "worker's sessions from checkpoints)"
        )

    def _reap(self) -> None:
        """Terminate and join every worker, closing the pipes.  Idempotent."""
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.kill()
                worker.join(timeout=5)

    def _require_started(self) -> None:
        if not self._started:
            raise ExecutionError("the service has not been started yet")
        if self._closed:
            raise ExecutionError("the service is closed")

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Close every session and stop the workers.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._local is not None:
            self._local.close_all()
            return
        for pipe in self._pipes:
            try:
                pipe.send(("close", None))
            except (BrokenPipeError, OSError):
                continue
        for pipe in self._pipes:
            try:
                pipe.recv()
            except (EOFError, OSError):
                continue
            finally:
                pipe.close()
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5)

    def __enter__(self) -> "ShardedStreamingService":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("started" if self._started else "idle")
        return (
            f"<ShardedStreamingService {len(self._registered)} client(s), "
            f"{self.n_workers} worker(s), {state}>"
        )
