"""Push-based async ingest gateway.

:class:`IngestGateway` turns the pull-style serving loop
(:class:`~repro.serve.service.StreamingService` + ``pump``) into a
push-based one: producers :meth:`push` timestamped samples for their
streams, a single dispatch task coalesces everything that arrived since
the last pass into the clients' :class:`~repro.core.sources.PushSource`\\ s
and ticks the affected sessions via
:meth:`~repro.serve.service.StreamingService.poll`, and subscribers
receive each tick's newly emitted events over bounded queues.

Backpressure is explicit at both ends.  On the way in, each client has a
bounded ingest backlog: once the samples queued-but-not-yet-ticked exceed
``high_watermark`` a push either awaits (``wait=True``, the default) or
returns :data:`PushStatus.BUSY`, and producers resume when the dispatch
loop drains the backlog below ``low_watermark``.  On the way out, each
subscriber queue holds at most ``subscriber_depth`` batches; a slow
consumer stalls the dispatch loop, the backlogs grow, and the producers
throttle — end-to-end flow control with no unbounded buffer anywhere.

The gateway is single-loop asyncio: every method must be called from the
event loop that runs the gateway, and the dispatch task only yields at
``await`` points, so the shared client table needs no locks.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.sources import PushSource
from repro.errors import ExecutionError
from repro.ingest.types import (
    EmittedBatch,
    PushResult,
    PushStatus,
    StreamSpec,
    batch_end,
    normalize_streams,
    percentile,
    validate_push_batch,
)
from repro.serve.service import StreamingService

#: Default ingest backlog bounds, in samples per client.
HIGH_WATERMARK = 4096
LOW_WATERMARK = 1024

#: Default bound on batches queued per subscriber.
SUBSCRIBER_DEPTH = 64

#: Tick latency samples retained for the p99 estimate.
LATENCY_WINDOW = 4096


@dataclass
class GatewayStats:
    """Counters and latency profile of one gateway."""

    #: Push calls accepted into a backlog.
    pushes: int = 0
    #: Samples accepted across all pushes.
    samples: int = 0
    #: Pushes rejected with :data:`PushStatus.BUSY` (``wait=False``).
    busy_rejections: int = 0
    #: Pushes that had to await the low watermark before being accepted.
    throttled_pushes: int = 0
    #: Session ticks run by the dispatch loop.
    ticks: int = 0
    #: Dispatch passes (one pass coalesces many pushes into one poll).
    passes: int = 0
    #: Events delivered to subscribers.
    events_delivered: int = 0
    #: Recent per-session tick latencies, seconds (bounded window).
    tick_seconds: deque = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    @property
    def p99_tick_seconds(self) -> float:
        """99th-percentile session tick latency over the recent window."""
        return percentile(self.tick_seconds, 0.99)

    @property
    def mean_tick_seconds(self) -> float:
        if not self.tick_seconds:
            return 0.0
        return sum(self.tick_seconds) / len(self.tick_seconds)


@dataclass
class _Pending:
    """One queued (not yet applied) push or heartbeat for a stream."""

    stream: str
    times: np.ndarray | None  # None = watermark-only heartbeat
    values: np.ndarray | None
    durations: np.ndarray | None
    watermark: int  # stream watermark after this entry applies


@dataclass
class _GatewayClient:
    """Parent-side state of one connected client."""

    client_id: str
    streams: dict[str, StreamSpec]
    sources: dict[str, PushSource]
    #: Per-stream end of the last accepted batch (push-time order check).
    pushed_through: dict[str, int | None]
    pending: list[_Pending] = field(default_factory=list)
    #: Samples queued but not yet applied by the dispatch loop.
    backlog: int = 0
    #: Set while the backlog is under the high watermark (pushes proceed).
    resume: asyncio.Event = field(default_factory=asyncio.Event)
    subscribers: list[asyncio.Queue] = field(default_factory=list)
    finished: bool = False


class IngestGateway:
    """Accept pushed samples from many producers and serve ticks to
    subscribers, with watermark-based backpressure in both directions.

    Built on a :class:`~repro.serve.service.StreamingService` (supplied or
    constructed from the ``service_kwargs``), so connected clients share
    its plan cache and its batched ticks.
    """

    def __init__(
        self,
        service: StreamingService | None = None,
        high_watermark: int = HIGH_WATERMARK,
        low_watermark: int = LOW_WATERMARK,
        subscriber_depth: int = SUBSCRIBER_DEPTH,
        **service_kwargs,
    ) -> None:
        if service is None:
            service = StreamingService(**service_kwargs)
        elif service_kwargs:
            raise ExecutionError(
                "pass either an existing StreamingService or service kwargs, "
                "not both"
            )
        if low_watermark < 0 or high_watermark <= low_watermark:
            raise ExecutionError(
                f"backpressure watermarks must satisfy 0 <= low < high, got "
                f"low={low_watermark}, high={high_watermark}"
            )
        if subscriber_depth < 1:
            raise ExecutionError(
                f"subscriber_depth must be positive, got {subscriber_depth}"
            )
        self.service = service
        self.high_watermark = int(high_watermark)
        self.low_watermark = int(low_watermark)
        self.subscriber_depth = int(subscriber_depth)
        self.stats = GatewayStats()
        self._clients: dict[str, _GatewayClient] = {}
        self._ids = itertools.count(1)
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._dispatcher: asyncio.Task | None = None
        self._closed = False

    # -- client lifecycle ----------------------------------------------------

    async def connect(self, query, streams, client_id: str | None = None) -> str:
        """Register a client: its query plus the streams it will push on.

        *streams* maps stream names to :class:`StreamSpec`\\ s (or bare
        integer periods).  Compiles the query (sharing the service's plan
        cache), opens its session over fresh empty
        :class:`~repro.core.sources.PushSource`\\ s and returns the client
        id.  Clients may connect at any time — before or after others are
        already streaming.
        """
        self._require_open()
        if client_id is None:
            client_id = f"client-{next(self._ids)}"
        if client_id in self._clients:
            raise ExecutionError(f"client {client_id!r} is already connected")
        specs = normalize_streams(streams)
        sources = {name: spec.build_source() for name, spec in specs.items()}
        self.service.open(client_id, query, sources)
        client = _GatewayClient(
            client_id=client_id,
            streams=specs,
            sources=sources,
            pushed_through={name: None for name in specs},
        )
        client.resume.set()
        self._clients[client_id] = client
        if self._dispatcher is None:
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return client_id

    async def disconnect(self, client_id: str) -> EmittedBatch:
        """Drain *client_id*'s backlog, finish its session and forget it.

        Runs the session's deferred tail (``finish``), delivers the final
        events to the client's subscribers followed by the end-of-stream
        sentinel, and returns the final batch.
        """
        client = self._client(client_id)
        await self.flush()
        client.finished = True
        self._clients.pop(client_id, None)
        session = self.service.session(client_id)
        stats = session.finish()
        self.stats.ticks += 1
        self.stats.tick_seconds.append(stats.elapsed_seconds)
        batch = self._delta(client, session, stats.events_emitted)
        for queue in client.subscribers:
            if len(batch):
                await queue.put(batch)
            await queue.put(None)
        self.stats.events_delivered += len(batch) * len(client.subscribers)
        self.service.close(client_id)
        return batch

    def subscribe(self, client_id: str) -> "Subscription":
        """A bounded async iterator of *client_id*'s emitted batches.

        Yields one :class:`EmittedBatch` per tick that emitted events and
        ends after :meth:`disconnect`.  The queue holds at most
        ``subscriber_depth`` batches; when it fills, the dispatch loop
        stalls on it, backlogs grow and producers throttle.
        """
        client = self._client(client_id)
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.subscriber_depth)
        client.subscribers.append(queue)
        return Subscription(queue)

    @property
    def client_ids(self) -> list[str]:
        return list(self._clients)

    def backlog(self, client_id: str) -> int:
        """Samples queued but not yet ticked for *client_id*."""
        return self._client(client_id).backlog

    # -- the push path -------------------------------------------------------

    async def push(
        self,
        client_id: str,
        stream: str,
        times,
        values,
        durations=None,
        wait: bool = True,
    ) -> PushResult:
        """Queue a batch of samples for one of *client_id*'s streams.

        Validation is eager: a malformed batch (off-grid, out of order,
        shape mismatch) raises here, at the producer, and never reaches
        the shared dispatch loop.  If the client's backlog is at or over
        the high watermark the call awaits the low watermark
        (``wait=True``) or returns :data:`PushStatus.BUSY` immediately
        (``wait=False``).
        """
        self._require_open()
        client = self._client(client_id)
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
            return PushResult(PushStatus.ACCEPTED, client.backlog)
        if client.backlog >= self.high_watermark:
            if not wait:
                self.stats.busy_rejections += 1
                return PushResult(PushStatus.BUSY, client.backlog)
            self.stats.throttled_pushes += 1
            while client.backlog >= self.high_watermark:
                client.resume.clear()
                await client.resume.wait()
                self._require_open()
        end = batch_end(times, durations, spec.period)
        client.pending.append(
            _Pending(
                stream=stream,
                times=times,
                values=values,
                durations=durations,
                watermark=end,
            )
        )
        client.pushed_through[stream] = end
        client.backlog += int(times.size)
        self.stats.pushes += 1
        self.stats.samples += int(times.size)
        self._idle.clear()
        self._wake.set()
        return PushResult(PushStatus.ACCEPTED, client.backlog)

    async def advance(self, client_id: str, stream: str, watermark: int) -> None:
        """Heartbeat: declare *stream* silent through *watermark*.

        Lets downstream windows close over gaps with no samples — the
        push-path twin of :meth:`ReplaySource.advance`.
        """
        self._require_open()
        client = self._client(client_id)
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
        client.pending.append(
            _Pending(
                stream=stream,
                times=None,
                values=None,
                durations=None,
                watermark=watermark,
            )
        )
        client.pushed_through[stream] = watermark
        self._idle.clear()
        self._wake.set()

    async def flush(self) -> None:
        """Wait until every queued push has been applied and ticked."""
        while not self._idle.is_set():
            await self._idle.wait()

    # -- the dispatch loop ---------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Coalesce queued pushes into watermark batches and tick sessions.

        One pass applies *everything* that arrived since the last pass —
        many pushes coalesce into one
        :meth:`~repro.serve.service.StreamingService.poll` over the dirty
        clients, which is where the gateway recovers the batching the
        pull-style ``pump`` loop gets for free.
        """
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._closed:
                break
            dirty = [c for c in self._clients.values() if c.pending]
            if not dirty:
                if not self._wake.is_set():
                    self._idle.set()
                continue
            for client in dirty:
                self._apply_pending(client)
            report = self.service.poll([c.client_id for c in dirty])
            self.stats.passes += 1
            self.stats.ticks += len(report.ticks)
            for tick in report.ticks.values():
                self.stats.tick_seconds.append(tick.elapsed_seconds)
            for client in dirty:
                tick = report.ticks.get(client.client_id)
                emitted = tick.events_emitted if tick is not None else 0
                if emitted and client.subscribers:
                    session = self.service.session(client.client_id)
                    batch = self._delta(client, session, emitted)
                    for queue in client.subscribers:
                        await queue.put(batch)
                    self.stats.events_delivered += emitted * len(client.subscribers)
                if (
                    client.backlog < self.high_watermark
                    and not client.resume.is_set()
                ):
                    # Only resume once drained to the *low* watermark —
                    # hysteresis, so producers do not thrash at the edge.
                    if client.backlog <= self.low_watermark:
                        client.resume.set()
            if not self._wake.is_set() and not any(
                c.pending for c in self._clients.values()
            ):
                self._idle.set()

    def _apply_pending(self, client: _GatewayClient) -> None:
        """Move a client's queued pushes into its PushSources."""
        pending, client.pending = client.pending, []
        applied = 0
        for entry in pending:
            source = client.sources[entry.stream]
            if entry.times is None:
                source.advance(entry.watermark)
            else:
                source.append(entry.times, entry.values, entry.durations)
                applied += int(entry.times.size)
        client.backlog -= applied

    def _delta(
        self, client: _GatewayClient, session, emitted: int
    ) -> EmittedBatch:
        """Wrap the newest *emitted* events of *client* as an EmittedBatch."""
        times, values, durations = session.recent_events(emitted)
        return EmittedBatch(
            client_id=client.client_id,
            times=times,
            values=values,
            durations=durations,
            watermark=session.watermark,
        )

    # -- shutdown ------------------------------------------------------------

    async def aclose(self) -> None:
        """Drain, finish every client and stop the dispatch loop."""
        if self._closed:
            return
        for client_id in list(self._clients):
            await self.disconnect(client_id)
        self._closed = True
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        self.service.close_all()

    async def __aenter__(self) -> "IngestGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def _client(self, client_id: str) -> _GatewayClient:
        client = self._clients.get(client_id)
        if client is None:
            raise ExecutionError(
                f"no connected client {client_id!r} "
                f"(connected: {sorted(self._clients)})"
            )
        return client

    def _require_open(self) -> None:
        if self._closed:
            raise ExecutionError("the ingest gateway is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IngestGateway {len(self._clients)} client(s), "
            f"{self.stats.samples} sample(s) in, "
            f"{self.stats.events_delivered} event(s) out>"
        )


class Subscription:
    """Async iterator over one subscriber queue (ends on the sentinel)."""

    def __init__(self, queue: asyncio.Queue) -> None:
        self._queue = queue

    def __aiter__(self) -> "Subscription":
        return self

    async def __anext__(self) -> EmittedBatch:
        batch = await self._queue.get()
        if batch is None:
            raise StopAsyncIteration
        return batch

    async def get(self) -> EmittedBatch | None:
        """The next batch, or ``None`` once the stream has finished."""
        return await self._queue.get()

    def pending(self) -> int:
        """Batches currently queued for this subscriber."""
        return self._queue.qsize()
