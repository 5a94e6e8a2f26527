"""Ingest gateway suite: push semantics, backpressure, delivery, parity.

The load-bearing guarantee is the last test class: a session fed
incrementally through the async gateway emits the bit-identical stream a
one-shot engine run produces over the same data — the gateway is pure
plumbing, never semantics.
"""

import asyncio

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import SerialBackend
from repro.core.sources import ArraySource
from repro.errors import ExecutionError, StreamDefinitionError
from repro.ingest import (
    IngestGateway,
    PushStatus,
    StreamSpec,
)

PERIOD = 2  # 500 Hz


def _query():
    return (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .where(lambda v: v > -5)
        .tumbling_window(100)
        .mean()
    )


def _signal(n=6000, seed=3):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * PERIOD
    keep = np.ones(n, dtype=bool)
    if n > 600:  # punch burst gaps into long signals only
        for start in rng.integers(0, n - 500, size=3):
            keep[start : start + int(rng.integers(100, 400))] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return times[keep], values[keep]


def _one_shot_reference(times, values):
    engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
    return engine.run(_query(), sources={"s": ArraySource(times, values, period=PERIOD)})


def _chunks(times, values, size):
    for start in range(0, len(times), size):
        yield times[start : start + size], values[start : start + size]


class TestConnectAndValidation:
    async def test_connect_assigns_ids_and_rejects_duplicates(self):
        async with IngestGateway(window_size=1000) as gateway:
            first = await gateway.connect(_query(), {"s": StreamSpec(PERIOD)})
            second = await gateway.connect(_query(), {"s": PERIOD})
            assert first != second
            assert set(gateway.client_ids) == {first, second}
            named = await gateway.connect(_query(), {"s": PERIOD}, client_id="pat-9")
            assert named == "pat-9"
            with pytest.raises(ExecutionError, match="already connected"):
                await gateway.connect(_query(), {"s": PERIOD}, client_id="pat-9")

    async def test_push_validates_eagerly_at_the_producer(self):
        async with IngestGateway(window_size=1000) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            with pytest.raises(ExecutionError, match="no stream 'nope'"):
                await gateway.push(cid, "nope", [0], [1.0])
            with pytest.raises(StreamDefinitionError, match="periodic grid"):
                await gateway.push(cid, "s", [3], [1.0])
            with pytest.raises(StreamDefinitionError, match="strictly increasing"):
                await gateway.push(cid, "s", [4, 2], [1.0, 2.0])
            with pytest.raises(StreamDefinitionError, match="same shape"):
                await gateway.push(cid, "s", [2, 4], [1.0])
            await gateway.push(cid, "s", [0, 2], [1.0, 2.0])
            with pytest.raises(StreamDefinitionError, match="time order"):
                await gateway.push(cid, "s", [2], [9.0])
            # Nothing malformed reached the dispatch loop: flush stays clean.
            await gateway.flush()

    async def test_unknown_client_and_closed_gateway(self):
        gateway = IngestGateway(window_size=1000)
        with pytest.raises(ExecutionError, match="no connected client"):
            await gateway.push("ghost", "s", [0], [1.0])
        await gateway.aclose()
        with pytest.raises(ExecutionError, match="closed"):
            await gateway.connect(_query(), {"s": PERIOD})

    async def test_watermark_bounds_rejected(self):
        with pytest.raises(ExecutionError, match="low < high"):
            IngestGateway(window_size=1000, high_watermark=10, low_watermark=10)
        with pytest.raises(ExecutionError, match="subscriber_depth"):
            IngestGateway(window_size=1000, subscriber_depth=0)


class TestBackpressure:
    async def test_busy_when_over_high_watermark_without_wait(self):
        async with IngestGateway(
            window_size=1000, high_watermark=100, low_watermark=10
        ) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            times, values = _signal(n=400)
            # Stuff the backlog without letting the dispatch loop run (no
            # awaits that yield to it between pushes).
            accepted = await gateway.push(cid, "s", times[:150], values[:150], wait=False)
            assert accepted.status is PushStatus.ACCEPTED
            busy = await gateway.push(cid, "s", times[150:300], values[150:300], wait=False)
            assert busy.status is PushStatus.BUSY
            assert not busy
            assert gateway.stats.busy_rejections == 1
            # Once the dispatcher drains the backlog the push goes through.
            await gateway.flush()
            retry = await gateway.push(
                cid, "s", times[150:300], values[150:300], wait=False
            )
            assert retry.status is PushStatus.ACCEPTED

    async def test_waiting_push_throttles_until_drained(self):
        async with IngestGateway(
            window_size=1000,
            high_watermark=100,
            low_watermark=10,
            subscriber_depth=1,
        ) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            subscription = gateway.subscribe(cid)
            times = np.arange(1500, dtype=np.int64) * PERIOD
            values = np.ones(1500)
            # Two windows' worth of samples: the second delivery blocks on
            # the full depth-1 queue, wedging the dispatch loop mid-pass.
            await gateway.push(cid, "s", times[:600], values[:600])
            for _ in range(20):
                await asyncio.sleep(0)
            await gateway.push(cid, "s", times[600:1200], values[600:1200])
            for _ in range(20):
                await asyncio.sleep(0)
            # The dispatcher is stalled delivering; pile the backlog over
            # the high watermark, then start a waiting push.
            await gateway.push(cid, "s", times[1200:1350], values[1200:1350], wait=False)
            assert gateway.backlog(cid) >= 100
            push_task = asyncio.ensure_future(
                gateway.push(cid, "s", times[1350:1500], values[1350:1500])
            )
            for _ in range(20):
                await asyncio.sleep(0)
            assert not push_task.done(), "push did not block on the high watermark"
            assert gateway.stats.throttled_pushes == 1
            # Draining the subscriber lets the dispatcher finish its pass,
            # apply the backlog and resume the throttled producer.
            drained = []

            async def consume():
                async for batch in subscription:
                    drained.append(batch)

            consumer = asyncio.ensure_future(consume())
            result = await asyncio.wait_for(push_task, timeout=10)
            assert result.status is PushStatus.ACCEPTED
            await gateway.disconnect(cid)
            await asyncio.wait_for(consumer, timeout=10)
            assert drained


class TestDeliveryAndSubscribers:
    async def test_subscriber_receives_all_emitted_events(self):
        times, values = _signal()
        reference = _one_shot_reference(times, values)
        async with IngestGateway(window_size=1000) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            subscription = gateway.subscribe(cid)
            received = []

            async def consume():
                async for batch in subscription:
                    assert batch.client_id == cid
                    received.append(batch)

            consumer = asyncio.ensure_future(consume())
            for chunk_times, chunk_values in _chunks(times, values, 700):
                await gateway.push(cid, "s", chunk_times, chunk_values)
            await gateway.disconnect(cid)
            await asyncio.wait_for(consumer, timeout=10)
        got_times = np.concatenate([b.times for b in received])
        got_values = np.concatenate([b.values for b in received])
        got_durations = np.concatenate([b.durations for b in received])
        np.testing.assert_array_equal(got_times, reference.times)
        np.testing.assert_array_equal(got_values, reference.values)
        np.testing.assert_array_equal(got_durations, reference.durations)
        assert gateway.stats.events_delivered == len(reference.times)

    async def test_slow_subscriber_stalls_dispatch_and_throttles_producers(self):
        async with IngestGateway(
            window_size=1000,
            high_watermark=300,
            low_watermark=50,
            subscriber_depth=1,
        ) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            subscription = gateway.subscribe(cid)
            times, values = _signal(n=4000)
            pushed = 0
            busy_seen = False
            for chunk_times, chunk_values in _chunks(times, values, 250):
                result = await gateway.push(
                    cid, "s", chunk_times, chunk_values, wait=False
                )
                if result.status is PushStatus.BUSY:
                    busy_seen = True
                    break
                pushed += len(chunk_times)
                # Yield so the dispatcher runs and fills the depth-1 queue.
                for _ in range(20):
                    await asyncio.sleep(0)
            assert busy_seen, "a depth-1 subscriber never pushed back on producers"
            # Draining the subscriber un-wedges everything.
            drained = []

            async def consume():
                async for batch in subscription:
                    drained.append(batch)

            consumer = asyncio.ensure_future(consume())
            await gateway.disconnect(cid)
            await asyncio.wait_for(consumer, timeout=10)
            assert drained

    async def test_multiple_subscribers_see_the_same_stream(self):
        times, values = _signal(n=3000)
        async with IngestGateway(window_size=1000) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            subscriptions = [gateway.subscribe(cid) for _ in range(3)]
            collected = [[] for _ in subscriptions]

            async def consume(sub, into):
                async for batch in sub:
                    into.append(batch)

            consumers = [
                asyncio.ensure_future(consume(sub, into))
                for sub, into in zip(subscriptions, collected)
            ]
            for chunk_times, chunk_values in _chunks(times, values, 500):
                await gateway.push(cid, "s", chunk_times, chunk_values)
            await gateway.disconnect(cid)
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=10)
        streams = [
            np.concatenate([b.values for b in into]) if into else np.empty(0)
            for into in collected
        ]
        for other in streams[1:]:
            np.testing.assert_array_equal(streams[0], other)


class TestHeartbeatAndStats:
    async def test_advance_flushes_windows_over_silence(self):
        async with IngestGateway(window_size=1000) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            n = 75  # covers [0, 150); the output window needs data through 1000
            times = np.arange(n, dtype=np.int64) * PERIOD
            await gateway.push(cid, "s", times, np.ones(n))
            await gateway.flush()
            session = gateway.service.session(cid)
            assert session.result().times.size == 0
            # Heartbeat: silence through 1200 closes the first output window,
            # emitting the two tumbling means the pushed data covers.
            await gateway.advance(cid, "s", 1200)
            await gateway.flush()
            assert session.result().times.size == 2
            with pytest.raises(ExecutionError, match="behind its pushed data"):
                await gateway.advance(cid, "s", 100)

    async def test_stats_count_pushes_passes_and_latency(self):
        times, values = _signal(n=2000)
        async with IngestGateway(window_size=1000) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            for chunk_times, chunk_values in _chunks(times, values, 400):
                await gateway.push(cid, "s", chunk_times, chunk_values)
            await gateway.flush()
            stats = gateway.stats
            assert stats.pushes == -(-len(times) // 400)
            assert stats.samples == len(times)
            assert stats.ticks >= 1
            assert stats.passes >= 1
            assert stats.p99_tick_seconds >= 0.0
            assert stats.mean_tick_seconds >= 0.0


class TestGatewayParity:
    """The gateway never changes what a session emits — only how it is fed."""

    @pytest.mark.parametrize("chunk", [173, 700, 2500])
    async def test_pushed_stream_matches_one_shot(self, chunk):
        times, values = _signal()
        reference = _one_shot_reference(times, values)
        async with IngestGateway(window_size=1000) as gateway:
            cid = await gateway.connect(_query(), {"s": PERIOD})
            for chunk_times, chunk_values in _chunks(times, values, chunk):
                await gateway.push(cid, "s", chunk_times, chunk_values)
            await gateway.flush()
            session = gateway.service.session(cid)
            session.finish()
            result = session.result()
            np.testing.assert_array_equal(result.times, reference.times)
            np.testing.assert_array_equal(result.values, reference.values)
            np.testing.assert_array_equal(result.durations, reference.durations)

    async def test_many_clients_interleaved_pushes_stay_isolated(self):
        async with IngestGateway(window_size=1000) as gateway:
            streams = {}
            for seed in range(4):
                times, values = _signal(n=3000, seed=seed)
                cid = await gateway.connect(_query(), {"s": PERIOD})
                streams[cid] = (times, values)
            # Interleave chunk pushes across all clients.
            offsets = {cid: 0 for cid in streams}
            pending = set(streams)
            while pending:
                for cid in list(pending):
                    times, values = streams[cid]
                    start = offsets[cid]
                    if start >= len(times):
                        pending.discard(cid)
                        continue
                    await gateway.push(
                        cid, "s", times[start : start + 613], values[start : start + 613]
                    )
                    offsets[cid] = start + 613
            await gateway.flush()
            for cid, (times, values) in streams.items():
                session = gateway.service.session(cid)
                session.finish()
                result = session.result()
                reference = _one_shot_reference(times, values)
                np.testing.assert_array_equal(result.times, reference.times)
                np.testing.assert_array_equal(result.values, reference.values)
