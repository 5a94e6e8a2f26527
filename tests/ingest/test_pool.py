"""Worker-pool suite: dynamic placement, rebalance, and the wire protocol.

Failover under a killed worker has its own module (``test_failover.py``);
this one covers the pool's ordinary life: catalog validation, join-after-
start placement, push/tick round trips, graceful retirement, and parity
with a one-shot run.
"""

import gc
import time

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import SerialBackend
from repro.core.sources import ArraySource
from repro.errors import ExecutionError, StreamDefinitionError
from repro.ingest import IngestWorkerPool, QueryShape, StreamSpec
from repro.ingest.pool import fork_available

PERIOD = 2


def _query():
    return (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .where(lambda v: v > -5)
        .tumbling_window(100)
        .mean()
    )


CATALOG = {"cohort": QueryShape(_query, {"s": StreamSpec(PERIOD)})}


def _signal(n=6000, seed=3):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * PERIOD
    keep = np.ones(n, dtype=bool)
    if n > 600:
        for start in rng.integers(0, n - 500, size=3):
            keep[start : start + int(rng.integers(100, 400))] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return times[keep], values[keep]


def _one_shot_reference(times, values):
    engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
    return engine.run(_query(), sources={"s": ArraySource(times, values, period=PERIOD)})


def _assert_identical(reference, candidate, label=""):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(
        reference.durations, candidate.durations, err_msg=label
    )


class TestPoolLifecycle:
    def test_catalog_is_validated(self):
        with pytest.raises(ExecutionError, match="at least one query"):
            IngestWorkerPool({}, n_workers=1)
        with pytest.raises(ExecutionError, match="n_workers"):
            IngestWorkerPool(CATALOG, n_workers=0)
        with pytest.raises(ExecutionError, match="checkpoint_every_ticks"):
            IngestWorkerPool(CATALOG, n_workers=1, checkpoint_every_ticks=0)

    def test_connect_places_and_rejects_unknowns(self):
        with IngestWorkerPool(CATALOG, n_workers=2) as pool:
            placements = [pool.connect(f"c{i}", "cohort") for i in range(4)]
            # Least-loaded placement spreads clients across both workers.
            assert sorted(set(placements)) == pool.worker_ids
            assert len(pool.client_ids) == 4
            with pytest.raises(ExecutionError, match="already connected"):
                pool.connect("c0", "cohort")
            with pytest.raises(ExecutionError, match="not in the pool's catalog"):
                pool.connect("c9", "nope")

    def test_push_validates_at_the_parent(self):
        with IngestWorkerPool(CATALOG, n_workers=1) as pool:
            pool.connect("c0", "cohort")
            with pytest.raises(ExecutionError, match="no stream 'nope'"):
                pool.push("c0", "nope", [0], [1.0])
            with pytest.raises(StreamDefinitionError, match="periodic grid"):
                pool.push("c0", "s", [3], [1.0])
            pool.push("c0", "s", [0, 2], [1.0, 2.0])
            with pytest.raises(StreamDefinitionError, match="time order"):
                pool.push("c0", "s", [0], [9.0])
            with pytest.raises(ExecutionError, match="no connected client"):
                pool.push("ghost", "s", [0], [1.0])

    def test_join_after_others_are_mid_stream(self):
        times, values = _signal(n=3000)
        with IngestWorkerPool(CATALOG, n_workers=2) as pool:
            pool.connect("early", "cohort")
            pool.push("early", "s", times[:800], values[:800])
            pool.tick()
            # A dynamic join, mid-stream — impossible on the sharded service.
            pool.connect("late", "cohort")
            pool.push("early", "s", times[800:], values[800:])
            pool.push("late", "s", times, values)
            pool.tick()
            pool.finish()
            results = pool.results()
        reference = _one_shot_reference(times, values)
        _assert_identical(reference, results["early"], "early joiner")
        _assert_identical(reference, results["late"], "late joiner")

    def test_add_and_retire_worker_rebalances(self):
        times, values = _signal(n=3000)
        with IngestWorkerPool(CATALOG, n_workers=1) as pool:
            for i in range(3):
                pool.connect(f"c{i}", "cohort")
                pool.push(f"c{i}", "s", times[:900], values[:900])
            pool.tick()
            new_worker = pool.add_worker()
            assert new_worker in pool.worker_ids
            victim = next(wid for wid in pool.worker_ids if wid != new_worker)
            moved = pool.retire_worker(victim)
            assert sorted(moved) == ["c0", "c1", "c2"]
            assert victim not in pool.worker_ids
            for i in range(3):
                assert pool._clients[f"c{i}"].worker_id == new_worker
                pool.push(f"c{i}", "s", times[900:], values[900:])
            pool.tick()
            pool.finish()
            results = pool.results()
        reference = _one_shot_reference(times, values)
        for i in range(3):
            _assert_identical(reference, results[f"c{i}"], f"rebalanced client c{i}")

    def test_pool_parity_with_one_shot(self):
        times, values = _signal()
        with IngestWorkerPool(CATALOG, n_workers=2, checkpoint_every_ticks=2) as pool:
            for seed_id in ("a", "b", "c"):
                pool.connect(seed_id, "cohort")
            for start in range(0, len(times), 700):
                for seed_id in ("a", "b", "c"):
                    pool.push(
                        seed_id,
                        "s",
                        times[start : start + 700],
                        values[start : start + 700],
                    )
                pool.tick()
            pool.finish()
            results = pool.results()
        reference = _one_shot_reference(times, values)
        for seed_id in ("a", "b", "c"):
            _assert_identical(reference, results[seed_id], f"client {seed_id}")

    def test_checkpoints_piggyback_and_truncate_replay(self):
        times, values = _signal()
        with IngestWorkerPool(
            CATALOG, n_workers=1, checkpoint_every_ticks=1, retention_ticks=2000
        ) as pool:
            pool.connect("c0", "cohort")
            for start in range(0, len(times), 500):
                pool.push("c0", "s", times[start : start + 500], values[start : start + 500])
                pool.tick()
            client = pool._clients["c0"]
            assert client.checkpoint is not None, "no cadence checkpoint arrived"
            assert client.checkpoint["format"] == "lifestream-session-checkpoint/v2"
            assert client.checkpoint_watermark is not None
            # The replay log was truncated: it no longer reaches back to the
            # beginning of the stream, only within the retention horizon.
            horizon = client.checkpoint_watermark - pool.retention_ticks
            assert all(entry[4] > horizon for entry in client.replay)
            assert len(client.replay) < len(range(0, len(times), 500))

    def test_heartbeat_is_quiet_when_healthy(self):
        with IngestWorkerPool(CATALOG, n_workers=2) as pool:
            pool.connect("c0", "cohort")
            assert pool.heartbeat() == []
            assert pool.recoveries == []

    def test_closed_pool_rejects_everything(self):
        pool = IngestWorkerPool(CATALOG, n_workers=1)
        pool.connect("c0", "cohort")
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ExecutionError, match="closed"):
            pool.connect("c1", "cohort")
        with pytest.raises(ExecutionError, match="closed"):
            pool.push("c0", "s", [0], [1.0])


#: Armed by a test, inherited by the forked workers: the fragile query's
#: first poisoned window raises once, on whichever worker meets it.
_FUSE = {"armed": False}


def _refuse_poison(v):
    if _FUSE["armed"] and np.any(v > 1e6):
        _FUSE["armed"] = False
        raise ValueError("poisoned sample")
    return v * 2 + 1


def _fragile_query():
    return Query.source("s", frequency_hz=500).select(_refuse_poison)


def _slow_query():
    def slow(v):
        time.sleep(SLEEP_PER_WINDOW)
        return v

    return Query.source("s", frequency_hz=500).select(slow)


SLEEP_PER_WINDOW = 0.2


def _freeze_count_query():
    """Emits, for every sample, how many objects the process that built the
    query had frozen out of its garbage collections at that point."""
    frozen = float(gc.get_freeze_count())
    return Query.source("s", frequency_hz=500).select(lambda v: v * 0.0 + frozen)


@pytest.mark.skipif(not fork_available(), reason="needs forked workers")
class TestScatterGather:
    """Pool-wide commands go to every worker before any reply is read."""

    def test_worker_error_reply_does_not_desync_the_protocol(self):
        # A worker-side failure comes back as an error envelope.  The other
        # worker's reply from the same tick must be drained before the
        # error is raised, or every later command would read a stale reply.
        times, values = _signal(n=3000)
        healthy = ["c0", "c1", "c2"]
        catalog = {**CATALOG, "fragile": QueryShape(_fragile_query, {"s": StreamSpec(PERIOD)})}
        _FUSE["armed"] = True
        try:
            with IngestWorkerPool(catalog, n_workers=2, window_size=1000) as pool:
                pool.connect("bad", "fragile")
                for client_id in healthy:
                    pool.connect(client_id, "cohort")
                assert all(pool.clients_of(worker_id) for worker_id in pool.worker_ids)
                pool.push("bad", "s", times[:800], np.full(800, 1e9))
                for client_id in healthy:
                    pool.push(client_id, "s", times[:800], values[:800])
                with pytest.raises(ExecutionError, match="poisoned sample"):
                    pool.tick()
                for client_id in healthy:
                    pool.push(client_id, "s", times[800:], values[800:])
                report = pool.tick()
                assert sorted(report.ticks) == healthy
                assert len(pool.cache_stats()) == 2
                drained = pool.finish()
                assert sorted(drained.ticks) == ["bad"] + healthy
                results = pool.results()
        finally:
            _FUSE["armed"] = False
        assert sorted(results) == ["bad"] + healthy
        reference = _one_shot_reference(times, values)
        for client_id in healthy:
            _assert_identical(reference, results[client_id], client_id)

    def test_one_compile_per_catalog_shape_on_every_worker(self):
        catalog = {
            **CATALOG,
            "plain": QueryShape(
                lambda: Query.source("s", frequency_hz=500).select(lambda v: v - 1),
                {"s": StreamSpec(PERIOD)},
            ),
        }
        with IngestWorkerPool(catalog, n_workers=2) as pool:
            for index in range(6):
                pool.connect(f"c{index}", "cohort" if index % 2 else "plain")
            late = pool.add_worker()
            pool.connect("late", "cohort", worker_id=late)
            per_worker = pool.cache_stats()
            hosted = [len(pool.clients_of(worker_id)) for worker_id in pool.worker_ids]
        assert len(per_worker) == 3
        # The parent warmed one template per shape before forking; no worker
        # — not even one forked later — ever compiles again.
        assert [stats.misses for stats in per_worker] == [len(catalog)] * 3
        assert [stats.hits for stats in per_worker] == hosted == [3, 3, 1]

    def test_any_pool_wide_command_recovers_a_dead_worker(self):
        # The recover-and-re-route logic lives in the one gather helper, so
        # it covers the commands that used to let a death escape.
        times, values = _signal(n=3000)
        with IngestWorkerPool(CATALOG, n_workers=3, checkpoint_every_ticks=1) as pool:
            for index in range(6):
                pool.connect(f"c{index}", "cohort")
                pool.push(f"c{index}", "s", times[:1500], values[:1500])
            pool.tick()
            first, second, _ = pool.worker_ids
            pool.kill_worker(first)
            assert len(pool.cache_stats()) == 2  # the survivors'
            assert [r["worker_id"] for r in pool.recoveries] == [first]
            pool.kill_worker(second)
            pool.checkpoint_now()  # re-routed to the displaced clients' new host
            assert [r["worker_id"] for r in pool.recoveries] == [first, second]
            assert len(pool.worker_ids) == 1
            for index in range(6):
                pool.push(f"c{index}", "s", times[1500:], values[1500:])
            pool.tick()
            pool.finish()
            results = pool.results()
        reference = _one_shot_reference(times, values)
        for index in range(6):
            _assert_identical(reference, results[f"c{index}"], f"c{index}")

    def test_workers_tick_concurrently(self):
        # The catalog query *sleeps* per window, so two workers overlap
        # even on a one-core runner.  Ticking both must cost about what
        # ticking one costs, not the sum.
        windows = 2
        n = windows * 500
        times = np.arange(2 * n, dtype=np.int64) * PERIOD
        values = np.ones(2 * n)
        catalog = {"slow": QueryShape(_slow_query, {"s": StreamSpec(PERIOD)})}

        def timed_tick(pool, client_ids, chunk):
            for client_id in client_ids:
                pool.push(client_id, "s", times[chunk], values[chunk])
            began = time.perf_counter()
            report = pool.tick()
            elapsed = time.perf_counter() - began
            assert report.windows_run == windows * len(client_ids)
            return elapsed

        # Serial: the sleep is per window, and run execution would call the
        # kernel once per run.
        with IngestWorkerPool(
            catalog, n_workers=2, window_size=1000, backend=SerialBackend()
        ) as pool:
            assert pool.connect("a", "slow") != pool.connect("b", "slow")
            both = timed_tick(pool, ["a", "b"], slice(0, n))
            alone = timed_tick(pool, ["a"], slice(n, 2 * n))
        assert alone >= windows * SLEEP_PER_WINDOW
        assert both < 1.5 * alone, (
            f"two workers took {both:.2f}s for one tick, one worker {alone:.2f}s: "
            f"the workers are not running concurrently"
        )

    def test_workers_leave_the_inherited_heap_out_of_collections(self):
        """A forked worker freezes the heap it inherits, so none of its
        garbage collections walks (and copies) the parent's pages inside a
        tick; the parent's collector is left as it was."""
        before = gc.get_freeze_count()
        catalog = {"frozen": QueryShape(_freeze_count_query, {"s": StreamSpec(PERIOD)})}
        times, values = _signal(n=1000)
        with IngestWorkerPool(catalog, n_workers=1) as pool:
            pool.connect("c", "frozen")
            pool.push("c", "s", times, values)
            pool.finish()
            result = pool.results()["c"]
        assert gc.get_freeze_count() == before
        assert result.values.size and (result.values > before).all()
