"""Failover parity: kill a worker, restore on a peer, lose nothing.

The acceptance bar of the ingest subsystem: after SIGKILLing a worker
mid-stream, every displaced session is restored on a surviving peer from
its latest cadence checkpoint plus the replayed post-checkpoint pushes,
and the emitted event stream is *bit-identical* to an undisturbed run —
zero lost events, zero duplicated events.  Checked across the serial and
vectorized execution backends.
"""

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import SerialBackend
from repro.core.sources import ArraySource
from repro.ingest import IngestWorkerPool, QueryShape, StreamSpec
from repro.ingest.pool import fork_available
from repro.pipelines.common import backend_from_name

PERIOD = 2
CHUNK = 600
N_CLIENTS = 6


def _query():
    return (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .where(lambda v: v > -5)
        .tumbling_window(100)
        .mean()
    )


CATALOG = {"cohort": QueryShape(_query, {"s": StreamSpec(PERIOD)})}

BACKENDS = ("serial", "vectorized")


def _signal(n=6000, seed=3):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * PERIOD
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 500, size=3):
        keep[start : start + int(rng.integers(100, 400))] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return times[keep], values[keep]


def _reference_results(streams):
    results = {}
    for client_id, (times, values) in streams.items():
        engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
        results[client_id] = engine.run(
            _query(), sources={"s": ArraySource(times, values, period=PERIOD)}
        )
    return results


def _streams():
    return {
        f"patient-{i}": _signal(seed=10 + i) for i in range(N_CLIENTS)
    }


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(
        reference.durations, candidate.durations, err_msg=label
    )


def _run_with_failure(streams, backend_name, kill_after_round, detect="heartbeat"):
    """Stream everything through a 2-worker pool, killing one mid-flight."""
    pool = IngestWorkerPool(
        CATALOG,
        n_workers=2,
        checkpoint_every_ticks=2,
        window_size=1000,
        backend=backend_from_name(backend_name),
    )
    try:
        for client_id in streams:
            pool.connect(client_id, "cohort")
        victim = pool.worker_ids[0]
        displaced = pool.clients_of(victim)
        assert displaced, "the victim worker must host someone for the test to bite"
        rounds = max(
            (len(times) + CHUNK - 1) // CHUNK for times, _ in streams.values()
        )
        for round_index in range(rounds):
            start = round_index * CHUNK
            for client_id, (times, values) in streams.items():
                pool.push(
                    client_id,
                    "s",
                    times[start : start + CHUNK],
                    values[start : start + CHUNK],
                )
            if round_index == kill_after_round:
                pool.kill_worker(victim)
                if detect == "heartbeat":
                    recovered = pool.heartbeat()
                    assert recovered == [victim]
                # detect == "tick": the tick below hits the dead pipe and
                # recovers inline — nothing else to do here.
            pool.tick()
        pool.finish()
        results = pool.results()
        record = pool.recoveries
        assert len(record) == 1 and record[0]["worker_id"] == victim
        assert sorted(record[0]["clients"]) == sorted(displaced)
        assert victim not in pool.worker_ids
        return results
    finally:
        pool.close()


@pytest.mark.skipif(not fork_available(), reason="needs fork for real worker death")
class TestKilledWorkerFailover:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_bit_identical_recovery_after_heartbeat_detection(self, backend_name):
        streams = _streams()
        reference = _reference_results(streams)
        results = _run_with_failure(streams, backend_name, kill_after_round=3)
        assert sorted(results) == sorted(streams)
        for client_id in streams:
            _assert_identical(
                reference[client_id],
                results[client_id],
                f"{backend_name}: client {client_id} after failover",
            )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_mid_tick_death_is_recovered_inline(self, backend_name):
        streams = _streams()
        reference = _reference_results(streams)
        results = _run_with_failure(
            streams, backend_name, kill_after_round=1, detect="tick"
        )
        for client_id in streams:
            _assert_identical(
                reference[client_id],
                results[client_id],
                f"{backend_name}: client {client_id} after mid-tick death",
            )

    def test_death_before_any_checkpoint_replays_from_scratch(self):
        streams = _streams()
        reference = _reference_results(streams)
        # Killing during round 0 means no cadence checkpoint exists yet:
        # recovery must rebuild the sessions purely from the replay log.
        results = _run_with_failure(streams, "serial", kill_after_round=0)
        for client_id in streams:
            _assert_identical(
                reference[client_id],
                results[client_id],
                f"client {client_id} restored with no checkpoint",
            )

    def test_death_between_scatter_and_gather_keeps_the_survivors_replies(self):
        # The victim is SIGKILLed right after its batch was sent — while
        # the other worker's batch is still to be sent and both replies are
        # outstanding.  The survivor's reply from that same tick (its
        # report and its cadence checkpoints) must still be harvested, and
        # only then is the victim recovered.
        streams = _streams()
        reference = _reference_results(streams)
        pool = IngestWorkerPool(
            CATALOG, n_workers=2, checkpoint_every_ticks=1, window_size=1000
        )
        try:
            for client_id in streams:
                pool.connect(client_id, "cohort")
            victim_id, survivor_id = pool.worker_ids
            survivors = pool.clients_of(survivor_id)
            victim = pool._workers[victim_id]
            send = victim.send

            def send_then_die(command, payload):
                send(command, payload)
                victim.kill()

            rounds = max((len(times) + CHUNK - 1) // CHUNK for times, _ in streams.values())
            for round_index in range(rounds):
                start = round_index * CHUNK
                for client_id, (times, values) in streams.items():
                    pool.push(
                        client_id, "s", times[start : start + CHUNK], values[start : start + CHUNK]
                    )
                if round_index != 2:
                    pool.tick()
                    continue
                victim.send = send_then_die
                report = pool.tick()
                # (The victim's own reply is there too in the rare run where
                # it answered before the signal landed; its death is then
                # found by the next tick instead.)
                assert set(survivors) <= set(report.order)
                for client_id in survivors:
                    client = pool._clients[client_id]
                    assert client.checkpoint_watermark == client.pushed_through["s"], (
                        f"{client_id}'s checkpoint from the tick the victim died in was lost"
                    )
            pool.finish()
            results = pool.results()
            assert [r["worker_id"] for r in pool.recoveries] == [victim_id]
            assert pool.worker_ids == [survivor_id]
        finally:
            pool.close()
        for client_id in streams:
            _assert_identical(
                reference[client_id], results[client_id], f"{client_id} after mid-gather death"
            )

    def test_every_worker_dead_spawns_a_replacement(self):
        streams = {"solo": _signal(seed=42)}
        pool = IngestWorkerPool(
            CATALOG, n_workers=1, checkpoint_every_ticks=2, window_size=1000
        )
        try:
            pool.connect("solo", "cohort")
            times, values = streams["solo"]
            pool.push("solo", "s", times[:2000], values[:2000])
            pool.tick()
            only_worker = pool.worker_ids[0]
            pool.kill_worker(only_worker)
            assert pool.heartbeat() == [only_worker]
            assert pool.worker_ids, "a replacement worker should have spawned"
            pool.push("solo", "s", times[2000:], values[2000:])
            pool.tick()
            pool.finish()
            results = pool.results()
        finally:
            pool.close()
        reference = _reference_results(streams)
        _assert_identical(reference["solo"], results["solo"], "sole client")


class TestLocalWorkerFailover:
    """The in-process fallback loses state on kill() exactly like a dead
    process, so failover is testable without fork."""

    def test_local_kill_and_restore(self, monkeypatch):
        import repro.ingest.pool as pool_module

        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        streams = {"p0": _signal(seed=1), "p1": _signal(seed=2)}
        reference = _reference_results(streams)
        pool = IngestWorkerPool(
            CATALOG, n_workers=2, checkpoint_every_ticks=2, window_size=1000
        )
        try:
            assert pool.execution_mode == "in-process"
            for client_id in streams:
                pool.connect(client_id, "cohort")
            victim = pool.worker_ids[0]
            for client_id, (times, values) in streams.items():
                pool.push(client_id, "s", times[:3000], values[:3000])
            pool.tick()
            pool.kill_worker(victim)
            assert pool.heartbeat() == [victim]
            for client_id, (times, values) in streams.items():
                pool.push(client_id, "s", times[3000:], values[3000:])
            pool.tick()
            pool.finish()
            results = pool.results()
        finally:
            pool.close()
        for client_id in streams:
            _assert_identical(
                reference[client_id], results[client_id], f"local {client_id}"
            )
