"""Streaming-session suite: incremental parity, checkpointing, lifecycle.

The core guarantee of :class:`~repro.core.runtime.session.StreamingSession`
is that tick-by-tick execution over an advancing watermark emits exactly
the events a one-shot batch run over the same final coverage emits —
bit-identical times, values and durations — including when a session is
checkpointed mid-stream and restored onto a freshly compiled plan.
"""

import gc

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.runtime.session import TickStats
from repro.core.sources import ArraySource, ReplaySource
from repro.errors import ExecutionError


def _signal(n=6000, period=2, seed=3):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * period
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 500, size=3):
        keep[start : start + int(rng.integers(100, 400))] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return times[keep], values[keep]


def _source(period=2, seed=3):
    times, values = _signal(period=period, seed=seed)
    return ArraySource(times, values, period=period)


#: Queries covering every kind of cross-tick carry state: element-wise
#: chains (fusion), Shift FIFOs (within one window and across several),
#: sliding-aggregate tails, join carries over
#: multicast fan-out, chop carries, and a non-batch-safe interpolation (the
#: vectorized backend's per-node window-by-window fallback).
SESSION_QUERIES = {
    "elementwise": lambda: (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .where(lambda v: v > -5)
    ),
    "shift-chain": lambda: (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v + 0.5)
        .shift(1000)
        .where(lambda v: np.abs(v) < 9)
    ),
    # A shift three windows long: its FIFO carries samples across several
    # ticks, and through every checkpoint taken while they are in flight.
    "long-shift": lambda: (
        Query.source("s", frequency_hz=500).select(lambda v: v).shift(3000)
    ),
    "sliding": lambda: (
        Query.source("s", frequency_hz=500).sliding_window(200, 100).max()
    ),
    "multicast-join": lambda: Query.source("s", frequency_hz=500).multicast(
        lambda s: s.select(lambda v: v)
        .join(s.tumbling_window(100).mean(), lambda v, m: v - m)
    ),
    "chop": lambda: (
        Query.source("s", frequency_hz=500).tumbling_window(500).mean().chop(10)
    ),
    "resample-interpolate": lambda: (
        Query.source("s", frequency_hz=500).resample(period=1, mode="interpolate")
    ),
}

SESSION_BACKENDS = {
    "serial": lambda: SerialBackend(),
    # Tiny run cap: multi-window ticks split into several runs, so every
    # carry type crosses run boundaries inside a tick.
    "vectorized-3": lambda: VectorizedBackend(max_run_windows=3),
    # Every run a single window, as on isolated-window coverage.
    "vectorized-1": lambda: VectorizedBackend(max_run_windows=1),
}

#: Irregular watermark schedule: > 3 advances, not window-aligned, with a
#: no-new-data repeat in the middle.
WATERMARKS = (777, 2500, 2500, 4211, 7000, 9999, 11000)


def _assert_identical(reference, candidate, label=""):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


def _run_session(query, targeted, backend, watermarks=WATERMARKS, checkpoint_at=None,
                 checkpoint_path=None):
    """Drive a session over *watermarks*; optionally checkpoint/restore mid-way."""
    engine = LifeStreamEngine(window_size=1000, backend=backend)
    session = engine.open_session(
        query(), {"s": ReplaySource(_source())}, targeted=targeted
    )
    for index, watermark in enumerate(watermarks):
        session.advance(watermark)
        if checkpoint_at is not None and index == checkpoint_at:
            session.checkpoint(checkpoint_path)
            session.close()
            # Simulate a crash: fresh compile, fresh replay source, restore.
            session = engine.open_session(
                query(),
                {"s": ReplaySource(_source())},
                targeted=targeted,
                checkpoint=checkpoint_path,
            )
    session.finish()
    result = session.result()
    session.close()
    return result, session


class TestSessionParity:
    @pytest.mark.parametrize("query_name", sorted(SESSION_QUERIES))
    @pytest.mark.parametrize("backend_name", sorted(SESSION_BACKENDS))
    @pytest.mark.parametrize("targeted", [True, False])
    def test_incremental_matches_one_shot(self, query_name, backend_name, targeted):
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            SESSION_QUERIES[query_name](), {"s": _source()}, targeted=targeted
        )
        result, _ = _run_session(
            SESSION_QUERIES[query_name], targeted, SESSION_BACKENDS[backend_name]()
        )
        _assert_identical(
            reference, result, f"{query_name} on {backend_name} targeted={targeted}"
        )

    def test_single_big_advance_matches_many_small_ones(self):
        query = SESSION_QUERIES["multicast-join"]
        coarse, _ = _run_session(query, True, None, watermarks=(30000,))
        fine, _ = _run_session(query, True, None, watermarks=tuple(range(500, 30000, 500)))
        _assert_identical(coarse, fine)

    def test_windows_straddling_watermark_are_deferred(self):
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(
            SESSION_QUERIES["elementwise"](), {"s": ReplaySource(_source())}
        )
        tick = session.advance(1500)  # half of the second window visible
        assert tick.windows_run == 1
        assert tick.windows_deferred >= 1
        assert session.frontier == 0
        tick = session.advance(2000)
        assert tick.windows_run == 1
        assert session.frontier == 1000
        session.close()

    @pytest.mark.parametrize("backend", [SerialBackend(), VectorizedBackend()],
                             ids=["serial", "vectorized"])
    def test_one_shot_over_unfinished_replay_runs_only_ready_windows(self, backend):
        """A one-shot over a replayed source short of its end returns what a
        session at the same watermark emits: the window whose input crosses
        the watermark waits.  Once the source is at its end it drains."""
        times = np.arange(6000, dtype=np.int64) * 2  # 12 s at 500 Hz
        values = np.sin(np.arange(6000) * 0.01) * 10
        query = Query.source("s", frequency_hz=500).tumbling_window(1000).mean()
        engine = LifeStreamEngine(window_size=1000, backend=backend)
        replay = ReplaySource(ArraySource(times, values, period=2), watermark=4500)
        compiled = engine.compile(query, {"s": replay})
        one_shot = compiled.run()
        session = compiled.open_session()
        assert session.advance(4500).windows_deferred == 1
        _assert_identical(session.result(), one_shot)
        assert one_shot.times.tolist() == [0, 1000, 2000, 3000]
        session.close()
        replay.advance_to_end()
        full = engine.run(query, {"s": ArraySource(times, values, period=2)})
        _assert_identical(full, compiled.run())
        assert full.times[-1] == 11000

    def test_tick_instrumentation(self):
        engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
        session = engine.open_session(
            SESSION_QUERIES["sliding"](), {"s": ReplaySource(_source())}
        )
        ticks = [session.advance(watermark) for watermark in WATERMARKS]
        ticks.append(session.finish())
        result = session.result()
        session.close()
        # One per advance + finish.
        assert session.tick_count == len(ticks) == len(WATERMARKS) + 1
        assert [t.index for t in ticks] == list(range(1, len(ticks) + 1))
        assert ticks[-1].cumulative_events == len(result)
        assert ticks[-1].cumulative_windows == result.stats.output_windows
        assert all(t.plan_seconds >= 0 and t.execute_seconds >= 0 for t in ticks)
        assert all(t.backend == "serial" for t in ticks)
        # The no-new-data repeat advance must run nothing.
        assert ticks[2].windows_run == 0

    def test_session_retains_no_tick_records(self):
        # A session counts its ticks and keeps none of their records, so a
        # long-lived stream's footprint does not grow with its age.
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(
            SESSION_QUERIES["sliding"](), {"s": ReplaySource(_source())}
        )

        def live_records():
            gc.collect()
            return sum(isinstance(obj, TickStats) for obj in gc.get_objects())

        for tick in range(1, 41):
            session.advance(25 * tick)
        after_40 = live_records()
        for tick in range(41, 401):
            session.advance(25 * tick)
        assert session.tick_count == 400
        assert live_records() == after_40
        session.close()

    def test_cumulative_events_matches_result_after_every_tick(self):
        # The counter is kept incrementally (not re-summed from the emitted
        # chunks), so it must be re-seeded where a session adopts another
        # session's output: checkpoint restore.
        query = SESSION_QUERIES["sliding"]
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(query(), {"s": ReplaySource(_source())})

        def check(tick):
            assert tick.cumulative_events == len(session.result())

        for watermark in WATERMARKS[:3]:
            check(session.advance(watermark))
        state = session.checkpoint()
        session.close()
        session = engine.open_session(
            query(), {"s": ReplaySource(_source())}, checkpoint=state
        )
        for watermark in WATERMARKS[3:]:
            check(session.advance(watermark))
        check(session.finish())
        check(session.finish())  # the idempotent empty tick
        assert len(session.result()) > 0
        session.close()

    def test_static_sources_drain_on_first_poll(self):
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(SESSION_QUERIES["elementwise"](), {"s": _source()})
        session.poll()
        session.finish()
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            SESSION_QUERIES["elementwise"](), {"s": _source()}
        )
        _assert_identical(reference, session.result())
        session.close()


# -- long-lived sessions ------------------------------------------------------

#: Ticks of the long replay (one 997-tick watermark step each; every tick
#: after the first plans from the emission frontier, not from time zero).
LONG_TICKS = 520


def _long_gappy_signal():
    """520 s at 500 Hz with gaps from 60 ms (inside a window) to 5.2 s
    (several windows, so some ticks see no coverage past the frontier)."""
    n = LONG_TICKS * 500
    rng = np.random.default_rng(11)
    keep = np.ones(n, dtype=bool)
    cursor = 0
    while cursor < n:
        cursor += int(rng.integers(200, 4000))
        gap = int(rng.choice([30, 300, 800, 2600]))
        keep[cursor : cursor + gap] = False
        cursor += gap
    times = np.arange(n, dtype=np.int64) * 2
    values = np.sin(np.arange(n) * 0.01) * 10
    return times[keep], values[keep]


LONG_SIGNAL = _long_gappy_signal()

#: Plans whose coverage propagation reaches back along the input: a Shift
#: carry, and a stretched duration joined against a sliding aggregate.
LONG_QUERIES = {
    "shift-chain": SESSION_QUERIES["shift-chain"],
    "stretch-join-sliding": lambda: Query.source("s", frequency_hz=500).multicast(
        lambda s: s.alter_duration(2).join(
            s.sliding_window(400, 200).mean(), lambda v, m: v - m
        )
    ),
}


def _long_source():
    return ArraySource(*LONG_SIGNAL, period=2)


def _comparable(stats, per_node=True):
    """The ExecutionStats fields a session must share with a one-shot run
    (node names are generated per compile, so windows compare by position;
    per-node counters restart on a fresh plan, hence *per_node*)."""
    fields = (
        stats.output_windows,
        stats.windows_skipped,
        stats.events_emitted,
        stats.events_ingested,
        stats.targeted,
    )
    if per_node:
        fields += (stats.windows_computed, tuple(stats.per_node_windows.values()))
    return fields


class TestLongLivedSessions:
    @pytest.mark.parametrize("targeted", [True, False], ids=["targeted", "eager"])
    @pytest.mark.parametrize("backend_name", sorted(SESSION_BACKENDS))
    @pytest.mark.parametrize("query_name", sorted(LONG_QUERIES))
    def test_long_gappy_stream_matches_one_shot(self, query_name, backend_name, targeted):
        query = LONG_QUERIES[query_name]
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query(), {"s": _long_source()}, targeted=targeted
        )
        watermarks = [997 * tick for tick in range(1, LONG_TICKS + 1)]

        engine = LifeStreamEngine(window_size=1000, backend=SESSION_BACKENDS[backend_name]())
        session = engine.open_session(
            query(), {"s": ReplaySource(_long_source())}, targeted=targeted
        )
        for watermark in watermarks:
            session.advance(watermark)
        session.finish()
        plain = session.result()
        session.close()
        assert session.tick_count > 500
        _assert_identical(reference, plain, f"{query_name} on {backend_name}")
        assert _comparable(plain.stats) == _comparable(reference.stats)

        # The same stream with a crash (checkpoint, fresh compile, restore)
        # a third of the way in.
        session = engine.open_session(
            query(), {"s": ReplaySource(_long_source())}, targeted=targeted
        )
        for tick, watermark in enumerate(watermarks):
            session.advance(watermark)
            if tick == LONG_TICKS // 3:
                state = session.checkpoint()
                session.close()
                session = engine.open_session(
                    query(), {"s": ReplaySource(_long_source())},
                    targeted=targeted, checkpoint=state,
                )
        session.finish()
        interrupted = session.result()
        session.close()
        _assert_identical(reference, interrupted, f"{query_name} on {backend_name} (interrupted)")
        assert _comparable(interrupted.stats, per_node=False) == _comparable(
            reference.stats, per_node=False
        )


class TestTwoSourceSessions:
    """Joins over two replayed streams whose watermarks advance independently."""

    @staticmethod
    def _two_source_query():
        left = Query.source("left", frequency_hz=500).select(lambda v: v * 2)
        right = Query.source("right", period=8).tumbling_window(400).mean()
        return left.join(right, lambda lv, rv: lv - rv)

    def _sources(self, replay):
        left_times, left_values = _signal(period=2, seed=11)
        right_times, right_values = _signal(n=1500, period=8, seed=12)
        left = ArraySource(left_times, left_values, period=2)
        right = ArraySource(right_times, right_values, period=8)
        if replay:
            return {"left": ReplaySource(left), "right": ReplaySource(right)}
        return {"left": left, "right": right}

    def test_uneven_watermarks_match_one_shot(self):
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            self._two_source_query(), self._sources(replay=False)
        )
        engine = LifeStreamEngine(window_size=1000)
        sources = self._sources(replay=True)
        session = engine.open_session(self._two_source_query(), sources)
        # The two ingestion clocks drift apart and leapfrog each other; the
        # session may only emit windows both streams fully cover.
        schedule = [(1000, 300), (2500, 2600), (2600, 5000), (7000, 7000), (9000, 12000)]
        for left_watermark, right_watermark in schedule:
            sources["left"].advance(left_watermark)
            sources["right"].advance(right_watermark)
            tick = session.poll()
            lagging = min(left_watermark, right_watermark)
            assert tick.watermark == lagging
            if session.frontier is not None:
                # No emitted window may reach past the lagging stream's clock.
                assert session.frontier + 1000 <= lagging
        session.finish()
        _assert_identical(reference, session.result(), "uneven two-source watermarks")
        session.close()


class TestSessionCheckpoint:
    @pytest.mark.parametrize("query_name", sorted(SESSION_QUERIES))
    def test_checkpoint_restore_round_trip(self, query_name, tmp_path):
        """Kill/checkpoint/restore mid-stream reproduces the one-shot output."""
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            SESSION_QUERIES[query_name](), {"s": _source()}
        )
        result, _ = _run_session(
            SESSION_QUERIES[query_name],
            True,
            None,
            checkpoint_at=3,
            checkpoint_path=tmp_path / "session.ckpt",
        )
        _assert_identical(reference, result, f"{query_name} checkpoint round trip")

    def test_checkpoint_restore_vectorized(self, tmp_path):
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            SESSION_QUERIES["shift-chain"](), {"s": _source()}
        )
        result, _ = _run_session(
            SESSION_QUERIES["shift-chain"],
            True,
            VectorizedBackend(max_run_windows=3),
            checkpoint_at=3,
            checkpoint_path=tmp_path / "session.ckpt",
        )
        _assert_identical(reference, result, "vectorized checkpoint round trip")

    def test_checkpoint_dict_round_trip_without_disk(self):
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(
            SESSION_QUERIES["sliding"](), {"s": ReplaySource(_source())}
        )
        session.advance(5000)
        state = session.checkpoint()
        session.close()
        restored = engine.open_session(
            SESSION_QUERIES["sliding"](),
            {"s": ReplaySource(_source())},
            checkpoint=state,
        )
        restored.finish()
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            SESSION_QUERIES["sliding"](), {"s": _source()}
        )
        _assert_identical(reference, restored.result())
        restored.close()

    def test_mismatched_geometry_rejected(self):
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(
            SESSION_QUERIES["elementwise"](), {"s": ReplaySource(_source())}
        )
        session.advance(3000)
        state = session.checkpoint()
        session.close()
        other = LifeStreamEngine(window_size=2000)
        with pytest.raises(ExecutionError, match="window_size"):
            other.open_session(
                SESSION_QUERIES["elementwise"](),
                {"s": ReplaySource(_source())},
                checkpoint=state,
            )

    def test_mismatched_query_rejected(self):
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(
            SESSION_QUERIES["elementwise"](), {"s": ReplaySource(_source())}
        )
        session.advance(3000)
        state = session.checkpoint()
        session.close()
        with pytest.raises(ExecutionError, match="operator"):
            engine.open_session(
                SESSION_QUERIES["sliding"](),
                {"s": ReplaySource(_source())},
                checkpoint=state,
            )

    def test_unrecognised_format_rejected(self):
        engine = LifeStreamEngine(window_size=1000)
        with pytest.raises(ExecutionError, match="format"):
            engine.open_session(
                SESSION_QUERIES["elementwise"](),
                {"s": ReplaySource(_source())},
                checkpoint={"format": "something-else"},
            )


class TestCheckpointDurability:
    """Crash-safety of the on-disk checkpoint path (failover depends on it)."""

    def _open(self, engine, **kwargs):
        return engine.open_session(
            SESSION_QUERIES["sliding"](), {"s": ReplaySource(_source())}, **kwargs
        )

    def test_truncated_checkpoint_raises_a_clear_error(self, tmp_path):
        engine = LifeStreamEngine(window_size=1000)
        session = self._open(engine)
        session.advance(5000)
        path = tmp_path / "session.ckpt"
        session.checkpoint(path)
        session.close()
        # Truncate the file to simulate a torn write from a non-atomic writer.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ExecutionError, match="truncated or corrupt"):
            self._open(engine, checkpoint=path)
        # A file that unpickles to a non-dict is equally rejected.
        import pickle

        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ExecutionError, match="does not hold a checkpoint"):
            self._open(engine, checkpoint=path)

    def test_atomic_write_survives_injected_crash(self, tmp_path, monkeypatch):
        engine = LifeStreamEngine(window_size=1000)
        session = self._open(engine)
        session.advance(4000)
        path = tmp_path / "session.ckpt"
        session.checkpoint(path)
        good = path.read_bytes()
        session.advance(7000)

        import pickle as pickle_module

        real_dump = pickle_module.dump

        def torn_dump(obj, handle, *args, **kwargs):
            # Write garbage bytes, then die mid-checkpoint.
            handle.write(b"partial checkpoint bytes")
            raise OSError("injected crash mid-checkpoint")

        monkeypatch.setattr("repro.core.runtime.session.pickle.dump", torn_dump)
        with pytest.raises(OSError, match="injected crash"):
            session.checkpoint(path)
        monkeypatch.setattr("repro.core.runtime.session.pickle.dump", real_dump)
        # The previous checkpoint is untouched: same bytes, still restorable,
        # and no temp-file debris is left next to it.
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["session.ckpt"]
        session.close()
        restored = self._open(engine, checkpoint=path)
        assert restored.watermark == 4000
        restored.close()

    def test_checkpoint_hook_fires_on_cadence(self):
        engine = LifeStreamEngine(window_size=1000)
        session = self._open(engine)
        seen = []
        session.set_checkpoint_hook(seen.append, every_ticks=2)
        for watermark in (2000, 4000, 6000, 8000, 9000):
            session.advance(watermark)
        # 5 ticks at cadence 2 -> checkpoints after ticks 2 and 4.
        assert len(seen) == 2
        assert all(state["format"] == "lifestream-session-checkpoint/v1" for state in seen)
        assert seen[0]["watermarks"]["s"] == 4000
        assert seen[1]["watermarks"]["s"] == 8000
        # finish() drains in one more tick -> the 6th tick completes cadence 3.
        session.finish()
        assert len(seen) == 3 and seen[2]["watermarks"]["s"] >= 9000
        session.close()

    def test_checkpoint_hook_state_restores_bit_identically(self):
        reference, _ = _run_session(SESSION_QUERIES["sliding"], True, SerialBackend())
        engine = LifeStreamEngine(window_size=1000)
        session = self._open(engine, targeted=True)
        states = []
        session.set_checkpoint_hook(states.append, every_ticks=1)
        for watermark in WATERMARKS[:4]:
            session.advance(watermark)
        session.close()
        # Restore from the cadence hook's latest snapshot and keep going.
        restored = self._open(engine, targeted=True, checkpoint=states[-1])
        for watermark in WATERMARKS[4:]:
            restored.advance(watermark)
        restored.finish()
        _assert_identical(reference, restored.result(), "cadence-hook restore")
        restored.close()

    def test_checkpoint_hook_rejects_bad_cadence(self):
        engine = LifeStreamEngine(window_size=1000)
        session = self._open(engine)
        with pytest.raises(ExecutionError, match="cadence"):
            session.set_checkpoint_hook(lambda state: None, every_ticks=0)
        # Uninstalling is allowed regardless of the cadence argument.
        session.set_checkpoint_hook(None, every_ticks=0)
        session.close()


class TestSessionLifecycle:
    def test_one_shot_run_rejected_while_session_open(self):
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(SESSION_QUERIES["elementwise"](), {"s": _source()})
        session = compiled.open_session()
        with pytest.raises(ExecutionError, match="open StreamingSession"):
            compiled.run()
        session.close()
        assert len(compiled.run()) > 0

    def test_only_one_session_per_compiled_query(self):
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(SESSION_QUERIES["elementwise"](), {"s": _source()})
        session = compiled.open_session()
        with pytest.raises(ExecutionError, match="already has"):
            compiled.open_session()
        session.close()

    def test_failed_second_open_does_not_corrupt_live_session(self):
        # Regression: the rejected open used to reset the shared plan's
        # operator carries before the exclusivity check fired.
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            SESSION_QUERIES["shift-chain"](), {"s": _source()}
        )
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(
            SESSION_QUERIES["shift-chain"](), {"s": ReplaySource(_source())}
        )
        session = compiled.open_session()
        session.advance(5000)
        with pytest.raises(ExecutionError, match="already has"):
            compiled.open_session()
        session.finish()
        _assert_identical(reference, session.result(), "after rejected second open")
        session.close()

    def test_failed_checkpoint_restore_releases_the_plan(self):
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(
            SESSION_QUERIES["elementwise"](), {"s": ReplaySource(_source())}
        )
        with pytest.raises(ExecutionError, match="format"):
            compiled.open_session(checkpoint={"format": "bogus"})
        # The failed constructor must not leave a dangling owner behind.
        session = compiled.open_session()
        session.finish()
        session.close()

    @pytest.mark.parametrize("backend", [SerialBackend(), VectorizedBackend()],
                             ids=["serial", "vectorized"])
    def test_failed_run_releases_the_plan(self, backend):
        # A one-shot run is a session drained in one tick: when an operator
        # raises, that session must still let go of the plan, so the next
        # run and the next session start afresh.
        armed = {"raise": True}

        def fragile(values):
            if armed["raise"]:
                raise RuntimeError("user function failed")
            return values + 1.0

        def query():
            return SESSION_QUERIES["shift-chain"]().select(fragile)

        engine = LifeStreamEngine(window_size=1000, backend=backend)
        compiled = engine.compile(query(), {"s": _source()})
        with pytest.raises(RuntimeError, match="user function failed"):
            compiled.run()
        armed["raise"] = False
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query(), {"s": _source()}
        )
        _assert_identical(reference, compiled.run(), "run after a failed run")
        session = compiled.open_session()
        session.finish()
        _assert_identical(reference, session.result(), "session after a failed run")
        session.close()

    def test_watermark_regression_rejected(self):
        # Regression: a watermark behind a source's clock used to be silently
        # ignored; it must raise, while re-announcing the current watermark
        # stays an idempotent no-op tick.
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(
            SESSION_QUERIES["elementwise"](), {"s": ReplaySource(_source())}
        )
        first = session.advance(5000)
        assert first.windows_run > 0
        with pytest.raises(ExecutionError, match="regression"):
            session.advance(3000)
        # The failed advance must not have moved any source.
        assert session.watermark == 5000
        repeat = session.advance(5000)
        assert repeat.windows_run == 0
        assert repeat.events_emitted == 0
        session.finish()
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            SESSION_QUERIES["elementwise"](), {"s": _source()}
        )
        _assert_identical(reference, session.result(), "after rejected regression")
        session.close()

    @pytest.mark.parametrize("backend", [SerialBackend(), VectorizedBackend()],
                             ids=["serial", "vectorized"])
    @pytest.mark.parametrize("kind", ["shift-chain", "elementwise"])
    def test_execution_error_after_a_carry_moved_breaks_the_session(self, kind, backend):
        # A tick that raises mid-execution may leave carries moved without
        # a commit (the shift's FIFO runs before the failing select), so a
        # stateful session refuses to go on rather than run the same
        # windows twice; a stateless one plans them afresh.
        armed = {"raise": False}

        def fragile(values):
            if armed["raise"]:
                raise RuntimeError("user function failed")
            return values + 1.0

        def query():
            return SESSION_QUERIES[kind]().select(fragile)

        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query(), {"s": _source()}
        )
        engine = LifeStreamEngine(window_size=1000, backend=backend)
        session = engine.open_session(query(), {"s": ReplaySource(_source())})
        session.advance(4000)
        saved = session.checkpoint()
        armed["raise"] = True
        try:
            with pytest.raises(RuntimeError, match="user function failed"):
                session.advance(7000)
        finally:
            armed["raise"] = False
        if kind == "shift-chain":
            for call in (session.poll, session.finish, session.checkpoint,
                         lambda: session.advance(8000)):
                with pytest.raises(ExecutionError, match="failed mid-execution"):
                    call()
            session.close()
            session = engine.open_session(
                query(), {"s": ReplaySource(_source())}, checkpoint=saved
            )
        session.advance(12000)
        session.finish()
        _assert_identical(reference, session.result(), f"{kind} after a failed tick")
        session.close()

    def test_advance_after_finish_rejected(self):
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(
            SESSION_QUERIES["elementwise"](), {"s": ReplaySource(_source())}
        )
        session.finish()
        with pytest.raises(ExecutionError, match="finished"):
            session.advance(99999)
        # finish is idempotent and runs nothing further.
        assert session.finish().windows_run == 0
        session.close()

    def test_closed_session_rejects_everything(self):
        engine = LifeStreamEngine(window_size=1000)
        session = engine.open_session(
            SESSION_QUERIES["elementwise"](), {"s": ReplaySource(_source())}
        )
        session.close()
        for call in (session.poll, session.finish, session.checkpoint,
                     lambda: session.advance(1000)):
            with pytest.raises(ExecutionError, match="closed"):
                call()

    def test_serial_backend_object_accepted(self):
        engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
        session = engine.open_session(
            SESSION_QUERIES["elementwise"](), {"s": ReplaySource(_source())}
        )
        assert session.backend_name == "serial"
        session.finish()
        session.close()
