"""Parity suite for the execution backends and operator fusion.

Asserts that fused vs. unfused plans, and both execution backends (serial
and vectorized, at several run caps), produce bit-identical StreamResults
across operator-chain queries in both targeted and eager modes."""

import importlib

import numpy as np
import pytest

import repro.core.runtime.backends as backends_module
from repro.bench.workloads import duty_cycle_e2e_dataset, e2e_dataset
from repro.core.engine import LifeStreamEngine
from repro.core.operators import AlterPeriod
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend, plan_batch_safe
from repro.core.runtime.vectorized import BlockExecutor, block_executor
from repro.core.sources import ArraySource
from repro.core.timeutil import TICKS_PER_SECOND, period_from_hz
from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query
from repro.errors import ExecutionError


def _gappy_source(n=12000, period=2, seed=7):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * period
    keep = np.ones(n, dtype=bool)
    # A few bursty gaps so coverage is fragmented.
    for start in rng.integers(0, n - 500, size=4):
        keep[start : start + int(rng.integers(100, 400))] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return ArraySource(times[keep], values[keep], period=period)


#: Name -> query builder.  Each covers a different operator mix: pure
#: element-wise chains (fusable), stateful shifts, windowed aggregates,
#: joins over multicast fan-out, and re-gridding.
CHAIN_QUERIES = {
    "elementwise": lambda: (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .where(lambda v: v > -5)
        .alter_duration(4)
    ),
    "shift-chain": lambda: (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v + 0.5)
        .shift(1000)
        .where(lambda v: np.abs(v) < 9)
    ),
    # A shift three windows long: the carry FIFO holds samples across
    # several windows (and several runs at small run caps).
    "long-shift": lambda: (
        Query.source("s", frequency_hz=500).select(lambda v: v).shift(3000)
    ),
    "aggregate": lambda: (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 3)
        .tumbling_window(100)
        .mean()
    ),
    "sliding": lambda: (
        Query.source("s", frequency_hz=500).sliding_window(200, 100).max()
    ),
    "multicast-join": lambda: Query.source("s", frequency_hz=500).multicast(
        lambda s: s.select(lambda v: v)
        .join(s.tumbling_window(100).mean(), lambda v, m: v - m)
    ),
    "regrid-hold": lambda: (
        Query.source("s", frequency_hz=500)
        .alter_period(1, mode="hold")
        .where(lambda v: v > 0)
    ),
    # Interpolation clamps at every window edge: its run kernel must too.
    "regrid-interpolate": lambda: (
        Query.source("s", frequency_hz=500)
        .alter_period(1, mode="interpolate")
        .where(lambda v: v > 0)
    ),
}

BACKENDS = {
    "serial": lambda: SerialBackend(),
    "vectorized": lambda: VectorizedBackend(),
    # Tiny run cap: every run is split, exercising run-boundary state carry.
    "vectorized-small-runs": lambda: VectorizedBackend(max_run_windows=3),
    # Every run a single window: the geometry of isolated-window coverage.
    "vectorized-single-window-runs": lambda: VectorizedBackend(max_run_windows=1),
}


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(
        reference.values, candidate.values, err_msg=label
    )
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


class TestFusionParity:
    @pytest.mark.parametrize("name", sorted(CHAIN_QUERIES))
    @pytest.mark.parametrize("targeted", [True, False])
    def test_fused_matches_unfused(self, name, targeted):
        source = _gappy_source()
        unfused = LifeStreamEngine(window_size=1000, optimization_level=0)
        fused = LifeStreamEngine(window_size=1000, optimization_level=2)
        reference = unfused.run(CHAIN_QUERIES[name](), {"s": source}, targeted=targeted)
        candidate = fused.run(CHAIN_QUERIES[name](), {"s": source}, targeted=targeted)
        _assert_identical(reference, candidate, f"{name} targeted={targeted}")


class TestBackendParity:
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    @pytest.mark.parametrize("query_name", sorted(CHAIN_QUERIES))
    @pytest.mark.parametrize("targeted", [True, False])
    def test_backends_bit_identical(self, backend_name, query_name, targeted):
        source = _gappy_source()
        reference = LifeStreamEngine(
            window_size=1000, optimization_level=0, backend=SerialBackend()
        ).run(CHAIN_QUERIES[query_name](), {"s": source}, targeted=targeted)
        engine = LifeStreamEngine(window_size=1000, backend=BACKENDS[backend_name]())
        candidate = engine.run(CHAIN_QUERIES[query_name](), {"s": source}, targeted=targeted)
        _assert_identical(
            reference, candidate, f"{query_name} on {backend_name} targeted={targeted}"
        )

    def test_backend_override_per_run(self):
        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
        compiled = engine.compile(CHAIN_QUERIES["elementwise"](), {"s": source})
        serial = compiled.run()
        vectorized = compiled.run(backend=VectorizedBackend())
        assert vectorized.stats.execution_mode == "vectorized"
        _assert_identical(serial, vectorized, "per-run backend override")

    def test_long_shift_emits_at_shifted_times(self):
        # A shift spanning several windows must delay events by exactly the
        # offset (regression: the carry used to clamp to one window).
        n = 40
        times = np.arange(n, dtype=np.int64) * 10
        values = np.arange(n, dtype=np.float64)
        source = ArraySource(times, values, period=10)
        for offset in (80, 120):
            query = Query.source("s", period=10).shift(offset)
            for opt in (0, 2):
                engine = LifeStreamEngine(window_size=40, optimization_level=opt)
                result = engine.run(query, {"s": source})
                np.testing.assert_array_equal(result.times, times + offset)
                np.testing.assert_array_equal(result.values, values)
            # Fused chains use the same FIFO.
            chained = Query.source("s", period=10).select(lambda v: v).shift(offset)
            result = LifeStreamEngine(window_size=40, optimization_level=2).run(
                chained, {"s": source}
            )
            np.testing.assert_array_equal(result.times, times + offset)
            np.testing.assert_array_equal(result.values, values)

    def test_window_sensitive_plan_falls_back_per_node(self):
        # Resampling between non-multiple periods samples the active event
        # without a carry, so its output near a window edge depends on the
        # window extent: it runs window by window inside the run while the
        # rest of the plan stays lowered.
        source = _gappy_source()
        query = (
            Query.source("s", frequency_hz=500)
            .alter_period(3, mode="hold")
            .where(lambda v: v > 0)
        )
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        compiled = engine.compile(query, {"s": source})
        assert not plan_batch_safe(compiled.plan)
        reference = compiled.run(backend=SerialBackend())
        candidate = compiled.run()
        assert candidate.stats.execution_mode == "vectorized+serial-fallback"
        _assert_identical(reference, candidate, "unsafe plan per-node fallback")

    def test_invalid_backend_parameters_rejected(self):
        with pytest.raises(ExecutionError):
            VectorizedBackend(max_run_windows=0)


class TestExecutionStatsAcrossBackends:
    def test_windows_skipped_matches_eager_arithmetic(self):
        # The arithmetic windows_skipped must agree with what an eager run
        # actually visits.
        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(CHAIN_QUERIES["elementwise"](), {"s": source})
        targeted = compiled.run(targeted=True)
        eager = compiled.run(targeted=False)
        assert (
            targeted.stats.windows_skipped
            == eager.stats.output_windows - targeted.stats.output_windows
        )
        assert eager.stats.windows_skipped == 0

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_stats_count_every_ingested_event(self, backend_name):
        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000, backend=BACKENDS[backend_name]())
        result = engine.run(CHAIN_QUERIES["aggregate"](), {"s": source})
        assert result.stats.windows_computed > 0
        assert result.stats.events_ingested == source.event_count()
        assert result.stats.events_emitted == len(result)


class TestTwoBackends:
    @pytest.mark.parametrize("module", ["repro", "repro.core", "repro.core.runtime"])
    def test_window_sharded_backend_not_exported(self, module):
        imported = importlib.import_module(module)
        assert not hasattr(imported, "MultiprocessBackend")
        assert "MultiprocessBackend" not in imported.__all__

    def test_backend_without_hooks_ticks_serially(self):
        # A backend that overrides nothing inherits the window-by-window
        # tick and its honest "serial" label, in sessions and one-shot runs.
        from repro.core.runtime.backends import ExecutionBackend
        from repro.core.sources import ReplaySource

        class NoHooks(ExecutionBackend):
            name = "no-hooks"

        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000, backend=NoHooks())
        session = engine.open_session(
            CHAIN_QUERIES["shift-chain"](), {"s": ReplaySource(source)}
        )
        session.finish()
        result = session.result()
        session.close()
        one_shot = engine.run(CHAIN_QUERIES["shift-chain"](), {"s": source})
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            CHAIN_QUERIES["shift-chain"](), {"s": source}
        )
        for candidate in (result, one_shot):
            assert candidate.stats.execution_mode == "serial"
            assert candidate.stats.fallback_reason is None
            _assert_identical(reference, candidate, "default session tick")


class TestExecutionModeHonesty:
    """Regression: silent backend fallbacks used to report the requested
    backend in the stats; they must report the mode that actually ran."""

    def test_serial_backend_reports_serial(self):
        engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

    def test_default_backend_reports_vectorized(self):
        result = LifeStreamEngine(window_size=1000).run(
            CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()}
        )
        assert result.stats.execution_mode == "vectorized"

    def test_vectorized_reports_vectorized_when_fully_lowered(self):
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "vectorized"

    def test_vectorized_partial_fallback_reports_mixed_mode(self):
        # ClipJoin has no whole-run kernel, but the Select/Where stages do:
        # the run executor lowers what it can and drops only the join node
        # to window-by-window execution, and the stats must say so.
        query = Query.source("s", frequency_hz=500).multicast(
            lambda s: s.select(lambda v: v * 2).clip_join(
                s.where(lambda v: v > 0), lambda a, b: a + b
            )
        )
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        result = engine.run(query, {"s": _gappy_source()})
        assert result.stats.execution_mode == "vectorized+serial-fallback"
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query, {"s": _gappy_source()}
        )
        _assert_identical(reference, result, "partial fallback parity")

    def test_vectorized_worthless_plan_reports_serial(self):
        # Every operator refuses to lower: run execution would be pure
        # overhead, so the backend runs (and reports) serial.
        query = Query.source("s", frequency_hz=500).multicast(
            lambda s: s.clip_join(s, lambda a, b: a + b)
        )
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        result = engine.run(query, {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

    def test_vectorized_with_tracer_reports_serial(self):
        from repro.memsim.tracer import AccessTracer

        tracer = AccessTracer()
        engine = LifeStreamEngine(
            window_size=1000, backend=VectorizedBackend(), tracer=tracer
        )
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

    def test_vectorized_session_reports_mode(self):
        from repro.core.sources import ReplaySource

        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        session = engine.open_session(
            CHAIN_QUERIES["elementwise"](), {"s": ReplaySource(_gappy_source())}
        )
        session.finish()
        assert session.result().stats.execution_mode == "vectorized"
        session.close()
        # A plan with nothing to lower runs its session ticks serially.
        query = Query.source("s", frequency_hz=500).multicast(
            lambda s: s.clip_join(s, lambda a, b: a + b)
        )
        session = engine.open_session(query, {"s": ReplaySource(_gappy_source())})
        session.finish()
        assert session.result().stats.execution_mode == "serial"
        session.close()


class TestDefaultBackendOnSparseCoverage:
    def test_isolated_windows_run_as_single_window_runs(self, monkeypatch):
        """One second of data every eight: every run is a single window, the
        geometry where run execution gains least (the recorded sweep in
        benchmarks/test_backend_sweep.py still has it ahead of serial).  The
        default backend runs it as 60 one-window runs, bit-identical to
        serial."""
        ecg, abp = duty_cycle_e2e_dataset(1, 7, duration_seconds=480.0, seed=1)
        sources = {
            "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
            "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
        }
        compiled = LifeStreamEngine(window_size=TICKS_PER_SECOND).compile(
            lifestream_e2e_query(resample_mode="hold"), sources
        )
        runs = []
        execute = BlockExecutor.execute

        def counting(self, segments, *args):
            runs.extend(count for _, _, count in segments)
            return execute(self, segments, *args)

        monkeypatch.setattr(BlockExecutor, "execute", counting)
        result = compiled.run()
        assert runs == [1] * 60
        assert result.stats.execution_mode == "vectorized"
        _assert_identical(
            compiled.run(backend=SerialBackend()), result, "default backend parity"
        )


def _fig3_interpolate():
    """The Figure 3 query (interpolating resample) over two minutes of
    gappy ECG/ABP at one-second windows: runs of many windows."""
    ecg, abp = e2e_dataset(duration_seconds=120.0, seed=3)
    sources = {
        "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
        "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
    }
    return LifeStreamEngine(window_size=TICKS_PER_SECOND).compile(
        lifestream_e2e_query(resample_mode="interpolate"), sources
    )


class TestFigure3InOneArrayProgram:
    def test_interpolating_resample_lowers_to_one_kernel_call_per_run(self, monkeypatch):
        compiled = _fig3_interpolate()
        runs, kernel_calls = [], []
        execute = BlockExecutor.execute
        compute_run = AlterPeriod.compute_run

        def counting_run(self, segments, *args):
            runs.extend(count for _, _, count in segments)
            return execute(self, segments, *args)

        def counting_kernel(self, output, inputs, state, windows):
            kernel_calls.append(windows)
            return compute_run(self, output, inputs, state, windows)

        window_calls = []
        compute = AlterPeriod.compute

        def counting_window(self, *args):
            window_calls.append(1)
            return compute(self, *args)

        monkeypatch.setattr(BlockExecutor, "execute", counting_run)
        monkeypatch.setattr(AlterPeriod, "compute_run", counting_kernel)
        monkeypatch.setattr(AlterPeriod, "compute", counting_window)
        result = compiled.run()
        assert result.stats.execution_mode == "vectorized"
        assert not block_executor(compiled.plan).fell_back
        assert max(runs) > 1
        assert kernel_calls == runs
        # Only one-window runs call the per-window compute: no window loop.
        assert len(window_calls) == runs.count(1)

    def test_result_columns_are_written_once_and_own_their_events(self, monkeypatch):
        compiled = _fig3_interpolate()
        concatenated = []
        concatenate = np.concatenate

        def spy(*args, **kwargs):
            out = concatenate(*args, **kwargs)
            concatenated.append(out)
            return out

        allocated = []
        sink_columns = backends_module.sink_columns

        def sized(events):
            allocated.append(events)
            columns = sink_columns(events)
            allocated.append(columns)
            return columns

        monkeypatch.setattr(np, "concatenate", spy)
        monkeypatch.setattr(backends_module, "sink_columns", sized)
        result = compiled.run()
        assert len(result) == result.stats.events_emitted > 0
        # One allocation at windows x sink slots, trimmed in place to the
        # events written: the result columns are those very arrays.
        events, columns = allocated
        assert events == result.stats.output_windows * compiled.plan.sink.fwindow.capacity
        assert events > len(result)
        for column, result_column in zip(columns, (result.times, result.values, result.durations)):
            assert result_column is column
            assert column.base is None and column.flags.owndata
            assert column.size == len(result)
            assert not any(out is column for out in concatenated)

    @pytest.mark.parametrize("backend", [SerialBackend(), VectorizedBackend()],
                             ids=["serial", "vectorized"])
    def test_multi_window_ticks_write_once_into_reserved_columns(self, backend, monkeypatch):
        # A session advanced over many windows at once, and a restored
        # session catching up, write each tick's events once, into columns
        # reserved for every sink slot of its windows: one chunk per tick.
        from repro.core.runtime import executor as executor_module
        from repro.core.sources import ReplaySource

        def open_session(checkpoint=None):
            plan = _fig3_interpolate().plan
            sources = {name: ReplaySource(source) for name, source in plan.sources.items()}
            compiled = LifeStreamEngine(window_size=TICKS_PER_SECOND, backend=backend).compile(
                lifestream_e2e_query(resample_mode="interpolate"), sources
            )
            return compiled, compiled.open_session(checkpoint=checkpoint)

        allocated = []
        sink_columns = executor_module.sink_columns

        def sized(events):
            allocated.append(events)
            return sink_columns(events)

        monkeypatch.setattr(executor_module, "sink_columns", sized)
        monkeypatch.setattr(backends_module, "sink_columns", sized)
        compiled, session = open_session()
        capacity = compiled.plan.sink.fwindow.capacity
        first = session.advance(60_000)
        saved = session.checkpoint()
        assert first.windows_run > 1
        assert allocated == [first.windows_run * capacity]
        assert len(session._collected_times) == 1
        session.close()

        allocated.clear()
        _, restored = open_session(checkpoint=saved)
        tail = restored.finish()
        assert tail.windows_run > 1
        assert allocated == [tail.windows_run * capacity]
        # The checkpointed events and the tail's one chunk.
        assert len(restored._collected_times) == 2
        reference = _fig3_interpolate().run(backend=SerialBackend())
        _assert_identical(reference, restored.result(), "restored session")
        restored.close()

    def test_bit_identical_at_every_run_cap(self):
        compiled = _fig3_interpolate()
        reference = compiled.run(backend=SerialBackend())
        for cap in (1, 2, 5, 512, None):
            backend = VectorizedBackend(max_run_windows=cap)
            _assert_identical(reference, compiled.run(backend=backend), f"cap {cap}")

    def test_sparse_sink_result_owns_only_its_events(self):
        # A selective where over an hour of 500 Hz samples: the columns are
        # reserved for every sink slot, and the result keeps only the
        # handful of events written into them.
        times = np.arange(1_800_000, dtype=np.int64) * 2
        values = np.sin(times * 1e-3)
        compiled = LifeStreamEngine(window_size=TICKS_PER_SECOND).compile(
            Query.source("s", frequency_hz=500).where(lambda v: v > 0.999_999),
            {"s": ArraySource(times, values, period=2)},
        )
        result = compiled.run()
        reference = compiled.run(backend=SerialBackend())
        _assert_identical(reference, result, "sparse sink")
        slots = result.stats.output_windows * compiled.plan.sink.fwindow.capacity
        assert 0 < len(result) < slots // 1000
        for column in (result.times, result.values, result.durations):
            assert column.base is None and column.flags.owndata
            assert column.size == len(result)
