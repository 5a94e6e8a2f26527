"""Parity suite for the execution backends and operator fusion.

Asserts that fused vs. unfused plans, and all three execution backends
(serial, vectorized, multiprocess), produce bit-identical StreamResults
across operator-chain queries in both targeted and eager modes."""

import numpy as np
import pytest

from repro.bench.harness import compare_backends
from repro.bench.workloads import duty_cycle_e2e_dataset
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import backends as backends_module
from repro.core.runtime import (
    MultiprocessBackend,
    SerialBackend,
    VectorizedBackend,
    plan_batch_safe,
    plan_warmup_windows,
    recommend_backend,
)
from repro.core.sources import ArraySource
from repro.core.timeutil import TICKS_PER_SECOND, period_from_hz
from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query
from repro.errors import ExecutionError

from tests.conftest import make_source


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
}

BACKENDS = {
    "serial": lambda: SerialBackend(),
    "multiprocess-2": lambda: MultiprocessBackend(n_workers=2),
    "multiprocess-3": lambda: MultiprocessBackend(n_workers=3),
    "vectorized": lambda: VectorizedBackend(),
    # Tiny run cap: every run is split, exercising run-boundary state carry.
    "vectorized-small-runs": lambda: VectorizedBackend(max_run_windows=3),
    # Every run a single window: the geometry of isolated-window coverage,
    # which recommend_backend now also sends to run execution.
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
        reference = LifeStreamEngine(window_size=1000, optimization_level=0).run(
            CHAIN_QUERIES[query_name](), {"s": source}, targeted=targeted
        )
        engine = LifeStreamEngine(window_size=1000, backend=BACKENDS[backend_name]())
        candidate = engine.run(CHAIN_QUERIES[query_name](), {"s": source}, targeted=targeted)
        _assert_identical(
            reference, candidate, f"{query_name} on {backend_name} targeted={targeted}"
        )

    def test_backend_override_per_run(self):
        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000)
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
        # Interpolating resample is not widening-invariant, so it must not
        # compute a whole run at once: it runs window by window inside the
        # run while the rest of the plan stays lowered.
        source = _gappy_source()
        query = (
            Query.source("s", frequency_hz=500)
            .alter_period(1, mode="interpolate")
            .where(lambda v: v > 0)
        )
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        compiled = engine.compile(query, {"s": source})
        assert not plan_batch_safe(compiled.plan)
        reference = compiled.run(backend=SerialBackend())
        candidate = compiled.run()
        assert candidate.stats.execution_mode == "vectorized+serial-fallback"
        _assert_identical(reference, candidate, "unsafe plan per-node fallback")

    def test_multiprocess_warmup_covers_long_shifts(self):
        # A shift longer than one window needs several warm-up windows.
        source = make_source(8000, period=2)
        query = Query.source("s", frequency_hz=500).select(lambda v: v).shift(3000)
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(query, {"s": source})
        assert plan_warmup_windows(compiled.plan) == 3
        reference = compiled.run()
        candidate = compiled.run(backend=MultiprocessBackend(n_workers=3))
        _assert_identical(reference, candidate, "long-shift sharding")

    def test_multiprocess_single_worker_is_serial(self):
        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000, backend=MultiprocessBackend(n_workers=1))
        reference = LifeStreamEngine(window_size=1000).run(
            CHAIN_QUERIES["elementwise"](), {"s": source}
        )
        candidate = engine.run(CHAIN_QUERIES["elementwise"](), {"s": source})
        _assert_identical(reference, candidate, "single-worker multiprocess")

    def test_invalid_backend_parameters_rejected(self):
        with pytest.raises(ExecutionError):
            MultiprocessBackend(n_workers=0)
        with pytest.raises(ExecutionError):
            VectorizedBackend(max_run_windows=0)

    def test_collect_false_supported_by_all_backends(self):
        source = _gappy_source()
        for factory in BACKENDS.values():
            engine = LifeStreamEngine(window_size=1000, backend=factory())
            result = engine.run(CHAIN_QUERIES["aggregate"](), {"s": source}, collect=False)
            assert len(result) == 0
            assert result.stats.output_windows > 0


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

    def test_multiprocess_stats_aggregate_worker_counts(self):
        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000, backend=MultiprocessBackend(n_workers=2))
        result = engine.run(CHAIN_QUERIES["aggregate"](), {"s": source})
        assert result.stats.windows_computed > 0
        assert result.stats.events_ingested == source.event_count()


class TestExecutionModeHonesty:
    """Regression: silent backend fallbacks used to report the requested
    backend in the stats; they must report the mode that actually ran."""

    def test_serial_backend_reports_serial(self):
        engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

    def test_default_backend_reports_serial(self):
        result = LifeStreamEngine(window_size=1000).run(
            CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()}
        )
        assert result.stats.execution_mode == "serial"

    def test_multiprocess_reports_multiprocess_when_sharded(self):
        engine = LifeStreamEngine(window_size=1000, backend=MultiprocessBackend(n_workers=2))
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "multiprocess"

    def test_multiprocess_single_worker_reports_serial(self):
        engine = LifeStreamEngine(window_size=1000, backend=MultiprocessBackend(n_workers=1))
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

    def test_multiprocess_too_few_windows_reports_serial(self):
        # 4 windows < 2 * 3 workers: the shard split would be all warm-up.
        source = make_source(2000, period=2)
        engine = LifeStreamEngine(window_size=1000, backend=MultiprocessBackend(n_workers=3))
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": source})
        assert result.stats.execution_mode == "serial"

    def test_multiprocess_without_fork_reports_serial(self, monkeypatch):
        monkeypatch.setattr(backends_module, "fork_available", lambda: False)
        engine = LifeStreamEngine(window_size=1000, backend=MultiprocessBackend(n_workers=2))
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

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
        reference = LifeStreamEngine(window_size=1000).run(query, {"s": _gappy_source()})
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


class TestRecommendBackendOnSparseCoverage:
    def test_isolated_windows_still_get_the_faster_backend(self):
        """One second of data every eight: every run is a single window,
        where a guessed `windows >= 4 x runs` rule used to send the plan to
        a backend 2.3x slower than serial.  The rule now comes from the
        recorded sweep (benchmarks/test_backend_sweep.py), which measures
        run execution at ~0.6x serial's time on this geometry."""
        ecg, abp = duty_cycle_e2e_dataset(1, 7, duration_seconds=480.0, seed=1)
        sources = {
            "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
            "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
        }
        compiled = LifeStreamEngine(window_size=TICKS_PER_SECOND).compile(
            lifestream_e2e_query(resample_mode="hold"), sources
        )
        recommended, reason = recommend_backend(compiled.plan, targeted=True)
        assert recommended.name == "vectorized"
        assert "60 run(s) over 60 window(s)" in reason

        backends = {"serial": SerialBackend(), "recommended": recommended}
        for backend in backends.values():
            compiled.run(backend=backend)
        comparison = compare_backends(
            "fig3 hold, 1 s data / 7 s gap",
            lambda backend: compiled.run(backend=backend),
            backends,
            repeat=7,
        )
        _assert_identical(
            compiled.run(backend=backends["serial"]),
            compiled.run(backend=recommended),
            "recommended backend parity",
        )
        assert comparison.speedup("recommended", "serial") >= 1 / 1.25
