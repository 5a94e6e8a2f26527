"""Run execution is the engine default, on every entry point and per clone.

``LifeStreamEngine(backend=None)`` is the one place a default backend is
chosen; sessions, the serving service, the worker pool, the LSQL runner
and the pipelines all inherit it.  Each entry point below runs the Figure 3
plan with no backend argument and must report ``vectorized`` — every node,
the interpolating resample included, lowered; a plan carrying a cache
tracer must report the serial fallback and say why.

The default also has to stay cheap per cached clone: the run-lowering
analysis is computed once per plan-cache template, and a one-window tick
fills the plan's own FWindows instead of allocating run buffers.
"""

import numpy as np
import pytest

import repro.core.runtime.vectorized as vectorized_module
import repro.ingest.pool as pool_module
from repro.bench.workloads import e2e_dataset
from repro.core.engine import CompiledQuery, LifeStreamEngine
from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.query import Query
from repro.core.runtime.session import StreamingSession
from repro.core.sources import ArraySource, ReplaySource
from repro.core.timeutil import TICKS_PER_SECOND, period_from_hz
from repro.ingest import IngestWorkerPool, QueryShape, StreamSpec
from repro.lang.resolver import ResolvedProgram
from repro.lang.runner import run_resolved
from repro.memsim.tracer import AccessTracer
from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query, run_lifestream_e2e
from repro.pipelines.live import replay_e2e_live
from repro.pipelines.serve import serve_cohort
from repro.serve import PlanCache, StreamingService

RUN_MODES = {"vectorized"}
ECG_PERIOD = period_from_hz(ECG_HZ)
ABP_PERIOD = period_from_hz(ABP_HZ)
DESCRIPTORS = {
    "ecg": StreamDescriptor(offset=0, period=ECG_PERIOD),
    "abp": StreamDescriptor(offset=0, period=ABP_PERIOD),
}


@pytest.fixture(scope="module")
def dataset():
    return e2e_dataset(duration_seconds=6.0, seed=4)


def _sources(ecg, abp, wrap=lambda source: source):
    return {
        "ecg": wrap(ArraySource(ecg[0], ecg[1], period=ECG_PERIOD)),
        "abp": wrap(ArraySource(abp[0], abp[1], period=ABP_PERIOD)),
    }


@pytest.fixture
def modes(monkeypatch):
    """Every execution mode a one-shot run or a session tick reports.

    The pool runs its workers in-process so their ticks are seen too.
    """
    seen = []
    run, tick = CompiledQuery.run, StreamingSession._tick

    def recording_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        seen.append(result.stats.execution_mode)
        return result

    def recording_tick(self, *args, **kwargs):
        stats = tick(self, *args, **kwargs)
        seen.append(stats.execution_mode)
        return stats

    monkeypatch.setattr(CompiledQuery, "run", recording_run)
    monkeypatch.setattr(StreamingSession, "_tick", recording_tick)
    monkeypatch.setattr(pool_module, "fork_available", lambda: False)
    return seen


def _engine_run(ecg, abp):
    LifeStreamEngine().run(lifestream_e2e_query(), _sources(ecg, abp))


def _open_session(ecg, abp):
    session = LifeStreamEngine().open_session(
        lifestream_e2e_query(), _sources(ecg, abp, ReplaySource)
    )
    session.finish()
    session.close()


def _service(ecg, abp):
    with StreamingService() as service:
        service.open("c", lifestream_e2e_query(), _sources(ecg, abp, ReplaySource))
        service.pump(3 * TICKS_PER_SECOND)
        service.finish()


def _pool(ecg, abp):
    shape = QueryShape(
        lifestream_e2e_query, {"ecg": StreamSpec(ECG_PERIOD), "abp": StreamSpec(ABP_PERIOD)}
    )
    with IngestWorkerPool({"fig3": shape}, n_workers=1) as pool:
        assert pool.execution_mode == "in-process"
        pool.connect("c", "fig3")
        pool.push("c", "ecg", *ecg)
        pool.push("c", "abp", *abp)
        pool.tick()
        pool.finish()


def _lang_runner(_ecg, _abp):
    resolved = ResolvedProgram(
        program=None,
        query=lifestream_e2e_query(),
        sink_name="joined",
        descriptors=DESCRIPTORS,
    )
    run_resolved(resolved, duration_seconds=4.0)


def _e2e(ecg, abp):
    assert run_lifestream_e2e(ecg, abp).extra["backend"] in RUN_MODES


def _live(ecg, abp):
    assert replay_e2e_live(ecg, abp).parity


def _serve(_ecg, _abp):
    serve_cohort(
        n_patients=2, duration_seconds=3.0, query=lifestream_e2e_query(), descriptors=DESCRIPTORS
    )


ENTRY_POINTS = {
    "engine.run": _engine_run,
    "open_session": _open_session,
    "StreamingService": _service,
    "IngestWorkerPool": _pool,
    "lang.runner": _lang_runner,
    "run_lifestream_e2e": _e2e,
    "replay_e2e_live": _live,
    "serve_cohort": _serve,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_figure3_runs_on_run_execution_by_default(dataset, modes, entry):
    ENTRY_POINTS[entry](*dataset)
    assert modes
    assert set(modes) <= RUN_MODES, modes


class TestTracerPlanFallsBackToSerial:
    def test_engine_run(self, dataset):
        engine = LifeStreamEngine(tracer=AccessTracer())
        stats = engine.run(lifestream_e2e_query(), _sources(*dataset)).stats
        assert stats.execution_mode == "serial"
        assert "tracer" in stats.fallback_reason

    def test_run_lifestream_e2e(self, dataset):
        run = run_lifestream_e2e(*dataset, tracer=AccessTracer())
        assert run.extra["backend"] == "serial"
        assert "tracer" in run.extra["fallback_reason"]

    def test_open_session(self, dataset):
        engine = LifeStreamEngine(tracer=AccessTracer())
        session = engine.open_session(lifestream_e2e_query(), _sources(*dataset, ReplaySource))
        assert session.finish().execution_mode == "serial"
        session.close()


# -- per-clone cost ------------------------------------------------------------


def _lowerable_query():
    return Query.source("s", frequency_hz=500).select(lambda v: v * 2).where(lambda v: v > -5)


def _signal(seed, n=4000):
    values = np.sin(np.arange(n) * (0.01 + 0.001 * seed)) * 10
    return ArraySource(np.arange(n, dtype=np.int64) * 2, values, period=2)


def test_clones_of_one_template_share_one_lowering_analysis(monkeypatch):
    engine = LifeStreamEngine(window_size=1000, plan_cache=PlanCache())
    engine._cached_template(_lowerable_query(), {"s": _signal(0)})
    calls = []
    analyze = vectorized_module.analyze_plan

    def counting(sink):
        calls.append(sink)
        return analyze(sink)

    monkeypatch.setattr(vectorized_module, "analyze_plan", counting)
    for seed in range(5):
        result = engine.run(_lowerable_query(), {"s": _signal(seed)})
        assert result.stats.execution_mode == "vectorized"
    assert engine.plan_cache.stats.hits == 5
    assert len(calls) == 1


def test_one_window_ticks_allocate_no_run_buffers(monkeypatch):
    engine = LifeStreamEngine(window_size=1000)
    compiled = engine.compile(_lowerable_query(), {"s": ReplaySource(_signal(0))})
    session = compiled.open_session()
    allocated = []
    init = FWindow.__init__

    def counting(self, *args, **kwargs):
        allocated.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FWindow, "__init__", counting)
    ticks = [session.advance(watermark) for watermark in range(1000, 8001, 1000)]
    assert {tick.windows_run for tick in ticks} == {1}
    assert {tick.execution_mode for tick in ticks} == {"vectorized"}
    assert allocated == []
    assert compiled.plan.__dict__["_run_executor"].peak_buffer_bytes == 0
    session.close()
