"""Per-tick latency of incremental streaming sessions vs. full re-runs.

Acceptance measurement for the streaming execution subsystem: before
sessions existed, serving a live stream through the engine meant advancing
the :class:`~repro.core.sources.ReplaySource` watermark and recompiling +
re-running the query from time zero on every tick — O(stream length) work
per tick, quadratic over the stream's life.  A
:class:`~repro.core.runtime.session.StreamingSession` executes only the
newly-covered windows per tick while carrying operator state forward, so
per-tick work is O(tick length).

The benchmark replays the Figure 3 ECG+ABP workload tick-by-tick both
ways and asserts the shape by counts and identities: both final results
are bit-identical to a one-shot batch run, the session's ticks together run
exactly the one-shot run's output windows (each window once), and every
sampled re-run from zero runs more windows than the one before it (its work
grows with the stream's age).  Re-running from zero is quadratic in the
stream length, so that side is sampled at every 30th watermark.

The timings are reported, not gated: the mean tick of both paths and the
session's last-decile over first-decile mean tick over 600 one-second
ticks.  ``tests/core/test_tick_age_independence.py`` pins that a tick's
planning work does not grow with the stream's age.
"""

import numpy as np
import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.bench.workloads import duty_cycle_e2e_dataset
from repro.core.engine import LifeStreamEngine
from repro.core.sources import ArraySource, ReplaySource
from repro.core.timeutil import TICKS_PER_SECOND, period_from_hz
from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query

HEADERS = ["mode", "ticks", "total seconds", "mean tick ms", "max tick ms",
           "first-decile mean tick ms", "last-decile mean tick ms",
           "windows run", "speedup vs re-run"]

#: Replayed stream length and watermark step (one-second live ticks).
DURATION_SECONDS = 600.0
TICK = TICKS_PER_SECOND
#: Re-running from zero costs O(stream age) per tick; time every Nth tick.
RERUN_EVERY = 30
#: Session replays; each tick's latency is its fastest of these.
ROUNDS = 3


@pytest.fixture(scope="module")
def workload():
    # Steady duty cycle (4 s of both signals, 1 s gap): every tenth of the
    # stream holds the same work, so its ticks differ only by stream age.
    ecg, abp = duty_cycle_e2e_dataset(4, 1, duration_seconds=DURATION_SECONDS, seed=77)
    watermarks = list(range(TICK, int(DURATION_SECONDS) * TICK + TICK, TICK))
    return ecg, abp, watermarks


def _replay_sources(ecg, abp):
    return {
        "ecg": ReplaySource(ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ))),
        "abp": ReplaySource(ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ))),
    }


def _advance(sources, watermark):
    for source in sources.values():
        source.advance(watermark)


def _batch_reference(ecg, abp):
    sources = {
        "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
        "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
    }
    engine = LifeStreamEngine(window_size=TICKS_PER_SECOND)
    return engine.run(lifestream_e2e_query(resample_mode="hold"), sources)


def _run_session(ecg, abp, watermarks):
    """Incremental path: one long-lived session, one tick per watermark."""
    engine = LifeStreamEngine(window_size=TICKS_PER_SECOND)
    session = engine.open_session(
        lifestream_e2e_query(resample_mode="hold"), _replay_sources(ecg, abp)
    )
    ticks = [session.advance(watermark) for watermark in watermarks]
    latencies = [t.elapsed_seconds for t in ticks]
    ticks.append(session.finish())
    result = session.result()
    session.close()
    return result, latencies, sum(t.windows_run for t in ticks)


def _run_rerun(ecg, abp, watermarks):
    """Pre-session path: recompile and re-run from time zero on a tick."""
    import time

    engine = LifeStreamEngine(window_size=TICKS_PER_SECOND)
    sources = _replay_sources(ecg, abp)
    latencies = []
    windows = []
    result = None
    for watermark in watermarks:
        _advance(sources, watermark)
        if watermark % (RERUN_EVERY * TICK) and watermark != watermarks[-1]:
            continue
        began = time.perf_counter()
        result = engine.run(lifestream_e2e_query(resample_mode="hold"), sources)
        latencies.append(time.perf_counter() - began)
        windows.append(result.stats.output_windows)
    return result, latencies, windows


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


def test_streaming_session_latency(benchmark, report_registry, workload):
    ecg, abp, watermarks = workload
    report = get_report(
        report_registry,
        "streaming_latency",
        f"Per-tick latency over {DURATION_SECONDS:.0f}s of live replay "
        f"(1-second ticks, Figure 3 query, 4 s data / 1 s gap)",
        HEADERS,
    )
    reference = _batch_reference(ecg, abp)

    rerun_result, rerun_latencies, rerun_windows = _run_rerun(ecg, abp, watermarks)
    _assert_identical(reference, rerun_result, "full re-run vs batch")
    # Re-running from zero redoes the whole history: every sampled re-run
    # runs more windows than the one before it.
    assert all(a < b for a, b in zip(rerun_windows, rerun_windows[1:])), rerun_windows

    replays = []
    timed_benchmark(
        benchmark, lambda: replays.append(_run_session(ecg, abp, watermarks)), rounds=ROUNDS
    )
    for session_result, _, windows_run in replays:
        _assert_identical(reference, session_result, "incremental session vs batch")
        # The ticks together run each of the one-shot run's windows once.
        assert windows_run == reference.stats.output_windows
    session_latencies = np.min([latencies for _, latencies, _ in replays], axis=0)
    assert session_latencies.size == len(watermarks) >= 600

    decile = session_latencies.size // 10
    first_ms = 1e3 * float(np.mean(session_latencies[:decile]))
    last_ms = 1e3 * float(np.mean(session_latencies[-decile:]))
    session_mean = float(np.mean(session_latencies))
    rerun_mean = float(np.mean(rerun_latencies))
    speedup = rerun_mean / session_mean if session_mean > 0 else float("inf")
    report.record(
        (0,),
        [
            "incremental session",
            int(session_latencies.size),
            round(float(session_latencies.sum()), 4),
            round(1e3 * session_mean, 3),
            round(1e3 * float(np.max(session_latencies)), 3),
            round(first_ms, 3),
            round(last_ms, 3),
            replays[0][2],
            round(speedup, 2),
        ],
    )
    report.record(
        (1,),
        [
            f"full re-run (every {RERUN_EVERY}th tick)",
            len(rerun_latencies),
            round(sum(rerun_latencies), 4),
            round(1e3 * rerun_mean, 3),
            round(1e3 * np.max(rerun_latencies), 3),
            round(1e3 * rerun_latencies[0], 3),
            round(1e3 * rerun_latencies[-1], 3),
            sum(rerun_windows),
            1.0,
        ],
    )
    report.note(
        f"session last-decile / first-decile mean tick = {last_ms / first_ms:.2f}; "
        f"each tick is its fastest of {ROUNDS} replays"
    )
