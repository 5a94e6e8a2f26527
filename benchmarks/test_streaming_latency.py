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
ways, asserts the two final results are bit-identical to a one-shot batch
run, and requires the session loop to beat per-tick re-running end-to-end.

It also checks that a session tick does not get slower as the stream ages:
over 600 one-second ticks, the mean tick of the last tenth may be at most
1.3x the mean tick of the first tenth (per-tick planning starts at the
emission frontier, not at time zero).  Re-running from zero is quadratic in
the stream length, so that side is sampled at every 30th watermark and the
two are compared by mean tick.
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
           "speedup vs re-run"]

#: Replayed stream length and watermark step (one-second live ticks).
DURATION_SECONDS = 600.0
TICK = TICKS_PER_SECOND
#: Re-running from zero costs O(stream age) per tick; time every Nth tick.
RERUN_EVERY = 30
#: The session's mean tick must beat recompile-and-re-run-from-zero.
REQUIRED_SPEEDUP = 2.0
#: Mean tick of the last tenth of the stream over that of the first tenth.
MAX_AGE_RATIO = 1.3
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
    for watermark in watermarks:
        session.advance(watermark)
    latencies = [t.elapsed_seconds for t in session.ticks]
    session.finish()
    result = session.result()
    session.close()
    return result, latencies


def _run_rerun(ecg, abp, watermarks):
    """Pre-session path: recompile and re-run from time zero on a tick."""
    import time

    engine = LifeStreamEngine(window_size=TICKS_PER_SECOND)
    sources = _replay_sources(ecg, abp)
    latencies = []
    result = None
    for watermark in watermarks:
        _advance(sources, watermark)
        if watermark % (RERUN_EVERY * TICK) and watermark != watermarks[-1]:
            continue
        began = time.perf_counter()
        result = engine.run(lifestream_e2e_query(resample_mode="hold"), sources)
        latencies.append(time.perf_counter() - began)
    return result, latencies


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

    rerun_result, rerun_latencies = _run_rerun(ecg, abp, watermarks)
    _assert_identical(reference, rerun_result, "full re-run vs batch")

    replays = []
    timed_benchmark(
        benchmark, lambda: replays.append(_run_session(ecg, abp, watermarks)), rounds=ROUNDS
    )
    for session_result, _ in replays:
        _assert_identical(reference, session_result, "incremental session vs batch")
    session_latencies = np.min([latencies for _, latencies in replays], axis=0)
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
            1.0,
        ],
    )
    report.note(
        f"session last-decile / first-decile mean tick = {last_ms / first_ms:.2f} "
        f"(must be <= {MAX_AGE_RATIO}); each tick is its fastest of {ROUNDS} replays"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"the incremental session's mean tick was only {speedup:.2f}x faster "
        f"than re-running from zero (required {REQUIRED_SPEEDUP}x): "
        f"{1e3 * session_mean:.3f} ms vs {1e3 * rerun_mean:.3f} ms"
    )
    assert last_ms <= MAX_AGE_RATIO * first_ms, (
        f"session ticks slow down with stream age: last-decile mean "
        f"{last_ms:.3f} ms vs first-decile {first_ms:.3f} ms "
        f"(ratio {last_ms / first_ms:.2f}, allowed {MAX_AGE_RATIO})"
    )
