"""Ingest throughput at patient-level scale — the measured Figure 10(d).

The paper's scale-out claim (473.66M events/s on a 16-machine cluster)
is reproduced analytically by :mod:`repro.scaling.cluster`; this
benchmark replaces the *per-machine* leg of that argument with a real
measurement: one machine sustaining 1,000 concurrent push-based sessions
through the ingest worker pool, reporting ingested samples/s, emitted
events/s, and the p99 per-session tick latency.  A companion fast lane
runs the same workload at a smaller scale (including one mid-run worker
failover) so the measurement path is exercised on every CI run.

Results land in ``benchmarks/results/ingest_throughput.json`` via the
session report registry; CI uploads that file as a build artifact.
"""

import pytest

from benchmarks.conftest import get_report
from repro.pipelines.loadgen import run_gateway_load, run_pool_load, synthetic_stream

HEADERS = [
    "mode",
    "sessions",
    "samples/s",
    "events/s",
    "p99 tick ms",
    "mean tick ms",
    "failovers",
]

#: The headline scale: one thousand live sessions on one machine.
HEADLINE_SESSIONS = 1000
#: Fast-lane scale, small enough for the default CI lane.
SMOKE_SESSIONS = 48

#: Stream time generated per session (seconds); 500 Hz sampling.
DURATION_SECONDS = 2.0
#: Push rounds each run is chunked into (ticks per session ≈ rounds + 1).
ROUNDS = 4


def _report(registry):
    return get_report(
        registry,
        "ingest_throughput",
        "Ingest throughput — concurrent push-based sessions (measured)",
        HEADERS,
    )


def _record(report, label, result):
    report.record(
        (label, result.n_sessions),
        [
            label,
            result.n_sessions,
            round(result.samples_per_second, 1),
            round(result.events_per_second, 1),
            round(result.p99_tick_seconds * 1e3, 3),
            round(result.mean_tick_seconds * 1e3, 3),
            result.recoveries,
        ],
    )


def _ticks_issued(n_sessions):
    """Session ticks a run issues: one per session per round that pushed it
    samples (the load generator pushes each stream in ``ROUNDS`` equal
    chunks of the longest), and one per session when it finishes."""
    lengths = [len(synthetic_stream(seed, DURATION_SECONDS)[0]) for seed in range(n_sessions)]
    chunk = -(-max(lengths) // ROUNDS)
    return sum(min(ROUNDS, -(-length // chunk)) for length in lengths) + n_sessions


def _check(result, n_sessions):
    assert result.n_sessions == n_sessions
    assert result.samples_pushed >= n_sessions * 500  # gappy 2 s @ 500 Hz
    # Every session's stream spans ~2 s = 8 tumbling windows; gaps can
    # empty a couple of windows but never most of them.
    assert result.events_emitted >= n_sessions * 4
    assert result.samples_per_second > 0
    # Every issued tick reports its latency, except the ticks of the
    # sessions on a worker killed mid-round (they are restored, not ticked).
    lost = _ticks_issued(n_sessions) - len(result.tick_seconds)
    if result.recoveries:
        assert 0 < lost <= n_sessions
    else:
        assert lost == 0
    assert result.mean_tick_seconds >= 0.0


def test_pool_smoke_with_failover(report_registry):
    """Fast lane: pool ingest survives a mid-run worker kill, measured."""
    result = run_pool_load(
        n_sessions=SMOKE_SESSIONS,
        n_workers=2,
        duration_seconds=DURATION_SECONDS,
        rounds=ROUNDS,
        kill_worker_round=1,
    )
    _check(result, SMOKE_SESSIONS)
    assert result.recoveries == 1
    _record(_report(report_registry), f"pool+failover ({result.execution_mode})", result)


def test_gateway_smoke(report_registry):
    """Fast lane: the asyncio gateway path, same workload shape."""
    result = run_gateway_load(
        n_sessions=SMOKE_SESSIONS,
        duration_seconds=DURATION_SECONDS,
        rounds=ROUNDS,
    )
    _check(result, SMOKE_SESSIONS)
    _record(_report(report_registry), "gateway", result)


@pytest.mark.slow
def test_pool_sustains_1k_concurrent_sessions(report_registry):
    """Headline: 1,000 concurrent sessions in worker-pool mode."""
    result = run_pool_load(
        n_sessions=HEADLINE_SESSIONS,
        n_workers=4,
        duration_seconds=DURATION_SECONDS,
        rounds=ROUNDS,
    )
    _check(result, HEADLINE_SESSIONS)
    assert result.recoveries == 0
    report = _report(report_registry)
    _record(report, f"pool ({result.execution_mode})", result)
    report.note(
        f"1k sessions: {result.samples_per_second / 1e3:.1f}k samples/s, "
        f"{result.events_per_second:.0f} events/s, "
        f"p99 tick {result.p99_tick_seconds * 1e3:.3f} ms "
        f"over {len(result.tick_seconds)} session ticks"
    )
