"""Load generator for the push-based ingest subsystem.

Where :mod:`repro.pipelines.serve` replays a cohort one watermark at a
time (in-process, or through the same worker pool as here) and reports
the work done, this pipeline plays the *producer* side: many
concurrent sessions push timestamped sample batches at a gateway or a
worker pool, and the report measures what the ingest path sustained —
samples/s in, events/s out, and the p99 per-session tick latency.  It is
the measured stand-in for the paper's patient-level scale-out claim
(Figure 10(d)): instead of modelling a 16-machine cluster, we saturate
one machine with a thousand live sessions and report real numbers.

Two modes share one synthetic workload:

``pool``
    Sessions spread across an :class:`~repro.ingest.IngestWorkerPool`
    (forked workers ticking concurrently, cadence checkpoints,
    failover).  Optionally kills a worker mid-run to measure ingest
    *through* a failover.

``gateway``
    Sessions multiplexed on one asyncio
    :class:`~repro.ingest.IngestGateway`, each with a subscriber
    draining its event batches — exercises the end-to-end backpressure
    path.

Run as a script for a printed load report::

    PYTHONPATH=src python -m repro.pipelines.loadgen
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.query import Query
from repro.core.timeutil import TICKS_PER_SECOND
from repro.ingest import IngestGateway, IngestWorkerPool, QueryShape, StreamSpec
from repro.ingest.types import percentile

#: Sample period of the synthetic monitor streams (500 Hz).
PERIOD = 2


def loadgen_query() -> Query:
    """The per-session pipeline every generated client runs."""
    return (
        Query.source("ecg", frequency_hz=500)
        .where(lambda v: np.abs(v) < 8.0)
        .select(lambda v: v * 1.25 + 0.5)
        .tumbling_window(TICKS_PER_SECOND // 4)
        .mean()
    )


#: The pool catalog: one registered shape, instantiated per client.
CATALOG = {"vitals": QueryShape(loadgen_query, {"ecg": StreamSpec(PERIOD)})}


def synthetic_stream(seed: int, duration_seconds: float) -> tuple[np.ndarray, np.ndarray]:
    """A gappy synthetic ECG-like stream as ``(times, values)`` arrays."""
    rng = np.random.default_rng(seed)
    n = int(duration_seconds * 500)
    times = np.arange(n, dtype=np.int64) * PERIOD
    values = (
        np.sin(np.arange(n) * (0.04 + 0.004 * (seed % 7)))
        + 0.1 * rng.standard_normal(n)
    ) * 3.0
    keep = np.ones(n, dtype=bool)
    if n > 500:
        for start in rng.integers(0, n - 400, size=2):
            keep[start : start + int(rng.integers(50, 250))] = False
    return times[keep], values[keep]


@dataclass
class LoadgenReport:
    """Outcome of one ingest load run."""

    #: ``"pool"`` or ``"gateway"``.
    mode: str
    #: Concurrent sessions driven.
    n_sessions: int = 0
    #: Stream time generated per session, seconds.
    duration_seconds: float = 0.0
    #: Push rounds the run was chunked into.
    rounds: int = 0
    #: Samples pushed across all sessions.
    samples_pushed: int = 0
    #: Events emitted across all sessions (pool) / delivered (gateway).
    events_emitted: int = 0
    #: Wall-clock seconds for the whole run (connect through results).
    wall_seconds: float = 0.0
    #: Per-session tick latencies, seconds.
    tick_seconds: list[float] = field(default_factory=list, repr=False)
    #: Worker failovers that happened (pool mode).
    recoveries: int = 0
    #: ``"forked"`` or ``"in-process"`` (pool mode); ``"asyncio"`` otherwise.
    execution_mode: str = "asyncio"

    @property
    def samples_per_second(self) -> float:
        """Ingested samples per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.samples_pushed / self.wall_seconds

    @property
    def events_per_second(self) -> float:
        """Emitted events per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_emitted / self.wall_seconds

    @property
    def p99_tick_seconds(self) -> float:
        """99th-percentile per-session tick latency."""
        return percentile(self.tick_seconds, 0.99)

    @property
    def mean_tick_seconds(self) -> float:
        if not self.tick_seconds:
            return 0.0
        return sum(self.tick_seconds) / len(self.tick_seconds)

    def as_dict(self) -> dict:
        """JSON-ready summary (drops the raw latency samples)."""
        return {
            "mode": self.mode,
            "n_sessions": self.n_sessions,
            "duration_seconds": self.duration_seconds,
            "rounds": self.rounds,
            "samples_pushed": self.samples_pushed,
            "events_emitted": self.events_emitted,
            "wall_seconds": self.wall_seconds,
            "samples_per_second": self.samples_per_second,
            "events_per_second": self.events_per_second,
            "p99_tick_seconds": self.p99_tick_seconds,
            "mean_tick_seconds": self.mean_tick_seconds,
            "tick_samples": len(self.tick_seconds),
            "recoveries": self.recoveries,
            "execution_mode": self.execution_mode,
        }


def run_pool_load(
    n_sessions: int = 64,
    n_workers: int = 2,
    duration_seconds: float = 2.0,
    rounds: int = 4,
    backend=None,
    checkpoint_every_ticks: int = 4,
    kill_worker_round: int | None = None,
) -> LoadgenReport:
    """Drive *n_sessions* concurrent sessions through a worker pool.

    Each round pushes one chunk of every session's stream and ticks the
    pool; ``kill_worker_round`` (when set) SIGKILLs one worker right
    after that round's pushes, so the measured throughput includes a
    full checkpoint-plus-replay failover.
    """
    if isinstance(backend, str):
        from repro.pipelines.common import backend_from_name

        backend = backend_from_name(backend)
    streams = {
        f"session-{seed:04d}": synthetic_stream(seed, duration_seconds)
        for seed in range(n_sessions)
    }
    report = LoadgenReport(
        mode="pool",
        n_sessions=n_sessions,
        duration_seconds=duration_seconds,
        rounds=rounds,
    )
    began = time.perf_counter()
    pool = IngestWorkerPool(
        CATALOG,
        n_workers=n_workers,
        checkpoint_every_ticks=checkpoint_every_ticks,
        window_size=TICKS_PER_SECOND,
        backend=backend,
    )
    try:
        for client_id in streams:
            pool.connect(client_id, "vitals")
        victim = pool.worker_ids[0] if kill_worker_round is not None else None
        chunk = max(1, -(-max(len(t) for t, _ in streams.values()) // rounds))
        for round_index in range(rounds):
            start = round_index * chunk
            for client_id, (times, values) in streams.items():
                batch = times[start : start + chunk]
                if batch.size:
                    pool.push(client_id, "ecg", batch, values[start : start + chunk])
                    report.samples_pushed += int(batch.size)
            if round_index == kill_worker_round and victim is not None:
                pool.kill_worker(victim)
            ticked = pool.tick()
            report.tick_seconds.extend(
                stats.elapsed_seconds for stats in ticked.ticks.values()
            )
        drained = pool.finish()
        report.tick_seconds.extend(
            stats.elapsed_seconds for stats in drained.ticks.values()
        )
        results = pool.results()
        report.events_emitted = sum(len(r.times) for r in results.values())
        report.recoveries = len(pool.recoveries)
        report.execution_mode = pool.execution_mode
    finally:
        pool.close()
    report.wall_seconds = time.perf_counter() - began
    return report


async def _gateway_load(
    streams: dict[str, tuple[np.ndarray, np.ndarray]],
    rounds: int,
    report: LoadgenReport,
) -> None:
    async def drain(subscription) -> int:
        received = 0
        async for batch in subscription:
            received += len(batch)
        return received

    async with IngestGateway(window_size=TICKS_PER_SECOND) as gateway:
        consumers = []
        for client_id in streams:
            await gateway.connect(
                loadgen_query(), {"ecg": StreamSpec(PERIOD)}, client_id=client_id
            )
            consumers.append(asyncio.ensure_future(drain(gateway.subscribe(client_id))))
        chunk = max(1, -(-max(len(t) for t, _ in streams.values()) // rounds))
        for round_index in range(rounds):
            start = round_index * chunk
            for client_id, (times, values) in streams.items():
                batch = times[start : start + chunk]
                if batch.size:
                    await gateway.push(
                        client_id, "ecg", batch, values[start : start + chunk]
                    )
                    report.samples_pushed += int(batch.size)
            await gateway.flush()
        for client_id in streams:
            await gateway.disconnect(client_id)
        report.events_emitted = sum(await asyncio.gather(*consumers))
        report.tick_seconds.extend(gateway.stats.tick_seconds)


def run_gateway_load(
    n_sessions: int = 32,
    duration_seconds: float = 2.0,
    rounds: int = 4,
) -> LoadgenReport:
    """Drive *n_sessions* push/subscribe sessions on one asyncio gateway."""
    streams = {
        f"session-{seed:04d}": synthetic_stream(seed, duration_seconds)
        for seed in range(n_sessions)
    }
    report = LoadgenReport(
        mode="gateway",
        n_sessions=n_sessions,
        duration_seconds=duration_seconds,
        rounds=rounds,
    )
    began = time.perf_counter()
    asyncio.run(_gateway_load(streams, rounds, report))
    report.wall_seconds = time.perf_counter() - began
    return report


def _print_report(report: LoadgenReport) -> None:  # pragma: no cover - demo script
    print(
        f"\nmode={report.mode} ({report.execution_mode})  "
        f"sessions={report.n_sessions}  rounds={report.rounds}"
    )
    print(
        f"  pushed {report.samples_pushed} samples, emitted {report.events_emitted} "
        f"events in {report.wall_seconds:.2f}s"
    )
    print(
        f"  {report.samples_per_second / 1e3:.1f}k samples/s, "
        f"{report.events_per_second:.0f} events/s, "
        f"tick p99 {report.p99_tick_seconds * 1e3:.2f} ms "
        f"(mean {report.mean_tick_seconds * 1e3:.2f} ms, "
        f"n={len(report.tick_seconds)})"
    )
    if report.recoveries:
        print(f"  survived {report.recoveries} worker failover(s)")


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - demo script
    """Run a small pool load (with one failover) and a gateway load."""
    import argparse

    from repro.pipelines.common import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        description="Generate concurrent push load against the ingest subsystem."
    )
    parser.add_argument("--mode", choices=("pool", "gateway", "both"), default="both")
    parser.add_argument("--sessions", type=int, default=64)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="serial",
        help="execution backend for pool-mode sessions",
    )
    parser.add_argument(
        "--kill-worker-round",
        type=int,
        default=None,
        help="SIGKILL one pool worker after this push round (failover demo)",
    )
    args = parser.parse_args(argv)

    if args.mode in ("pool", "both"):
        _print_report(
            run_pool_load(
                n_sessions=args.sessions,
                n_workers=args.workers,
                duration_seconds=args.seconds,
                rounds=args.rounds,
                backend=args.backend,
                kill_worker_round=args.kill_worker_round,
            )
        )
    if args.mode in ("gateway", "both"):
        _print_report(
            run_gateway_load(
                n_sessions=args.sessions,
                duration_seconds=args.seconds,
                rounds=args.rounds,
            )
        )


if __name__ == "__main__":  # pragma: no cover
    main()
