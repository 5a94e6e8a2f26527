"""Live replay of the Figure 3 workload, tick by tick.

Section 2 of the paper: analysts develop pipelines against retrospective
data and then deploy them unchanged on live streams.  This module is the
deployment half of that story — it replays the Figure 3 ECG+ABP workload
through a :class:`~repro.core.runtime.session.StreamingSession`, advancing
the :class:`~repro.core.sources.ReplaySource` watermark one tick at a time
exactly as a bedside monitor would deliver data, and executing only the
newly-covered output windows on each tick instead of recompiling and
re-running from time zero.

Run as a script for a printed tick-by-tick trace::

    PYTHONPATH=src python -m repro.pipelines.live
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import LifeStreamEngine
from repro.core.runtime.session import TickStats
from repro.core.sources import ArraySource, ReplaySource
from repro.core.timeutil import TICKS_PER_SECOND, period_from_hz
from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query


@dataclass
class LiveReplayReport:
    """Outcome of one tick-by-tick replay of the Figure 3 workload."""

    #: Per-tick instrumentation from the streaming session.
    ticks: list[TickStats] = field(default_factory=list)
    #: Events emitted over the whole replay.
    events_emitted: int = 0
    #: Events ingested from both signals.
    events_ingested: int = 0
    #: Total session wall-clock seconds (sum over ticks).
    session_seconds: float = 0.0
    #: Wall-clock seconds of the one-shot batch run over the same data.
    batch_seconds: float = 0.0
    #: Whether the incremental results were bit-identical to the batch run.
    parity: bool = False
    #: Name of the execution backend that drove the session.
    backend: str = "serial"

    @property
    def mean_tick_seconds(self) -> float:
        """Mean per-tick latency."""
        if not self.ticks:
            return 0.0
        return self.session_seconds / len(self.ticks)

    @property
    def max_tick_seconds(self) -> float:
        """Worst-case per-tick latency."""
        return max((t.elapsed_seconds for t in self.ticks), default=0.0)


def replay_e2e_live(
    ecg: tuple[np.ndarray, np.ndarray],
    abp: tuple[np.ndarray, np.ndarray],
    tick: int = TICKS_PER_SECOND,
    window_size: int = TICKS_PER_SECOND,
    targeted: bool = True,
    backend=None,
    resample_mode: str = "interpolate",
    verify: bool = True,
) -> LiveReplayReport:
    """Replay the Figure 3 pipeline tick-by-tick through a streaming session.

    Both signals are wrapped in :class:`ReplaySource`s whose shared
    watermark advances by *tick* ticks per session tick.  With ``verify``
    (the default) the same query is also run one-shot over the full data
    and the report records whether the incremental results were
    bit-identical — the session-loop guarantee the parity suite asserts.
    """
    if isinstance(backend, str):
        from repro.pipelines.common import backend_from_name

        backend = backend_from_name(backend)
    ecg_period = period_from_hz(ECG_HZ)
    abp_period = period_from_hz(ABP_HZ)
    query = lifestream_e2e_query(resample_mode=resample_mode)
    engine = LifeStreamEngine(window_size=window_size, targeted=targeted, backend=backend)

    ecg_replay = ReplaySource(ArraySource(ecg[0], ecg[1], period=ecg_period))
    abp_replay = ReplaySource(ArraySource(abp[0], abp[1], period=abp_period))
    session = engine.open_session(query, {"ecg": ecg_replay, "abp": abp_replay})

    end = max(
        int(ecg[0][-1]) + ecg_period if ecg[0].size else 0,
        int(abp[0][-1]) + abp_period if abp[0].size else 0,
    )
    start = min(
        int(ecg[0][0]) if ecg[0].size else 0,
        int(abp[0][0]) if abp[0].size else 0,
    )
    for watermark in range(start + tick, end + tick, tick):
        session.advance(watermark)
    session.finish()
    live = session.result()
    report = LiveReplayReport(
        ticks=session.ticks,
        events_emitted=int(live.times.size),
        events_ingested=live.stats.events_ingested,
        session_seconds=sum(t.elapsed_seconds for t in session.ticks),
        backend=session.backend_name,
    )
    session.close()

    if verify:
        batch_sources = {
            "ecg": ArraySource(ecg[0], ecg[1], period=ecg_period),
            "abp": ArraySource(abp[0], abp[1], period=abp_period),
        }
        batch = engine.run(query, batch_sources, targeted=targeted)
        report.batch_seconds = batch.stats.elapsed_seconds
        report.parity = (
            np.array_equal(live.times, batch.times)
            and np.array_equal(live.values, batch.values)
            and np.array_equal(live.durations, batch.durations)
        )
    return report


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - demo script
    """Replay 30 seconds of synthetic ECG+ABP and print the tick trace."""
    import argparse

    from repro.bench.workloads import e2e_dataset
    from repro.pipelines.common import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        description="Replay the Figure 3 workload tick-by-tick."
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="vectorized",
        help="execution backend driving the streaming session",
    )
    parser.add_argument("--duration", type=float, default=30.0, metavar="SECONDS")
    args = parser.parse_args(argv)

    ecg, abp = e2e_dataset(duration_seconds=args.duration, seed=30)
    report = replay_e2e_live(ecg, abp, backend=args.backend)
    print(f"backend={report.backend}  ticks={len(report.ticks)}  "
          f"events={report.events_emitted}  parity={report.parity}")
    print(f"{'tick':>4} {'watermark':>10} {'windows':>8} {'deferred':>9} "
          f"{'events':>8} {'ms':>8}")
    for tick in report.ticks:
        print(f"{tick.index:>4} {tick.watermark!s:>10} {tick.windows_run:>8} "
              f"{tick.windows_deferred:>9} {tick.events_emitted:>8} "
              f"{tick.elapsed_seconds * 1e3:>8.2f}")
    print(f"session total {report.session_seconds:.3f}s  "
          f"(mean tick {report.mean_tick_seconds * 1e3:.2f} ms, "
          f"max {report.max_tick_seconds * 1e3:.2f} ms); "
          f"one-shot batch run {report.batch_seconds:.3f}s")


if __name__ == "__main__":  # pragma: no cover
    main()
