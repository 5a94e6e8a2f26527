"""Multi-tenant serving demo: a patient cohort behind one StreamingService.

The deployment half of the paper's patient-level-scale story (Figure
10(c)/(d)): every bedside monitor in a cohort streams into the same query
shape, so the service compiles the plan once, instantiates a per-patient
session from the cached template, and ticks the whole cohort with one
``pump`` per watermark: sessions of one template with one ready window
each execute together as a cross-tenant cohort.  With ``n_workers > 1``
the cohort is hosted, whole sessions at a time, on the forked workers of
an :class:`~repro.ingest.IngestWorkerPool`: each patient's samples are
pushed one watermark slice at a time and the pool ticks all workers at
once.  Either way every patient's served result is compared with a
one-shot run over the same data (``parity``).

Run as a script for a printed cohort trace::

    PYTHONPATH=src python -m repro.pipelines.serve
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.sources import ArraySource, ReplaySource
from repro.core.timeutil import TICKS_PER_SECOND
from repro.ingest import IngestWorkerPool, QueryShape, StreamSpec
from repro.serve import StreamingService


@dataclass
class CohortServeReport:
    """Outcome of serving one synthetic cohort tick-by-tick."""

    #: Patients served.
    n_patients: int = 0
    #: Watermarks pumped (excluding the final drain).
    n_pumps: int = 0
    #: Windows executed across the whole cohort.
    windows_run: int = 0
    #: Events emitted across the whole cohort.
    events_emitted: int = 0
    #: Plan compiles actually performed (cache misses).
    compiles: int = 0
    #: Plan-cache hits (clients served from the template).
    cache_hits: int = 0
    #: Execution mode: "in-process", or "forked" on a worker pool.
    execution_mode: str = "in-process"
    #: Wall-clock seconds inside the per-session tick loops.
    session_seconds: float = 0.0
    #: Per-pump ``(watermark, windows, events)`` rows for the trace.
    pump_rows: list[tuple[int, int, int]] = field(default_factory=list)
    #: Most sessions that executed one window together (a cross-tenant
    #: cohort); 1 when every tick ran alone.
    largest_cohort: int = 0
    #: Whether every patient's served result is bit-identical to a one-shot
    #: run of the same query over the same data.
    parity: bool = False


def cohort_query() -> Query:
    """The per-patient pipeline: despike, rescale, one-second trend means."""
    return (
        Query.source("ecg", frequency_hz=500)
        .where(lambda v: np.abs(v) < 8.0)
        .select(lambda v: v * 1.25 + 0.5)
        .tumbling_window(TICKS_PER_SECOND // 4)
        .mean()
    )


def synthetic_patient(seed: int, duration_seconds: float = 8.0) -> ArraySource:
    """A gappy synthetic ECG-like stream, distinct per patient."""
    rng = np.random.default_rng(seed)
    n = int(duration_seconds * 500)
    times = np.arange(n, dtype=np.int64) * 2
    values = (
        np.sin(np.arange(n) * (0.04 + 0.004 * (seed % 7)))
        + 0.1 * rng.standard_normal(n)
    )
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, max(1, n - 400), size=3):
        keep[start : start + int(rng.integers(50, 300))] = False
    return ArraySource(times[keep], values[keep] * 3.0, period=2)


def _identical(served, reference) -> bool:
    return (
        np.array_equal(served.times, reference.times)
        and np.array_equal(served.values, reference.values, equal_nan=True)
        and np.array_equal(served.durations, reference.durations)
    )


def serve_cohort(
    n_patients: int = 12,
    duration_seconds: float = 8.0,
    tick: int = TICKS_PER_SECOND,
    window_size: int = TICKS_PER_SECOND,
    n_workers: int = 1,
    backend=None,
    query: Query | None = None,
    descriptors=None,
) -> CohortServeReport:
    """Serve *n_patients* synthetic patients through one service.

    One ``pump`` per watermark ticks the whole cohort; the report
    aggregates the per-pump work and the plan-cache accounting.  With
    ``n_workers > 1`` the cohort is spread over a worker pool's processes.
    ``backend`` (an instance or a CLI name) selects the execution backend
    every session in the cohort runs on.

    Pass *query* (with its declared *descriptors*, e.g. from a resolved
    LSQL file) to serve that pipeline instead of the built-in
    :func:`cohort_query`; each patient then streams its own synthesized
    data on the declared grids (seeded per patient).
    """
    if isinstance(backend, str):
        from repro.pipelines.common import backend_from_name

        backend = backend_from_name(backend)
    end = int(duration_seconds * TICKS_PER_SECOND)
    watermarks = list(range(tick, end + 2 * tick, tick))
    report = CohortServeReport(n_patients=n_patients, n_pumps=len(watermarks))

    def patient_sources(seed):
        if query is not None:
            from repro.lang.runner import synthesize_sources

            return synthesize_sources(
                descriptors or {}, duration_seconds=duration_seconds, seed=seed
            )
        return {"ecg": synthetic_patient(seed, duration_seconds)}

    def patient_query() -> Query:
        return query if query is not None else cohort_query()

    def account(pumped, watermark=None) -> None:
        if watermark is not None:
            report.pump_rows.append(
                (watermark, pumped.windows_run, pumped.events_emitted)
            )
        report.windows_run += pumped.windows_run
        report.events_emitted += pumped.events_emitted
        report.session_seconds += pumped.elapsed_seconds
        report.largest_cohort = max(
            [report.largest_cohort, *(t.cohort_size for t in pumped.ticks.values())]
        )

    cohort = {f"patient-{seed:03d}": patient_sources(seed) for seed in range(n_patients)}
    one_shot = LifeStreamEngine(window_size=window_size, backend=backend)

    def check_parity(served: dict) -> bool:
        return all(
            _identical(served[client_id], one_shot.run(patient_query(), sources))
            for client_id, sources in cohort.items()
        )

    if n_workers > 1:
        streams = {
            name: StreamSpec(source.descriptor.period, source.descriptor.offset)
            for name, source in patient_sources(0).items()
        }
        with IngestWorkerPool(
            {"cohort": QueryShape(patient_query, streams)},
            n_workers=n_workers,
            window_size=window_size,
            backend=backend,
        ) as pool:
            report.execution_mode = pool.execution_mode
            for client_id in cohort:
                pool.connect(client_id, "cohort")
            #: Per stream, the time its pushed data and heartbeats reach.
            through: dict = {}
            sent = min(
                (s.coverage().span()[0] for sources in cohort.values() for s in sources.values()),
                default=0,
            )
            for watermark in watermarks:
                # What a ReplaySource reveals at this watermark: the samples
                # before it, then silence up to it.
                for client_id, sources in cohort.items():
                    for name, source in sources.items():
                        times, values, durations = source.read(sent, watermark)
                        reach = max(through.get((client_id, name), watermark), watermark)
                        if times.size:
                            pool.push(client_id, name, times, values, durations)
                            reach = max(reach, int(times[-1] + durations[-1]))
                        pool.advance(client_id, name, reach)
                        through[client_id, name] = reach
                sent = watermark
                account(pool.tick(), watermark)
            account(pool.finish())
            report.parity = check_parity(pool.results())
            # Every worker inherits the parent's pre-warmed cache, so each
            # worker's miss counter repeats the same pre-fork compiles: the
            # global compile count is the per-worker maximum, while hits
            # are per-worker work (in-process workers share one cache and
            # report the same object, counted once).
            per_worker = {id(stats): stats for stats in pool.cache_stats()}.values()
            report.compiles = max(stats.misses for stats in per_worker)
            report.cache_hits = sum(stats.hits for stats in per_worker)
        return report

    with StreamingService(window_size=window_size, backend=backend) as service:
        for client_id, sources in cohort.items():
            service.open(
                client_id,
                patient_query(),
                {name: ReplaySource(source) for name, source in sources.items()},
            )
        for watermark in watermarks:
            account(service.pump(watermark), watermark)
        account(service.finish())
        report.parity = check_parity(service.results())
        report.compiles = service.cache_stats.misses
        report.cache_hits = service.cache_stats.hits
    return report


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - demo script
    """Serve a 12-patient cohort in-process, then on a 2-worker pool."""
    import argparse

    from repro.pipelines.common import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        description="Serve a synthetic patient cohort through one service."
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="vectorized",
        help="execution backend every cohort session runs on",
    )
    parser.add_argument("--patients", type=int, default=12)
    parser.add_argument(
        "--query",
        metavar="FILE",
        help="serve an LSQL query file for every patient instead of the "
        "built-in cohort pipeline (see repro.lang)",
    )
    args = parser.parse_args(argv)

    query = descriptors = None
    if args.query is not None:
        from repro.analysis.diagnostics import has_errors, render_text
        from repro.lang.__main__ import load_query_file

        resolved = load_query_file(args.query)
        if resolved.diagnostics:
            print(render_text(resolved.diagnostics))
        if resolved.query is None or has_errors(resolved.diagnostics):
            raise SystemExit(1)
        query, descriptors = resolved.query, resolved.descriptors

    for n_workers in (1, 2):
        report = serve_cohort(
            n_patients=args.patients,
            n_workers=n_workers,
            backend=args.backend,
            query=query,
            descriptors=descriptors,
        )
        print(
            f"\nmode={report.execution_mode}  patients={report.n_patients}  "
            f"compiles={report.compiles}  cache hits={report.cache_hits}  "
            f"largest cohort={report.largest_cohort}  parity={report.parity}"
        )
        print(f"{'watermark':>10} {'windows':>8} {'events':>8}")
        for watermark, windows, events in report.pump_rows:
            print(f"{watermark:>10} {windows:>8} {events:>8}")
        print(
            f"total: {report.windows_run} windows, {report.events_emitted} events "
            f"over {report.n_pumps} pumps "
            f"({report.session_seconds * 1e3:.1f} ms in session ticks)"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
