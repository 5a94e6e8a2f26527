"""The end-to-end benchmark pipeline (Figure 3 of the paper).

The pipeline joins a 500 Hz ECG signal with a 125 Hz ABP signal: both
signals have their small gaps imputed, the ABP signal is upsampled to the
ECG rate, both are normalised, and the two streams are inner-joined on
event time.  This module builds the pipeline on all three systems —
LifeStream, the Trill-like baseline and the NumLib baseline — from the same
input arrays, so the Figure 9(c) benchmark compares identical workloads.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.numlib.pipeline import run_e2e_pipeline as numlib_e2e
from repro.baselines.trill.engine import TrillEngine, TrillInput
from repro.baselines.trill.operators import TrillJoin, TrillResample, TrillWindowTransform
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.timeutil import TICKS_PER_MINUTE, TICKS_PER_SECOND, period_from_hz
from repro.ops import combine, kernels
from repro.ops.operations import _wrap_window_kernel
from repro.pipelines.common import PipelineRun

#: Sampling rates of the two signals (Section 7 of the paper).
ECG_HZ = 500.0
ABP_HZ = 125.0
#: Gaps smaller than this many ticks are imputed.
DEFAULT_FILL_GAP = 64
#: Window used for the standard-score normalisation stage (one second).
DEFAULT_NORMALIZE_WINDOW = TICKS_PER_SECOND


def lifestream_e2e_query(
    fill_gap: int = DEFAULT_FILL_GAP,
    normalize_window: int = DEFAULT_NORMALIZE_WINDOW,
    resample_mode: str = "interpolate",
) -> Query:
    """Build the Figure 3 pipeline as a LifeStream query over sources ``ecg``/``abp``.

    ``resample_mode`` selects the ABP upsampling strategy.  The paper's
    pipeline interpolates; the backend-comparison benchmark uses ``"hold"``,
    whose output is invariant to the window geometry, so the whole plan
    lowers to run kernels.
    """
    ecg_period = period_from_hz(ECG_HZ)
    abp_period = period_from_hz(ABP_HZ)

    ecg = (
        Query.source("ecg", frequency_hz=ECG_HZ)
        .transform(normalize_window, kernels.fill_mean_kernel(fill_gap // ecg_period))
        .transform(normalize_window, kernels.zscore_kernel())
    )
    abp = (
        Query.source("abp", frequency_hz=ABP_HZ)
        .transform(normalize_window, kernels.fill_mean_kernel(fill_gap // abp_period))
        .resample(frequency_hz=ECG_HZ, mode=resample_mode)
        .transform(normalize_window, kernels.zscore_kernel())
    )
    # combine.sub (not an inline lambda) so the LSQL front-end's `combine=sub`
    # resolves to the identical function object and both authoring paths get
    # one plan_signature — the PlanCache then shares the compiled template.
    return ecg.join(abp, combine.sub)


def run_lifestream_e2e(
    ecg: tuple[np.ndarray, np.ndarray],
    abp: tuple[np.ndarray, np.ndarray],
    window_size: int = TICKS_PER_MINUTE,
    targeted: bool = True,
    tracer=None,
    fill_gap: int = DEFAULT_FILL_GAP,
    normalize_window: int = DEFAULT_NORMALIZE_WINDOW,
    backend=None,
    optimization_level: int = 2,
) -> PipelineRun:
    """Run the Figure 3 pipeline on LifeStream.

    ``backend`` selects the execution backend (the engine default when
    None; a string is resolved by CLI name) and ``optimization_level`` the
    compiler pipeline's rewriting passes — the knobs the backend-comparison
    and multi-core benchmarks sweep.  ``extra["backend"]`` is the mode that
    actually ran (``result.stats.execution_mode``).
    """
    from repro.core.sources import ArraySource
    from repro.pipelines.common import backend_from_name

    if isinstance(backend, str):
        backend = backend_from_name(backend)
    ecg_source = ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ))
    abp_source = ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ))
    engine = LifeStreamEngine(
        window_size=window_size,
        targeted=targeted,
        tracer=tracer,
        backend=backend,
        optimization_level=optimization_level,
    )
    query = lifestream_e2e_query(fill_gap=fill_gap, normalize_window=normalize_window)

    began = time.perf_counter()
    result = engine.compile(query, sources={"ecg": ecg_source, "abp": abp_source}).run()
    elapsed = time.perf_counter() - began
    extra = {
        "windows_computed": result.stats.windows_computed,
        "windows_skipped": result.stats.windows_skipped,
        "preallocated_bytes": result.stats.preallocated_bytes,
        "targeted": targeted,
        "backend": result.stats.execution_mode,
    }
    if result.stats.fallback_reason is not None:
        extra["fallback_reason"] = result.stats.fallback_reason
    return PipelineRun(
        engine="lifestream",
        elapsed_seconds=elapsed,
        events_ingested=result.stats.events_ingested,
        events_emitted=result.stats.events_emitted,
        extra=extra,
    )


def run_trill_e2e(
    ecg: tuple[np.ndarray, np.ndarray],
    abp: tuple[np.ndarray, np.ndarray],
    batch_size: int = 4096,
    memory_budget_bytes: int = 256 * 1024 * 1024,
    tracer=None,
    fill_gap: int = DEFAULT_FILL_GAP,
    normalize_window: int = DEFAULT_NORMALIZE_WINDOW,
) -> PipelineRun:
    """Run the Figure 3 pipeline on the Trill-like baseline.

    Raises :class:`~repro.errors.TrillOutOfMemoryError` when the join state
    exceeds the configured budget (the Section 8.3 behaviour).
    """
    ecg_period = period_from_hz(ECG_HZ)
    abp_period = period_from_hz(ABP_HZ)
    engine = TrillEngine(
        batch_size=batch_size, memory_budget_bytes=memory_budget_bytes, tracer=tracer
    )

    left_ops = [
        TrillWindowTransform(
            normalize_window,
            _wrap_window_kernel(kernels.fill_mean_kernel(fill_gap // ecg_period)),
            tracer,
        ),
        TrillWindowTransform(
            normalize_window, _wrap_window_kernel(kernels.zscore_kernel()), tracer
        ),
    ]
    right_ops = [
        TrillWindowTransform(
            normalize_window,
            _wrap_window_kernel(kernels.fill_mean_kernel(fill_gap // abp_period)),
            tracer,
        ),
        TrillResample(ecg_period, tracer),
        TrillWindowTransform(
            normalize_window, _wrap_window_kernel(kernels.zscore_kernel()), tracer
        ),
    ]
    join = TrillJoin(combine=lambda left, right: left - right, tracer=tracer)

    began = time.perf_counter()
    times, values, stats = engine.run_join(
        TrillInput(ecg[0], ecg[1], ecg_period),
        TrillInput(abp[0], abp[1], abp_period),
        left_ops,
        right_ops,
        join,
    )
    elapsed = time.perf_counter() - began
    return PipelineRun(
        engine="trill",
        elapsed_seconds=elapsed,
        events_ingested=stats.events_ingested,
        events_emitted=int(times.size),
        extra={
            "peak_state_bytes": stats.peak_state_bytes,
            "batches_processed": stats.batches_processed,
        },
    )


def run_numlib_e2e(
    ecg: tuple[np.ndarray, np.ndarray],
    abp: tuple[np.ndarray, np.ndarray],
    fill_gap: int = DEFAULT_FILL_GAP,
    normalize_window: int = DEFAULT_NORMALIZE_WINDOW,
) -> PipelineRun:
    """Run the Figure 3 pipeline on the NumLib baseline."""
    ecg_period = period_from_hz(ECG_HZ)
    times, values, stats = numlib_e2e(
        ecg[0],
        ecg[1],
        abp[0],
        abp[1],
        ecg_period=ecg_period,
        abp_period=period_from_hz(ABP_HZ),
        fill_gap=fill_gap,
        normalize_window_samples=normalize_window // ecg_period,
    )
    return PipelineRun(
        engine="numlib",
        elapsed_seconds=stats.elapsed_seconds,
        events_ingested=stats.events_ingested,
        events_emitted=stats.events_emitted,
    )


#: Engines supported by :func:`run_e2e`.
E2E_ENGINES = ("lifestream", "trill", "numlib")


def run_e2e(
    engine: str,
    ecg: tuple[np.ndarray, np.ndarray],
    abp: tuple[np.ndarray, np.ndarray],
    **kwargs,
) -> PipelineRun:
    """Dispatch the Figure 3 pipeline to one of the three engines by name."""
    if engine == "lifestream":
        return run_lifestream_e2e(ecg, abp, **kwargs)
    if engine == "trill":
        return run_trill_e2e(ecg, abp, **kwargs)
    if engine == "numlib":
        return run_numlib_e2e(ecg, abp, **kwargs)
    raise ValueError(f"unknown engine {engine!r}; expected one of {E2E_ENGINES}")


def main(argv: list[str] | None = None) -> None:
    """Run the Figure 3 pipeline once from the command line and print stats."""
    import argparse

    from repro.bench.workloads import e2e_dataset
    from repro.pipelines.common import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        description="Run the Figure 3 ECG+ABP pipeline on one engine."
    )
    parser.add_argument("--engine", choices=E2E_ENGINES, default="lifestream")
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="vectorized",
        help="LifeStream execution backend (ignored by the baseline engines)",
    )
    parser.add_argument("--duration", type=float, default=60.0, metavar="SECONDS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window-size", type=int, default=TICKS_PER_MINUTE)
    parser.add_argument(
        "--eager", action="store_true", help="run eagerly instead of targeted"
    )
    parser.add_argument(
        "--query",
        metavar="FILE",
        help="run an LSQL query file over the synthesized dataset instead of "
        "the built-in pipeline (lifestream engine only; see repro.lang)",
    )
    args = parser.parse_args(argv)

    if args.query is not None:
        from repro.analysis.diagnostics import has_errors, render_text
        from repro.lang.__main__ import load_query_file
        from repro.lang.runner import run_resolved

        resolved = load_query_file(args.query)
        if resolved.diagnostics:
            print(render_text(resolved.diagnostics))
        if resolved.query is None or has_errors(resolved.diagnostics):
            raise SystemExit(1)
        result = run_resolved(
            resolved,
            duration_seconds=args.duration,
            seed=args.seed,
            window_size=args.window_size,
            targeted=not args.eager,
        )
        print(
            f"engine=lifestream  query={args.query}  sink={resolved.sink_name}  "
            f"elapsed={result.stats.elapsed_seconds * 1e3:.1f} ms  "
            f"ingested={result.stats.events_ingested}  "
            f"emitted={result.stats.events_emitted}"
        )
        return

    ecg, abp = e2e_dataset(duration_seconds=args.duration, seed=args.seed)
    kwargs = {}
    if args.engine == "lifestream":
        kwargs = {
            "backend": args.backend,
            "window_size": args.window_size,
            "targeted": not args.eager,
        }
    run = run_e2e(args.engine, ecg, abp, **kwargs)
    print(
        f"engine={run.engine}  backend={run.extra.get('backend', 'n/a')}  "
        f"elapsed={run.elapsed_seconds * 1e3:.1f} ms  "
        f"ingested={run.events_ingested}  emitted={run.events_emitted}  "
        f"throughput={run.throughput_events_per_second / 1e6:.2f} M events/s"
    )
    if "fallback_reason" in run.extra:
        print(f"fell back because: {run.extra['fallback_reason']}")


if __name__ == "__main__":  # pragma: no cover
    main()
