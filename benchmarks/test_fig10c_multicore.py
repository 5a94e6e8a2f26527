"""Figure 10(c) — multi-core scaling of the end-to-end pipeline.

Paper result (32-core m5a.8xlarge): LifeStream scales to 32 threads and
peaks ~6× above Trill and ~1.9× above NumLib; Trill crashes with OOM beyond
12 threads; NumLib saturates around 24 threads.

The reproduction (i) measures real patient-level data-parallel execution
of the Figure 3 pipeline over a small cohort (one patient per task, the
paper's scale-out unit) at 1 and 2 workers, the counts that fit a laptop,
and (ii) calibrates the analytic per-engine scaling model with the measured
single-worker throughput to reproduce the full 1–48 thread curves (the
documented substitution for the 32-core machine).
"""

import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.bench.workloads import scaling_cohort
from repro.scaling import ScalingModel, measure_single_worker_throughput, run_data_parallel

THREAD_COUNTS = (1, 2, 4, 8, 12, 16, 24, 32, 48)

HEADERS = ["engine", "workers", "million events/s", "failed"]


@pytest.fixture(scope="module")
def cohort():
    return scaling_cohort(n_patients=4, duration_seconds=30.0, seed=0)


@pytest.fixture(scope="module")
def single_worker_throughputs(cohort):
    return {
        engine: measure_single_worker_throughput(engine, cohort[0])
        for engine in ("lifestream", "trill", "numlib")
    }


def _report(registry):
    return get_report(
        registry, "fig10c_multicore", "Figure 10(c) — multi-core scaling (modelled curves)", HEADERS
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_real_data_parallel_lifestream(benchmark, report_registry, cohort, workers):
    """Real multiprocessing execution for the worker counts that fit a laptop."""
    seconds, point = timed_benchmark(
        benchmark, lambda: run_data_parallel("lifestream", cohort, n_workers=workers)
    )
    report = _report(report_registry)
    report.record(
        ("lifestream (measured)", workers),
        ["lifestream (measured)", workers, point.throughput_events_per_second / 1e6, False],
    )
    if workers > 1:
        report.note(
            f"The measured {workers}-worker point includes spawning its worker "
            "processes, which dominates at this cohort size."
        )
    assert point.throughput_events_per_second > 0


@pytest.mark.parametrize("engine", ["lifestream", "trill", "numlib"])
def test_modelled_scaling_curve(benchmark, report_registry, single_worker_throughputs, engine):
    """Modelled 1–48 worker curve calibrated from the measured single-worker run."""
    base = single_worker_throughputs[engine]

    def run():
        model = ScalingModel.for_engine(engine, base)
        return model.curve(list(THREAD_COUNTS))

    seconds, curve = timed_benchmark(benchmark, run)
    report = _report(report_registry)
    for point in curve.points:
        report.record(
            (engine, point.workers),
            [engine, point.workers, point.throughput_events_per_second / 1e6, point.failed],
        )


def test_paper_claims_hold_on_modelled_curves(benchmark, report_registry, single_worker_throughputs):
    """The model's own shape, not measured times: LifeStream gains the most
    over its single worker, Trill fails only beyond 12 workers, and NumLib
    saturates at 24.  The measured peak ratio is a report note."""

    def run():
        curves = {
            engine: ScalingModel.for_engine(engine, single_worker_throughputs[engine]).curve(
                list(THREAD_COUNTS)
            )
            for engine in ("lifestream", "trill", "numlib")
        }
        return curves

    _, curves = timed_benchmark(benchmark, run)
    gain = {
        engine: curve.peak_throughput() / single_worker_throughputs[engine]
        for engine, curve in curves.items()
    }
    assert gain["lifestream"] > gain["trill"]
    assert gain["lifestream"] > gain["numlib"]
    trill_failures = [p.workers for p in curves["trill"].points if p.failed]
    assert trill_failures and min(trill_failures) > 12
    numlib = {p.workers: p.throughput_events_per_second for p in curves["numlib"].points}
    assert numlib[16] < numlib[24] == numlib[32] == numlib[48]
    report = _report(report_registry)
    report.note(
        "LifeStream peak / Trill peak = "
        f"{curves['lifestream'].peak_throughput() / curves['trill'].peak_throughput():.2f}x "
        "(measured single-worker throughputs); Trill OOMs beyond 12 workers; "
        "NumLib saturates at 24."
    )
