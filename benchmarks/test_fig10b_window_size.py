"""Figure 10(b) — sensitivity of the end-to-end pipeline to the window size.

Paper result: on the synthetic (gap-free) dataset, LifeStream keeps its
advantage over Trill as the FWindow size grows from 1 minute to 1 hour —
performance is essentially flat across window sizes.

The reproduction sweeps the LifeStream window size over the same range on a
continuous ECG/ABP pair and also measures the Trill baseline (whose batch
size is its own tuning knob and stays at the default) as the reference line.
"""

import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.bench.workloads import continuous_e2e_dataset
from repro.core.timeutil import TICKS_PER_MINUTE, TICKS_PER_SECOND
from repro.pipelines.e2e import run_lifestream_e2e, run_trill_e2e

#: Window sizes in minutes (the paper sweeps 1 to 60 minutes).
WINDOW_MINUTES = (1, 5, 10, 30, 60)
DURATION_SECONDS = 3700.0

HEADERS = ["window (min)", "engine", "events", "seconds", "million events/s"]


@pytest.fixture(scope="module")
def dataset():
    return continuous_e2e_dataset(duration_seconds=DURATION_SECONDS, seed=7)


def _record(registry, key, benchmark, fn, events):
    report = get_report(
        registry, "fig10b_window_size", "Figure 10(b) — window-size sensitivity", HEADERS
    )
    seconds, _ = timed_benchmark(benchmark, fn, rounds=3)
    report.record(key, [key[0], key[1], events, seconds, events / seconds / 1e6])


@pytest.mark.parametrize("minutes", WINDOW_MINUTES)
def test_window_size_lifestream(benchmark, report_registry, dataset, minutes):
    ecg, abp = dataset
    events = ecg[0].size + abp[0].size
    _record(
        report_registry,
        (minutes, "lifestream"),
        benchmark,
        lambda: run_lifestream_e2e(ecg, abp, window_size=minutes * TICKS_PER_MINUTE),
        events,
    )


def test_window_size_trill_reference(benchmark, report_registry, dataset):
    ecg, abp = dataset
    events = ecg[0].size + abp[0].size
    _record(
        report_registry,
        (0, "trill (reference)"),
        benchmark,
        lambda: run_trill_e2e(ecg, abp),
        events,
    )


def test_performance_stable_across_window_sizes(benchmark, report_registry, dataset):
    """A 60x larger window changes how many windows run, not what is
    emitted: the same number of events at both ends of the sweep, and
    windows computed in proportion to the number of windows the stream
    spans.  The runtime ratio is reported, not gated."""
    ecg, abp = dataset
    sizes = (WINDOW_MINUTES[0], WINDOW_MINUTES[-1])

    def run():
        return {
            minutes: run_lifestream_e2e(ecg, abp, window_size=minutes * TICKS_PER_MINUTE)
            for minutes in sizes
        }

    _, runs = timed_benchmark(benchmark, run)
    small, large = (runs[minutes] for minutes in sizes)
    assert small.events_emitted == large.events_emitted > 0
    span = int(DURATION_SECONDS * TICKS_PER_SECOND)
    spanned = {minutes: -(-span // (minutes * TICKS_PER_MINUTE)) for minutes in sizes}
    assert (
        small.extra["windows_computed"] * spanned[sizes[1]]
        == large.extra["windows_computed"] * spanned[sizes[0]]
    )

    report = get_report(
        report_registry, "fig10b_window_size", "Figure 10(b) — window-size sensitivity", HEADERS
    )
    # Publish the ratio over the table's own recorded endpoint timings when
    # they exist, so a reader of the JSON can recompute it; the paired run
    # above is the fallback when this test runs in isolation.
    timings = {
        minutes: report.rows[(minutes, "lifestream")][3]
        for minutes in sizes
        if (minutes, "lifestream") in report.rows
    }
    if len(timings) < 2:
        timings = {minutes: runs[minutes].elapsed_seconds for minutes in sizes}
    ratio = max(timings.values()) / min(timings.values())
    report.note(f"largest/smallest-window runtime ratio: {ratio:.2f}x")
