"""Figure 10(a) — effectiveness of targeted query processing.

Paper result: LifeStream's speedup over Trill on the end-to-end pipeline
grows as the fraction of mutually overlapping ECG/ABP data shrinks — from
about 7× at (near) full overlap to about 65× at 10% overlap — because
targeted query processing skips the transforms whose outputs the join would
discard while Trill eagerly processes everything.

The reproduction sweeps the overlap fraction with the controlled-overlap
generator and reports both the LifeStream-vs-Trill speedup and the
targeted-vs-eager speedup on LifeStream itself (the pure ablation).  What
it checks is the mechanism, by count: ``ExecutionStats.windows_skipped``
falls strictly as the overlap grows; the speedups are reported, not gated.
"""

import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.bench.workloads import overlap_dataset
from repro.core.timeutil import TICKS_PER_SECOND
from repro.pipelines.e2e import run_lifestream_e2e, run_trill_e2e

#: Overlap fractions swept (1.0 = the two signals fully overlap).
OVERLAPS = (1.0, 0.75, 0.5, 0.25, 0.1)
#: Seconds of signal generated before trimming to the target overlap.
DURATION_SECONDS = 360.0

HEADERS = ["overlap", "engine/mode", "events", "seconds", "million events/s"]


@pytest.fixture(scope="module")
def datasets():
    prepared = {}
    for overlap in OVERLAPS:
        record = overlap_dataset(overlap, duration_seconds=DURATION_SECONDS, seed=int(overlap * 100))
        prepared[overlap] = (
            (record["ecg"].times, record["ecg"].values),
            (record["abp"].times, record["abp"].values),
        )
    return prepared


def _record(registry, key, benchmark, fn, events):
    report = get_report(
        registry, "fig10a_targeted", "Figure 10(a) — targeted query processing", HEADERS
    )
    seconds, _ = timed_benchmark(benchmark, fn, rounds=3)
    report.record(key, [key[0], key[1], events, seconds, events / seconds / 1e6])


@pytest.mark.parametrize("overlap", OVERLAPS)
def test_targeted_lifestream(benchmark, report_registry, datasets, overlap):
    ecg, abp = datasets[overlap]
    events = ecg[0].size + abp[0].size
    _record(
        report_registry,
        (overlap, "lifestream-targeted"),
        benchmark,
        lambda: run_lifestream_e2e(ecg, abp, targeted=True),
        events,
    )


@pytest.mark.parametrize("overlap", OVERLAPS)
def test_eager_lifestream(benchmark, report_registry, datasets, overlap):
    ecg, abp = datasets[overlap]
    events = ecg[0].size + abp[0].size
    _record(
        report_registry,
        (overlap, "lifestream-eager"),
        benchmark,
        lambda: run_lifestream_e2e(ecg, abp, targeted=False),
        events,
    )


@pytest.mark.parametrize("overlap", OVERLAPS)
def test_trill_baseline(benchmark, report_registry, datasets, overlap):
    ecg, abp = datasets[overlap]
    events = ecg[0].size + abp[0].size
    _record(
        report_registry,
        (overlap, "trill"),
        benchmark,
        lambda: run_trill_e2e(ecg, abp),
        events,
    )


def test_skipped_windows_fall_as_overlap_grows(report_registry, datasets):
    """The Figure 10(a) mechanism, counted: the more the two signals
    overlap, the fewer output windows targeted processing can skip.

    Counted on one-second windows: the 360 s signals span only six
    one-minute windows, too few to tell 100 % from 75 % overlap apart.  The
    timed speedups over Trill are only reported, from the rows the timed
    tests above recorded.
    """
    skipped = {}
    for overlap in OVERLAPS:
        ecg, abp = datasets[overlap]
        run = run_lifestream_e2e(ecg, abp, window_size=TICKS_PER_SECOND, targeted=True)
        skipped[overlap] = run.extra["windows_skipped"]
    by_overlap = [skipped[overlap] for overlap in sorted(OVERLAPS)]
    assert all(fewer < more for more, fewer in zip(by_overlap, by_overlap[1:])), skipped
    report = get_report(
        report_registry, "fig10a_targeted", "Figure 10(a) — targeted query processing", HEADERS
    )
    report.note(
        "one-second windows skipped by targeted processing: "
        + ", ".join(f"{overlap:.0%} overlap {skipped[overlap]}" for overlap in OVERLAPS)
    )
    speedups = {}
    for overlap in (OVERLAPS[0], OVERLAPS[-1]):
        targeted_key = (overlap, "lifestream-targeted")
        trill_key = (overlap, "trill")
        if targeted_key in report.rows and trill_key in report.rows:
            speedups[overlap] = report.rows[trill_key][3] / report.rows[targeted_key][3]
    if len(speedups) == 2:
        report.note(
            f"speedup over the Trill baseline: {speedups[OVERLAPS[0]]:.1f}x at "
            f"{OVERLAPS[0]:.0%} overlap, {speedups[OVERLAPS[-1]]:.1f}x at "
            f"{OVERLAPS[-1]:.0%} overlap"
        )
