"""Cross-tenant sub-plan sharing: shared prefix execution vs per-tenant.

Acceptance measurement for the sub-plan sharing subsystem
(:mod:`repro.serve.subplan`): a 16-tenant cohort whose queries all clean
the same physiological stream with the same filtered/resampled prefix —
a smoothing-transform chain, an amplitude filter, and an upsample — then
diverge into per-tenant aggregate tails.  Without sharing the service
executes that prefix 16 times per batch; with
``StreamingService(subplan_sharing=True)`` it runs once per batch and fans
out into per-tenant feeds.

The benchmark asserts per-tenant bit-identical results between the two
modes and exactly one prefix execution per batch (via the pump reports and
the group's session tick count).  The end-to-end speedup is recorded in the
report, not asserted: a wall-clock ratio from one host is not a pass/fail
signal (``perf.compare`` judges timing from paired runs).
"""

import time

import numpy as np

from benchmarks.conftest import get_report, timed_benchmark
from repro.core.query import Query
from repro.core.sources import ArraySource, ReplaySource
from repro.ops import kernels
from repro.serve import StreamingService

HEADERS = ["mode", "tenants", "prefix execs / batch", "total seconds", "speedup"]

#: Cohort size: tenants sharing one cleaning prefix over one stream.
N_TENANTS = 16
#: Window (ticks) of the prefix's imputation/normalisation transforms.
CLEAN_WINDOW = 1000
WINDOW_SIZE = 4000
#: Live batches: every tenant announces the same watermark per batch.
WATERMARKS = tuple(range(10000, 120001, 10000))
#: Measurement rounds per mode (interleaved best-of, to shed scheduler noise).
ROUNDS = 3


def _amplitude_ok(values):
    return np.abs(values) < 3.5


def cohort_source():
    """One physical 500 Hz stream shared by the whole cohort (gappy)."""
    n = 60000
    rng = np.random.default_rng(11)
    times = np.arange(n, dtype=np.int64) * 2
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 800, size=4):
        keep[start : start + int(rng.integers(100, 500))] = False
    values = np.sin(np.arange(n) * 0.011) * 5 + 0.3 * rng.standard_normal(n)
    return ReplaySource(ArraySource(times[keep], values[keep], period=2))


def shared_prefix():
    """The cleaning prefix every tenant's query starts with.

    Windowed imputation and normalisation (the Figure 3 cleaning stages) do
    real per-window work — this is the execution the sharing group folds
    from 16 runs per batch down to one.
    """
    return (
        Query.source("s", frequency_hz=500)
        .transform(CLEAN_WINDOW, kernels.fill_mean_kernel(32))
        .transform(CLEAN_WINDOW, kernels.zscore_kernel())
        .where(_amplitude_ok)  # filtered ...
        .resample(frequency_hz=250, mode="interpolate")  # ... resampled
    )


def tenant_query(index):
    """Per-tenant tail: a cheap aggregate whose shape varies by tenant."""
    funcs = ("mean", "max", "min", "std")
    window = 400 + 200 * (index % 4)
    return shared_prefix().aggregate(window, func=funcs[index % len(funcs)])


def run_cohort(sharing):
    service = StreamingService(window_size=WINDOW_SIZE, subplan_sharing=sharing)
    source = cohort_source()
    with service:
        for index in range(N_TENANTS):
            service.open(f"tenant-{index}", tenant_query(index), {"s": source})
        reports = [service.pump(watermark) for watermark in WATERMARKS]
        reports.append(service.finish())
        results = {cid: service.result(cid) for cid in service.client_ids}
        groups = service.sharing_groups
    return results, groups, reports


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


def test_subplan_sharing(benchmark, report_registry):
    report = get_report(
        report_registry,
        "subplan_sharing",
        f"Serving {N_TENANTS} tenants sharing a filtered/resampled prefix: "
        f"sub-plan sharing vs per-tenant execution",
        HEADERS,
    )

    # Interleave the two modes' rounds so a slow patch of the host (GC, a
    # noisy neighbour) penalises both alike; each takes its best-of-ROUNDS.
    unshared_seconds = shared_seconds = float("inf")
    unshared_results = shared_results = None
    shared_groups = shared_reports = None
    for _ in range(ROUNDS):
        began = time.perf_counter()
        unshared_results, unshared_groups, _ = run_cohort(False)
        unshared_seconds = min(unshared_seconds, time.perf_counter() - began)
        began = time.perf_counter()
        shared_results, shared_groups, shared_reports = run_cohort(True)
        shared_seconds = min(shared_seconds, time.perf_counter() - began)
    assert unshared_groups == []

    # One extra measured round under pytest-benchmark for its report.
    bench_seconds, _ = timed_benchmark(benchmark, lambda: run_cohort(True), rounds=1)
    shared_seconds = min(shared_seconds, bench_seconds)

    # Correctness first: sharing must be observationally invisible.
    assert set(shared_results) == set(unshared_results)
    for client_id, expected in unshared_results.items():
        _assert_identical(expected, shared_results[client_id], client_id)

    # One group holding the whole cohort, and exactly one prefix execution
    # per batch (pumps + the finishing drain) instead of one per tenant.
    (group,) = shared_groups
    assert sorted(group["members"]) == sorted(shared_results)
    assert group["prefix_ticks"] == len(WATERMARKS) + 1
    for pump_report in shared_reports:
        assert list(pump_report.prefix_ticks) == [group["group_id"]]

    speedup = unshared_seconds / shared_seconds if shared_seconds > 0 else float("inf")
    report.record(
        (0,),
        [
            "sub-plan sharing",
            N_TENANTS,
            1,
            round(shared_seconds, 4),
            round(speedup, 2),
        ],
    )
    report.record(
        (1,),
        [
            "per-tenant execution",
            N_TENANTS,
            N_TENANTS,
            round(unshared_seconds, 4),
            1.0,
        ],
    )
