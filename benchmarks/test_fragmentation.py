"""Section 6.2 — FWindow fragmentation on realistically gappy data.

Paper result: across the evaluated use cases the degree of FWindow
fragmentation is at most 0.3%, because physiological discontinuities are
concentrated in bursts rather than scattered through the stream.  The
reproduction streams burst-gapped ECG data through the Figure 3 per-signal
stages and records the worst interior fragmentation observed in any FWindow
of the plan.
"""


from benchmarks.conftest import get_report, timed_benchmark
from repro.core.compiler import covered_windows
from repro.core.engine import LifeStreamEngine
from repro.core.graph import topological_order
from repro.core.query import Query
from repro.core.sources import ArraySource
from repro.data.gaps import inject_burst_gaps, small_random_gaps
from repro.data.physio import generate_ecg
from repro.ops import kernels

HEADERS = ["gap structure", "gap fraction", "max FWindow fragmentation", "seconds"]

DURATION_SECONDS = 1200.0


def _max_fragmentation(times, values) -> float:
    source = ArraySource(times, values, period=2)
    query = (
        Query.source("ecg", frequency_hz=500)
        .transform(1000, kernels.zscore_kernel())
        .tumbling_window(1000)
        .mean()
    )
    engine = LifeStreamEngine(window_size=60_000)
    compiled = engine.compile(query, sources={"ecg": source})

    worst = 0.0
    sink = compiled.plan.sink
    dimension = sink.dimension
    for start in covered_windows(compiled.plan).tolist():
        sink.fill(start)
        for node in topological_order(sink):
            worst = max(worst, node.fwindow.fragmentation())
    return worst


def test_burst_gaps_cause_negligible_fragmentation(benchmark, report_registry):
    """Bursty (Figure 2-like) gaps leave FWindows essentially unfragmented."""
    times, values = generate_ecg(DURATION_SECONDS, seed=31)
    times, values = inject_burst_gaps(times, values, gap_fraction=0.2, n_bursts=2, seed=32)

    seconds, worst = timed_benchmark(benchmark, lambda: _max_fragmentation(times, values))
    assert worst <= 0.02  # comfortably within the paper's sub-1% regime
    report = get_report(
        report_registry, "fragmentation", "Section 6.2 — FWindow fragmentation", HEADERS
    )
    report.record(("burst",), ["burst gaps", 0.2, worst, seconds])


def test_scattered_gaps_worst_case(benchmark, report_registry):
    """Scattered one-sample dropouts are the worst case the paper argues is rare."""
    times, values = generate_ecg(DURATION_SECONDS, seed=33)
    times, values = small_random_gaps(times, values, gap_probability=0.002, seed=34)

    seconds, worst = timed_benchmark(benchmark, lambda: _max_fragmentation(times, values))
    report = get_report(
        report_registry, "fragmentation", "Section 6.2 — FWindow fragmentation", HEADERS
    )
    report.record(("scattered",), ["scattered single-sample gaps", 0.002, worst, seconds])
    assert worst < 0.05
