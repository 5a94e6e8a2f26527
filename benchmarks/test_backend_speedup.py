"""Execution-backend comparison on the Figure 9(c) end-to-end workload.

Acceptance measurement for run-lowered execution: ``VectorizedBackend``
with the ``fuse_elementwise`` pass enabled against ``SerialBackend`` with
rewriting passes disabled, on the Figure 9(c) ECG+ABP dataset.  The outputs
must be bit-identical, and the shape is asserted by counting: the
vectorized side executes one block per run with no
node falling back to per-window execution, and the serial side fills the
sink once per window.  The speedup is reported, not gated.

The pipeline runs at a one-second window (the live-monitoring
configuration, where per-window dispatch overhead is visible) and uses the
hold-mode resample variant of the Figure 3 pipeline, the configuration the
recorded table has always measured (the interpolating pipeline lowers
completely too, through its window-clamped run kernel).
"""

import numpy as np
import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.bench.harness import compare_backends
from repro.bench.workloads import e2e_dataset
from repro.core.engine import LifeStreamEngine
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.runtime.vectorized import BlockExecutor, block_executor
from repro.core.sources import ArraySource
from repro.core.timeutil import TICKS_PER_SECOND, period_from_hz
from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query

HEADERS = ["configuration", "best seconds", "million events/s", "speedup vs serial-unfused"]


@pytest.fixture(scope="module")
def workload():
    ecg, abp = e2e_dataset(duration_seconds=240.0, seed=240)
    sources = {
        "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
        "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
    }
    events = int(ecg[0].size + abp[0].size)
    return sources, events


def _compiled_queries(sources):
    query = lifestream_e2e_query(resample_mode="hold")
    serial_unfused = LifeStreamEngine(
        window_size=TICKS_PER_SECOND, optimization_level=0, backend=SerialBackend()
    ).compile(query, sources)
    vectorized = LifeStreamEngine(
        window_size=TICKS_PER_SECOND,
        optimization_level=2,
        backend=VectorizedBackend(),
    ).compile(query, sources)
    return serial_unfused, vectorized


def test_vectorized_bit_identical_targeted_and_eager(benchmark, workload):
    sources, _ = workload
    serial_unfused, vectorized = _compiled_queries(sources)

    def run():
        results = []
        for targeted in (True, False):
            reference = serial_unfused.run(targeted=targeted)
            candidate = vectorized.run(targeted=targeted)
            results.append((targeted, reference, candidate))
        return results

    _, results = timed_benchmark(benchmark, run)
    for targeted, reference, candidate in results:
        label = f"targeted={targeted}"
        # The whole plan must actually lower — a silent serial fallback
        # would make the parity assertion vacuous.
        assert candidate.stats.execution_mode == "vectorized", label
        np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
        np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
        np.testing.assert_array_equal(
            reference.durations, candidate.durations, err_msg=label
        )


def _count_calls(monkeypatch, owner, name) -> list:
    """Record one entry per call of ``owner.name`` while *monkeypatch* is active."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _targeted_starts(plan) -> list[int]:
    """The output windows a targeted run of *plan* visits."""
    sink = plan.sink
    return list(sink.coverage.iter_windows(sink.dimension, sink.descriptor.offset))


def test_vectorized_runs_and_serial_windows(workload, monkeypatch):
    sources, _ = workload
    serial_unfused, vectorized = _compiled_queries(sources)

    plan = vectorized.plan
    runs = vectorized.backend.runs(plan, _targeted_starts(plan))
    with monkeypatch.context() as patch:
        run_calls = _count_calls(patch, BlockExecutor, "execute")
        result = vectorized.run()
    assert len(run_calls) == len(runs) < result.stats.output_windows
    assert not block_executor(plan).fell_back
    assert result.stats.execution_mode == "vectorized"

    plan = serial_unfused.plan
    with monkeypatch.context() as patch:
        fills = _count_calls(patch, plan.sink, "fill")
        result = serial_unfused.run()
    assert len(fills) == len(_targeted_starts(plan)) == result.stats.output_windows


def test_vectorized_speedup(benchmark, report_registry, workload):
    sources, events = workload
    serial_unfused, vectorized = _compiled_queries(sources)
    # Warm both paths (the vectorized backend builds its run schedule and
    # buffer pool on first use; that cost is per-plan, not per-run).
    serial_unfused.run()
    vectorized.run()

    def measure_once(repeat):
        return compare_backends(
            "fig9c end-to-end (hold resample, 1 s windows)",
            lambda compiled: compiled.run(),
            {"serial-unfused": serial_unfused, "vectorized": vectorized},
            repeat=repeat,
            events=events,
        )

    _, comparison = timed_benchmark(benchmark, lambda: measure_once(5))
    speedup = comparison.speedup("vectorized", "serial-unfused")

    report = get_report(
        report_registry,
        "backend_speedup",
        "Execution backends — Figure 9(c) workload, vectorized vs serial-unfused",
        HEADERS,
    )
    for name, seconds, throughput in comparison.as_rows():
        row_speedup = comparison.speedup(name, "serial-unfused")
        report.record((name,), [name, seconds, throughput, row_speedup])
    report.note(
        f"vectorized (run-lowered) is {speedup:.2f}x serial-unfused on "
        f"interleaved best-of-N times, outputs bit-identical in targeted and "
        f"eager modes."
    )
