"""Figure 9(b) — operation benchmarks (Table 3 operations on a 500 Hz ECG).

Paper result: LifeStream is 5–11.2× faster than Trill on every operation,
within ~50% of the hand-tuned NumLib kernels, and actually beats NumLib on
Normalize (1.35×).  The reproduced claims: LifeStream beats the Trill-like
baseline on every operation and is in the same ballpark as NumLib.
"""

import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.baselines.numlib.pipeline import run_operation as numlib_operation
from repro.baselines.trill import TrillEngine, TrillInput
from repro.bench.workloads import ecg_signal
from repro.core.engine import LifeStreamEngine
from repro.core.sources import ArraySource
from repro.ops.operations import OPERATION_NAMES, lifestream_operation, trill_operation

#: 500 Hz ECG events used for every operation (paper: 126M; scaled down).
N_EVENTS = 300_000
#: Processing window for windowed operations (one minute, as in the paper).
WINDOW = 60_000

HEADERS = ["operation", "engine", "events", "seconds", "million events/s"]


@pytest.fixture(scope="module")
def ecg():
    return ecg_signal(N_EVENTS, seed=0)


def _record(registry, key, benchmark, fn, events, rounds=1):
    report = get_report(registry, "fig9b_operations", "Figure 9(b) — operation benchmarks", HEADERS)
    seconds, _ = timed_benchmark(benchmark, fn, rounds=rounds)
    report.record(key, [key[0], key[1], events, seconds, events / seconds / 1e6])


@pytest.mark.parametrize("operation", OPERATION_NAMES)
def test_operation_lifestream(benchmark, report_registry, ecg, operation):
    times, values = ecg
    source = ArraySource(times, values, period=2)
    query = lifestream_operation(operation, "ecg", frequency_hz=500, window=WINDOW)
    engine = LifeStreamEngine(window_size=60_000)

    def run():
        return engine.run(query, sources={"ecg": source})

    _record(report_registry, (operation, "lifestream"), benchmark, run, times.size)


@pytest.mark.parametrize("operation", OPERATION_NAMES)
def test_operation_trill(benchmark, report_registry, ecg, operation):
    times, values = ecg

    def run():
        engine = TrillEngine(batch_size=4096)
        return engine.run_unary(
            TrillInput(times, values, 2),
            trill_operation(operation, frequency_hz=500, window=WINDOW),
        )

    _record(report_registry, (operation, "trill"), benchmark, run, times.size)


@pytest.mark.parametrize("operation", OPERATION_NAMES)
def test_operation_numlib(benchmark, report_registry, ecg, operation):
    times, values = ecg

    def run():
        return numlib_operation(operation, times, values, period=2)

    _record(report_registry, (operation, "numlib"), benchmark, run, times.size)
