"""The measurement behind ``recommend_backend``'s static rule.

Serial versus run (vectorized) execution of one compiled plan, by the
length of the runs its targeted coverage forms.  Three plan shapes — the
hold-mode Figure 3 pipeline (every operator lowers), the paper's
interpolating Figure 3 pipeline (the resample stage falls back to
window-by-window execution inside each run) and a single element-wise stage
(the least per-window work a run can amortise) — at one-second windows over
20 minutes of ECG+ABP whose duty cycle sets the run length, plus the sparse
and dense geometries on which the rule this sweep replaced (run execution
only when windows >= 4 x runs) chose worst.

Every cell is the best of interleaved trials on the same compiled plan, so
the two backends see the same host.  The rule is sound while run execution
is never meaningfully slower than serial: the test asserts that the backend
``recommend_backend`` picks is within 1.25x of the faster one in every
cell, and ``benchmarks/results/backend_sweep.json`` keeps the table.
"""

import pytest

from benchmarks.conftest import get_report
from repro.bench.harness import compare_backends
from repro.bench.workloads import duty_cycle_e2e_dataset
from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend, recommend_backend
from repro.core.runtime.executor import _window_starts
from repro.core.runtime.vectorized import runs_for_starts
from repro.core.sources import ArraySource
from repro.core.timeutil import TICKS_PER_SECOND, period_from_hz
from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query

HEADERS = [
    "plan shape",
    "data s",
    "gap s",
    "windows",
    "runs",
    "serial ms",
    "vectorized ms",
    "vectorized / serial",
    "recommended",
]

#: The recommended backend may be at most this much slower than the faster
#: of the two (the acceptance bound of the issue that removed the guess).
TOLERANCE = 1.25
TRIALS = 7

SHAPES = {
    "fig3 hold": lambda: lifestream_e2e_query(resample_mode="hold"),
    "fig3 interpolate": lambda: lifestream_e2e_query(),
    "single select": lambda: Query.source("ecg", frequency_hz=ECG_HZ).select(
        lambda v: v * 2 + 1
    ),
}
#: (data seconds, gap seconds) per cycle: mean run lengths 1, 2, 4 and 16 at
#: a fixed 25 % duty cycle, so every cell executes the same ~300 windows.
RUN_LENGTH_GEOMETRIES = [(1, 3), (2, 6), (4, 12), (16, 48)]
#: The rest of the issue's motivation table (2/6 is already above), on the
#: Figure 3 hold plan.
MOTIVATION_GEOMETRIES = [(1, 7), (3, 13), (1, 31), (8, 8)]

CELLS = [
    (shape, data, gap) for shape in SHAPES for data, gap in RUN_LENGTH_GEOMETRIES
] + [("fig3 hold", data, gap) for data, gap in MOTIVATION_GEOMETRIES]


@pytest.mark.slow
@pytest.mark.parametrize("shape, data_seconds, gap_seconds", CELLS)
def test_recommended_backend_is_never_far_from_the_faster(
    report_registry, shape, data_seconds, gap_seconds
):
    ecg, abp = duty_cycle_e2e_dataset(data_seconds, gap_seconds, seed=1)
    sources = {
        "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
        "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
    }
    if shape == "single select":
        del sources["abp"]
    compiled = LifeStreamEngine(window_size=TICKS_PER_SECOND).compile(
        SHAPES[shape](), sources
    )
    starts = _window_starts(compiled.plan, True)
    runs = runs_for_starts(starts, compiled.plan.sink.dimension)
    recommended, _reason = recommend_backend(compiled.plan, targeted=True)

    backends = {"serial": SerialBackend(), "vectorized": VectorizedBackend()}
    for backend in backends.values():  # warm run buffers and caches
        compiled.run(backend=backend)
    comparison = compare_backends(
        f"{shape} {data_seconds}/{gap_seconds}",
        lambda backend: compiled.run(backend=backend),
        backends,
        repeat=TRIALS,
    )
    best = {name: m.seconds for name, m in comparison.measurements.items()}

    report = get_report(
        report_registry,
        "backend_sweep",
        "Serial vs run execution by coverage run length — 1 s windows, "
        f"20 min of ECG+ABP, interleaved best of {TRIALS}",
        HEADERS,
    )
    report.record(
        (shape, data_seconds, gap_seconds),
        [
            shape,
            data_seconds,
            gap_seconds,
            len(starts),
            len(runs),
            best["serial"] * 1e3,
            best["vectorized"] * 1e3,
            best["vectorized"] / best["serial"],
            recommended.name,
        ],
    )
    assert best[recommended.name] <= TOLERANCE * min(best.values())
