"""Benchmark harness: timing, workloads and reporting shared by ``benchmarks/``."""

from repro.bench.harness import Comparison, Measurement
from repro.bench.reporting import format_table, load_results, save_results
from repro.bench.workloads import (
    E2E_BENCH_SECONDS,
    MICRO_BENCH_EVENTS,
    OPERATION_BENCH_EVENTS,
    JoinWorkload,
    cap_patient,
    continuous_e2e_dataset,
    e2e_dataset,
    ecg_signal,
    join_workload,
    overlap_dataset,
    scaling_cohort,
    synthetic_signal,
)

__all__ = [
    "Measurement",
    "Comparison",
    "format_table",
    "save_results",
    "load_results",
    "synthetic_signal",
    "join_workload",
    "JoinWorkload",
    "ecg_signal",
    "e2e_dataset",
    "continuous_e2e_dataset",
    "overlap_dataset",
    "scaling_cohort",
    "cap_patient",
    "MICRO_BENCH_EVENTS",
    "OPERATION_BENCH_EVENTS",
    "E2E_BENCH_SECONDS",
]
