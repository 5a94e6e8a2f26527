"""Workload builders shared by the benchmark suite.

Each builder produces the dataset for one of the paper's experiments at a
size that keeps the whole benchmark suite runnable on a laptop.  The sizes
are deliberately smaller than the paper's (the baselines are pure Python);
EXPERIMENTS.md records the scaling factor next to each result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.timeutil import TICKS_PER_SECOND
from repro.data.dataset import PatientRecord, make_cap_patient, make_overlap_patient, make_patient
from repro.data.gaps import inject_burst_gaps
from repro.data.physio import generate_abp, generate_ecg
from repro.data.synthetic import generate_events

#: Default event count for primitive micro-benchmarks.
MICRO_BENCH_EVENTS = 200_000
#: Default event count for the operation benchmarks (Figure 9(b)).
OPERATION_BENCH_EVENTS = 500_000
#: Default seconds of signal for the end-to-end benchmark (Figure 9(c)).
E2E_BENCH_SECONDS = 240.0


@dataclass(frozen=True)
class JoinWorkload:
    """Two periodic streams to be joined (used by Table 1 and Figure 9(a))."""

    left_times: np.ndarray
    left_values: np.ndarray
    left_period: int
    right_times: np.ndarray
    right_values: np.ndarray
    right_period: int

    @property
    def total_events(self) -> int:
        return int(self.left_times.size + self.right_times.size)


def synthetic_signal(n_events: int = MICRO_BENCH_EVENTS, frequency_hz: float = 1000.0, seed: int = 0):
    """Continuous synthetic signal of exactly *n_events* events."""
    return generate_events(n_events, frequency_hz=frequency_hz, seed=seed)


def join_workload(n_events: int = MICRO_BENCH_EVENTS, seed: int = 0) -> JoinWorkload:
    """A 1000 Hz stream and a 250 Hz stream to be temporally joined."""
    left_times, left_values = generate_events(n_events, frequency_hz=1000.0, seed=seed)
    right_times, right_values = generate_events(
        max(1, n_events // 4), frequency_hz=250.0, seed=seed + 1
    )
    return JoinWorkload(
        left_times=left_times,
        left_values=left_values,
        left_period=1,
        right_times=right_times,
        right_values=right_values,
        right_period=4,
    )


def ecg_signal(n_events: int = OPERATION_BENCH_EVENTS, seed: int = 0):
    """ECG-like 500 Hz signal with approximately *n_events* events."""
    duration_seconds = n_events / 500.0
    return generate_ecg(duration_seconds, seed=seed)


def e2e_dataset(
    duration_seconds: float = E2E_BENCH_SECONDS,
    ecg_gap_fraction: float = 0.15,
    abp_gap_fraction: float = 0.3,
    seed: int = 0,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """ECG/ABP pair with bursty gaps for the end-to-end benchmark."""
    ecg_times, ecg_values = generate_ecg(duration_seconds, seed=seed)
    abp_times, abp_values = generate_abp(duration_seconds, seed=seed + 1)
    if ecg_gap_fraction > 0:
        ecg_times, ecg_values = inject_burst_gaps(ecg_times, ecg_values, ecg_gap_fraction, seed=seed + 2)
    if abp_gap_fraction > 0:
        abp_times, abp_values = inject_burst_gaps(abp_times, abp_values, abp_gap_fraction, seed=seed + 3)
    return (ecg_times, ecg_values), (abp_times, abp_values)


def continuous_e2e_dataset(duration_seconds: float = E2E_BENCH_SECONDS, seed: int = 0):
    """Gap-free ECG/ABP pair (the synthetic-dataset variant of the benchmark)."""
    return e2e_dataset(duration_seconds, ecg_gap_fraction=0.0, abp_gap_fraction=0.0, seed=seed)


def duty_cycle_e2e_dataset(
    data_seconds: int, gap_seconds: int, duration_seconds: float = 1200.0, seed: int = 0
):
    """ECG/ABP pair that is present for *data_seconds* out of every
    ``data_seconds + gap_seconds``, on both signals at once.

    At one-second windows the joined coverage then forms runs of exactly
    *data_seconds* consecutive windows — the knob the backend sweep turns.
    """
    cycle = (data_seconds + gap_seconds) * TICKS_PER_SECOND
    (ecg_times, ecg_values), (abp_times, abp_values) = continuous_e2e_dataset(
        duration_seconds, seed=seed
    )
    ecg_keep = ecg_times % cycle < data_seconds * TICKS_PER_SECOND
    abp_keep = abp_times % cycle < data_seconds * TICKS_PER_SECOND
    return (ecg_times[ecg_keep], ecg_values[ecg_keep]), (
        abp_times[abp_keep],
        abp_values[abp_keep],
    )


def overlap_dataset(overlap: float, duration_seconds: float = 120.0, seed: int = 0) -> PatientRecord:
    """ECG/ABP pair whose mutual overlap fraction is exactly *overlap* (Figure 10(a))."""
    return make_overlap_patient(overlap, duration_seconds=duration_seconds, seed=seed)


def scaling_cohort(n_patients: int = 4, duration_seconds: float = 30.0, seed: int = 0):
    """Small cohort of patients for the real multi-core measurements."""
    return [
        make_patient(
            patient_id=f"bench-patient-{index}",
            duration_seconds=duration_seconds,
            seed=seed + index,
        )
        for index in range(n_patients)
    ]


def cap_patient(duration_seconds: float = 45.0, seed: int = 0) -> PatientRecord:
    """Six-signal patient record for the CAP generality benchmark (Table 4)."""
    return make_cap_patient(duration_seconds=duration_seconds, seed=seed)
