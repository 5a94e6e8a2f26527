"""The Figure 3 pipeline: clean, resample, normalise and join ECG with ABP.

This is the paper's running end-to-end application.  The example builds the
pipeline three times — on LifeStream, on the Trill-like baseline and on the
hand-written NumPy/SciPy (NumLib) baseline — runs all three on the same
gappy two-signal dataset, and prints a small comparison table, mirroring
the Figure 9(c) experiment at example scale.

Run with::

    python examples/ecg_abp_pipeline.py [seconds_of_signal]
"""

from __future__ import annotations

import sys

from repro.bench.reporting import format_table
from repro.data import generate_abp, generate_ecg, inject_burst_gaps
from repro.pipelines.e2e import run_lifestream_e2e, run_numlib_e2e, run_trill_e2e


def build_dataset(duration_seconds: float):
    """ECG (500 Hz) and ABP (125 Hz) with long disconnection gaps.

    Real disconnections last minutes to hours (Figure 2 of the paper), so
    the gaps are injected as a couple of long bursts; that is also what lets
    targeted query processing skip whole FWindows below.
    """
    ecg_times, ecg_values = generate_ecg(duration_seconds, seed=0)
    abp_times, abp_values = generate_abp(duration_seconds, seed=1)
    ecg = inject_burst_gaps(ecg_times, ecg_values, gap_fraction=0.15, n_bursts=2, seed=2)
    abp = inject_burst_gaps(abp_times, abp_values, gap_fraction=0.30, n_bursts=2, seed=3)
    return ecg, abp


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 600.0
    ecg, abp = build_dataset(duration)
    total_events = ecg[0].size + abp[0].size
    print(
        f"dataset: {duration:.0f}s of signal, {ecg[0].size} ECG events + "
        f"{abp[0].size} ABP events ({total_events} total, with burst gaps)"
    )

    runs = [
        run_lifestream_e2e(ecg, abp),
        run_trill_e2e(ecg, abp),
        run_numlib_e2e(ecg, abp),
    ]

    rows = [
        [
            run.engine,
            run.events_emitted,
            run.elapsed_seconds,
            run.throughput_events_per_second / 1e6,
        ]
        for run in runs
    ]
    print()
    print(
        format_table(
            ["engine", "joined events", "seconds", "million events/s"],
            rows,
            title="Figure 3 pipeline (impute -> upsample -> normalize -> join)",
        )
    )

    lifestream, trill, numlib = runs
    print()
    print(f"LifeStream speedup over the Trill baseline : {lifestream.speedup_over(trill):.2f}x")
    print(f"LifeStream speedup over the NumLib baseline: {lifestream.speedup_over(numlib):.2f}x")
    print(
        "windows skipped by targeted query processing: "
        f"{lifestream.extra['windows_skipped']} of "
        f"{lifestream.extra['windows_skipped'] + lifestream.extra['windows_computed']}"
    )


if __name__ == "__main__":
    main()
