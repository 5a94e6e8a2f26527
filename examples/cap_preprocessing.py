"""CAP model preprocessing: join six physiological signals into one stream.

The cardiac-arrest prediction (CAP) model of Section 8.4 consumes a single
feature stream produced by imputing, resampling, normalising, masking and
temporally joining six different signal types.  This example builds that
preprocessing pipeline as one LifeStream query, runs it on a synthetic
six-signal patient record, and compares against the Trill-like baseline.

Run with::

    python examples/cap_preprocessing.py
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.data import make_cap_patient
from repro.pipelines.cap import cap_query, run_lifestream_cap, run_trill_cap


def main() -> None:
    record = make_cap_patient(duration_seconds=120.0, gap_fraction=0.15, seed=5)
    print(f"patient {record.patient_id}: {record.total_events()} events across 6 signals")
    for name, signal in record.signals.items():
        print(f"  {name:<6} {signal.frequency_hz:>6.1f} Hz  {signal.event_count:>7} events")

    query = cap_query([(name, s.frequency_hz) for name, s in record.signals.items()])
    print(
        f"\nthe preprocessing query contains {query.operator_count()} temporal operators "
        f"over {len(query.source_names())} sources"
    )

    lifestream = run_lifestream_cap(record)
    trill = run_trill_cap(record)

    rows = [
        [run.engine, run.events_emitted, run.elapsed_seconds, run.throughput_events_per_second / 1e6]
        for run in (lifestream, trill)
    ]
    print()
    print(
        format_table(
            ["engine", "feature events", "seconds", "million events/s"],
            rows,
            title="CAP preprocessing (6-signal join), Table 4 workload",
        )
    )
    print(f"\nLifeStream speedup over the Trill baseline: {lifestream.speedup_over(trill):.2f}x")
    print(
        f"targeted query processing skipped {lifestream.extra['windows_skipped']} windows "
        "whose data could never reach the final join output"
    )


if __name__ == "__main__":
    main()
