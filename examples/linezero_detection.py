"""Shape-based artifact detection: find line-zero artifacts in blood pressure.

Line-zero artifacts appear in arterial blood pressure whenever the pressure
transducer is opened to air for calibration (Figure 7 of the paper).  This
example:

1. generates a realistic ABP waveform and injects a handful of artifacts at
   known positions,
2. uses LifeStream's extended ``where_shape`` operator (constrained DTW) to
   detect them,
3. scores the detections against the injected ground truth — the paper
   reports 0% false negatives and 0.2% false positives for this model,
4. shows how the same query, flipped from ``keep`` to ``remove`` mode,
   scrubs the artifacts out of the stream for downstream analysis.

Run with::

    python examples/linezero_detection.py
"""

from __future__ import annotations

from repro import ArraySource, LifeStreamEngine, Query
from repro.data import generate_abp, inject_line_zero, line_zero_template
from repro.pipelines.linezero import evaluate_linezero_accuracy, run_lifestream_linezero


def main() -> None:
    # 2.5 minutes of 125 Hz ABP with five injected line-zero artifacts.
    times, clean = generate_abp(duration_seconds=150.0, seed=10)
    corrupted, artifacts = inject_line_zero(clean, n_artifacts=5, seed=11)
    print(f"signal: {times.size} ABP samples, {len(artifacts)} injected line-zero artifacts")
    for artifact in artifacts:
        print(f"  ground truth artifact at samples [{artifact.start_index}, {artifact.end_index})")

    # Detection: the LineZero model (shape-based Where in `keep` mode).
    regions, run = run_lifestream_linezero(times, corrupted)
    print(f"\ndetected {len(regions)} regions in {run.elapsed_seconds:.2f}s:")
    for start, end in regions:
        print(f"  detected region at samples [{start}, {end})")

    scores = evaluate_linezero_accuracy(regions, artifacts, corrupted.size)
    print(
        f"\nfalse negative rate: {scores['false_negative_rate']:.1%}   "
        f"false positive rate: {scores['false_positive_rate']:.1%}"
    )

    # Scrubbing: the same shape query in `remove` mode drops the artifacts.
    source = ArraySource(times, corrupted, period=8)
    scrub_query = Query.source("abp", frequency_hz=125).where_shape(
        line_zero_template(), threshold=0.05, mode="remove"
    )
    scrubbed = LifeStreamEngine().run(scrub_query, sources={"abp": source})
    removed = times.size - len(scrubbed)
    print(
        f"\nscrubbing removed {removed} samples "
        f"({removed / times.size:.1%} of the stream) before downstream analysis"
    )


if __name__ == "__main__":
    main()
