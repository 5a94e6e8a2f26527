"""Timing helpers shared by the benchmark suite.

``pytest-benchmark`` drives the individual measurements; this module adds
the pieces it does not provide: comparative measurements across engines,
speedup computation, and a uniform result record that the reporting module
turns into the paper's tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable


@dataclass
class Measurement:
    """Timing of one benchmark target."""

    name: str
    seconds: float
    events: int = 0
    #: Arbitrary extra information (memory, windows skipped, ...).
    extra: dict = field(default_factory=dict)

    @property
    def throughput_events_per_second(self) -> float:
        """Events per second (0 when no event count was recorded)."""
        if self.seconds <= 0 or self.events <= 0:
            return 0.0
        return self.events / self.seconds

    @property
    def throughput_million_events_per_second(self) -> float:
        """Throughput in million events per second (the paper's unit)."""
        return self.throughput_events_per_second / 1e6


@dataclass
class Comparison:
    """A set of measurements of the same workload on different systems."""

    workload: str
    measurements: dict[str, Measurement] = field(default_factory=dict)

    def add(self, measurement: Measurement) -> None:
        """Record one system's measurement."""
        self.measurements[measurement.name] = measurement

    def speedup(self, fast: str, slow: str) -> float:
        """How many times faster *fast* is than *slow* on this workload."""
        fast_m = self.measurements[fast]
        slow_m = self.measurements[slow]
        if fast_m.seconds <= 0:
            return float("inf")
        return slow_m.seconds / fast_m.seconds

    def as_rows(self) -> list[tuple[str, float, float]]:
        """(system, seconds, throughput M ev/s) rows for table formatting."""
        return [
            (name, m.seconds, m.throughput_million_events_per_second)
            for name, m in self.measurements.items()
        ]


def compare_backends(
    workload: str,
    run_fn: Callable[[object], object],
    backends: dict[str, object],
    repeat: int = 3,
    events: int = 0,
) -> Comparison:
    """Measure the same workload on every execution backend, interleaved.

    ``run_fn`` receives each backend object (e.g. a
    :class:`~repro.core.runtime.backends.ExecutionBackend` or a pre-compiled
    query bound to one) and runs the workload with it.  Trials go round
    robin — one trial of every backend, *repeat* times — so a slow stretch
    of the host lands on all configurations alike instead of on whichever
    was being measured at the time, and each backend's ``seconds`` is its
    *best* trial: interference only ever adds time, so ratios of best times
    are steadier than ratios of medians (the median and the slowest trial
    are kept in ``extra``).  The returned :class:`Comparison` exposes
    ``speedup(fast, slow)`` — this is how the backend benchmarks quantify
    run-lowered execution against the serial reference.
    """
    if repeat <= 0:
        raise ValueError(f"repeat must be positive, got {repeat}")
    timings: dict[str, list[float]] = {name: [] for name in backends}
    for _ in range(repeat):
        for name, backend in backends.items():
            began = time.perf_counter()
            run_fn(backend)
            timings[name].append(time.perf_counter() - began)
    comparison = Comparison(workload=workload)
    for name, samples in timings.items():
        comparison.add(
            Measurement(
                name=name,
                seconds=min(samples),
                events=events,
                extra={
                    "median_seconds": median(samples),
                    "max_seconds": max(samples),
                    "repeat": repeat,
                },
            )
        )
    return comparison
