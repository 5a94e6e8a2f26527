"""Shared result type and backend selection for the end-to-end pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Execution-backend names accepted by the pipeline CLIs.
BACKEND_NAMES = ("serial", "vectorized")


def backend_from_name(name: str):
    """Build the execution backend the CLI flag *name* selects."""
    from repro.core.runtime.backends import SerialBackend, VectorizedBackend

    if name == "serial":
        return SerialBackend()
    if name == "vectorized":
        return VectorizedBackend()
    raise ValueError(
        f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
    )


@dataclass
class PipelineRun:
    """Outcome of running one pipeline on one engine."""

    engine: str
    elapsed_seconds: float
    events_ingested: int
    events_emitted: int
    #: Engine-specific extras (peak memory, windows skipped, ...).
    extra: dict = field(default_factory=dict)

    @property
    def throughput_events_per_second(self) -> float:
        """Ingested events per wall-clock second (the paper's throughput metric)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events_ingested / self.elapsed_seconds

    def speedup_over(self, other: "PipelineRun") -> float:
        """How many times faster this run was than *other* (by elapsed time)."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return other.elapsed_seconds / self.elapsed_seconds
