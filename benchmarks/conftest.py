"""Shared infrastructure for the benchmark suite.

Every benchmark module reproduces one table or figure of the paper.  The
individual cells are measured with ``pytest-benchmark``; in addition each
module accumulates its cells into an :class:`ExperimentReport` that, when
the session finishes, prints the same rows/series the paper reports and —
only under ``--record`` — persists them as JSON under
``benchmarks/results/``, so an ordinary test run leaves the tree clean.

Run with::

    pytest benchmarks/ --benchmark-only [--record]
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from repro.bench.reporting import format_table, save_results


@dataclass
class ExperimentReport:
    """Accumulates one experiment's measured cells and prints them at teardown."""

    name: str
    title: str
    headers: list[str]
    rows: dict[tuple, list] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def record(self, key: tuple, row: list) -> None:
        """Record one row of the experiment's table."""
        self.rows[key] = row

    def note(self, text: str) -> None:
        """Attach a free-form note (e.g. an OOM observation) to the report."""
        self.notes.append(text)

    def finalise(self, record: bool) -> None:
        """Print the assembled table; persist it as JSON when *record* is set."""
        if not self.rows and not self.notes:
            return
        ordered = [self.rows[key] for key in sorted(self.rows)]
        table = format_table(self.headers, ordered, title=self.title)
        print("\n\n" + table)
        for note in self.notes:
            print(f"note: {note}")
        if not record:
            return
        save_results(
            self.name,
            {
                "title": self.title,
                "headers": self.headers,
                "rows": ordered,
                "notes": self.notes,
            },
        )


def timed_benchmark(benchmark, fn, rounds: int = 1):
    """Run *fn* under pytest-benchmark and also return its best wall-clock time.

    The benchmark fixture handles the statistics pytest-benchmark reports;
    the explicit timing collected here feeds the experiment report tables so
    they can be assembled without depending on plugin internals.
    """
    durations: list[float] = []
    results: list = []

    def instrumented():
        began = time.perf_counter()
        results.append(fn())
        durations.append(time.perf_counter() - began)

    benchmark.pedantic(instrumented, rounds=rounds, iterations=1)
    return min(durations), results[-1]


@pytest.fixture(scope="session")
def report_registry(request):
    """Session-wide registry of experiment reports (finalised at session end)."""
    registry: dict[str, ExperimentReport] = {}
    yield registry
    record = request.config.getoption("--record", default=False)
    for report in registry.values():
        report.finalise(record)


def get_report(registry: dict, name: str, title: str, headers: list[str]) -> ExperimentReport:
    """Fetch or create the report for one experiment."""
    if name not in registry:
        registry[name] = ExperimentReport(name=name, title=title, headers=headers)
    return registry[name]
