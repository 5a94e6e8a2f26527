"""Result formatting for the benchmark harness.

The benchmark modules print the same rows/series the paper reports (tables
1, 4 and 5; figures 9 and 10).  These helpers format those rows as aligned
text tables and, for runs under ``pytest --record``, persist them as JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Where benchmark modules persist their result tables.
RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def format_table(headers: list[str], rows: list[list[object]], title: str = "") -> str:
    """Render an aligned plain-text table."""
    columns = len(headers)
    normalized_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(headers[i]) for i in range(columns)]
    for row in normalized_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(headers[i].ljust(widths[i]) for i in range(columns)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in normalized_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) < 0.01 or abs(cell) >= 10_000):
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def save_results(name: str, payload: dict) -> Path:
    """Persist a benchmark's result payload as JSON under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=_json_default)
    return path


def _json_default(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)
