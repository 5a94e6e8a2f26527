"""Compare two sets of benchmark runs under the bounds of ``BENCHMARK.json``.

    python -m perf.compare A.json B.json

A and B are files written by ``perf.run --runs N --out FILE`` (A the parent
or first set, B the change or second set).  One row per (end-to-end metric,
workload): both medians, quartiles and n, how far B's median is *worse*
than A's as a share of A's, and a verdict:

``ok``          B is not worse than A by more than the metric's bound;
``regressed``   it is;
``unresolved``  the run-to-run spread of either side (interquartile range
                over median) is wider than the bound, so the bound cannot
                be checked: report the metric as unresolved, not unchanged.

``failed_share`` is held to an absolute bound of 0.  Exit status is nonzero
when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path) -> dict:
    """``{workload: [record, ...]}`` of the untraced runs in *path*."""
    with open(path) as handle:
        document = json.load(handle)
    by_workload: dict[str, list] = {}
    for record in document["runs"]:
        if not record["trace"]:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def summary(values: list[float]) -> dict:
    """Median, quartiles, n and spread (IQR / median) of *values*."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread}


def failed_share(records: list) -> dict:
    """Failed over attempted operations across *records*, as a summary."""
    share = sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))
    return {"median": share, "q1": share, "q3": share, "n": len(records), "spread": 0.0}


def compare(a_runs: dict, b_runs: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a_records, b_records = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a_records or not b_records:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = summary([r["values"][name]["value"] for r in a_records])
            b = summary([r["values"][name]["value"] for r in b_records])
            change = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
            worse = change if metric["better"] == "lower" else -change
            if max(a["spread"], b["spread"]) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({"metric": name, "workload": workload, "unit": metric["unit"],
                         "a": a, "b": b, "worse": worse, "bound": metric["bound"],
                         "verdict": verdict})
        a, b = failed_share(a_records), failed_share(b_records)
        rows.append({"metric": "failed_share", "workload": workload, "unit": "ratio",
                     "a": a, "b": b, "worse": b["median"] - a["median"], "bound": 0.0,
                     "verdict": "regressed" if b["median"] > 0 else "ok"})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<16} {'workload':<13} {'A median [q1, q3] n':<40} "
             f"{'B median [q1, q3] n':<40} {'worse':>8} {'bound':>6}  verdict"]
    for row in rows:
        sides = [
            f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"
            for s in (row["a"], row["b"])
        ]
        lines.append(
            f"{row['metric']:<16} {row['workload']:<13} {sides[0]:<40} {sides[1]:<40} "
            f"{row['worse']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print(render(rows))
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
