"""Run the benchmark.

One workload, in this process (what the driver calls)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` untraced, its per-layer metrics
with ``--trace 1``.  Without ``--workload`` every workload runs, each run in
a fresh subprocess, ``--runs`` times on consecutive seeds, and the records
are written to ``--out`` for ``perf.compare``.

``PYTHONPATH=src python -m perf.run`` is the same program.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported: a BLAS or OpenMP pool sized from the
# host's core count would make timings depend on the machine's idle cores.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
RESULTS = PERF / "results"
# Run as a script, sys.path[0] is perf/ itself: add the checkout root (for
# ``perf``) and src/ (for ``repro``, the program under test).
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Times ``import repro`` is repeated in one run (median goes into setup_s).
IMPORT_REPS = 3
#: Everything of ``repro`` the workloads import, so import cost is one number.
REPRO_MODULES = ("repro", "repro.lang", "repro.ingest", "repro.pipelines.e2e", "repro.ops")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_repro() -> float:
    """Median seconds of importing ``repro`` from scratch, *IMPORT_REPS* times.

    Between repetitions the package's modules are dropped from
    ``sys.modules``; nothing of ``repro`` has been used yet, so no object of
    an earlier import survives.  numpy stays loaded: it is not the repo's.
    """
    import numpy  # noqa: F401

    seconds = []
    for _rep in range(IMPORT_REPS):
        for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
        began = time.perf_counter()
        for name in REPRO_MODULES:
            importlib.import_module(name)
        seconds.append(time.perf_counter() - began)
    return statistics.median(seconds)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload here and return its full record."""
    from perf.harness import Context
    from perf.workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    spec = load_spec()
    began = time.perf_counter()
    import_s = import_repro()
    tracer = None
    if trace:
        from perf.trace import Tracer, install

        tracer = Tracer()
        install(tracer)
    module = importlib.import_module(f"perf.workloads.{name}")
    outcome = module.run(Context(seed=seed, seconds=seconds, tiny=tiny, tracer=tracer))
    outcome.put("import_s", import_s, "s")
    outcome.put("setup_s", import_s + outcome.setup_build_s, "s")
    if "peak_rss_mb" not in outcome.values:
        outcome.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    outcome.put("failed_share", outcome.failed / max(1, outcome.attempted), "ratio")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "values": {k: {"value": v, "unit": u} for k, (v, u) in outcome.values.items()},
        "info": outcome.info,
    }
    if trace:
        layer = tracer.per_layer([m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"trace-{name}.json")
        tracer.restore()
    else:
        record["metrics"] = {m["name"]: record["values"][m["name"]] for m in spec["end_to_end"]}
    record["wall_s"] = time.perf_counter() - began
    return record


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"attempted={record['attempted']}  failed={record['failed']}  "
          f"wall={record['wall_s']:.1f}s")
    gated = set(record["metrics"])
    for title, rows in (("metrics", record["metrics"]),
                        ("diagnostics", {k: v for k, v in record["values"].items()
                                         if k not in gated})):
        print(f"-- {title}")
        for name, entry in rows.items():
            print(f"{name:<34} {entry['value']:>16.6g} {entry['unit']}")


def contract_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def header(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def run_all(args) -> int:
    """Every selected workload, each run in a fresh subprocess."""
    from perf.workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else RESULTS / "latest.json"
    document = {"header": header(args.seed), "runs": []}
    failed = 0
    for name in WORKLOADS:
        for run in range(args.runs):
            for trace in ((0, 1) if args.trace else (0,)):
                scratch = RESULTS / f".run-{os.getpid()}.json"
                command = [
                    sys.executable, str(PERF / "run.py"), "--workload", name,
                    "--seed", str(args.seed + run), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--scale", args.scale, "--out", str(scratch),
                ]
                done = subprocess.run(command, capture_output=True, text=True, timeout=900)
                if done.returncode != 0 or not scratch.exists():
                    print(done.stdout + done.stderr, file=sys.stderr)
                    print(f"!! {name} seed={args.seed + run} trace={trace} exited "
                          f"{done.returncode}", file=sys.stderr)
                    failed += 1
                    continue
                record = json.loads(scratch.read_text())
                scratch.unlink()
                print_record(record)
                failed += record["failed"]
                document["runs"].append(record)
        if args.trace:
            _print_overhead(document["runs"], name)
    document["header"]["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    out.write_text(json.dumps(document, indent=1))
    print(f"wrote {out}")
    return 1 if failed else 0


def _print_overhead(runs: list, name: str) -> None:
    """Tracing overhead: traced over untraced medians of the same workload."""
    for metric in ("events_per_s", "latency_p50_ms"):
        sides = []
        for trace in (0, 1):
            values = [r["values"][metric]["value"] for r in runs
                      if r["workload"] == name and r["trace"] == trace and metric in r["values"]]
            sides.append(statistics.median(values) if values else None)
        if None not in sides and sides[0]:
            print(f"-- tracing overhead on {name}: {metric} traced/untraced = "
                  f"{sides[1] / sides[0]:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="target length of the timed region (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload on seeds seed, seed+1, ... (all-workload mode)")
    parser.add_argument("--out", help="write the full record(s) to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])

    if args.workload is None:
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale == "tiny")
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record))
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
