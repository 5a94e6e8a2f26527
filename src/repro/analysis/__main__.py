"""CLI for the static-analysis subsystem.

::

    python -m repro.analysis                       # all three analyzers
    python -m repro.analysis --contracts           # operator contracts only
    python -m repro.analysis --lint-async          # ingest async lint only
    python -m repro.analysis --plan e2e            # verify a named pipeline
    python -m repro.analysis --plan query.lsq      # verify an LSQL query file
    python -m repro.analysis --format json         # machine-readable report

Exits 1 when any error-level diagnostic is found (warnings and info do not
fail the build), 2 on usage errors.  With ``--contracts`` the report also
gives the checks' wall seconds and how many plan runs they made.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import contracts
from repro.analysis.async_lint import lint_async_paths
from repro.analysis.diagnostics import (
    Diagnostic,
    count_by_severity,
    has_errors,
    render_json,
    render_text,
)
from repro.analysis.plan_verifier import verify_compiled_plan


def _build_e2e_plan():
    """The fig9c end-to-end pipeline over a small synthesized dataset."""
    from repro.bench.workloads import e2e_dataset
    from repro.core.compiler import compile_plan
    from repro.core.sources import ArraySource
    from repro.core.timeutil import period_from_hz
    from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query

    ecg, abp = e2e_dataset(duration_seconds=5.0, seed=0)
    sources = {
        "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
        "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
    }
    return compile_plan(lifestream_e2e_query(), sources)


def _build_linezero_plan():
    """The LineZero artifact-detection pipeline over a synthesized record."""
    from repro.bench.workloads import e2e_dataset
    from repro.core.compiler import compile_plan
    from repro.core.sources import ArraySource
    from repro.core.timeutil import period_from_hz
    from repro.pipelines.linezero import ABP_HZ, linezero_query

    _, abp = e2e_dataset(duration_seconds=5.0, seed=0)
    sources = {"abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ))}
    return compile_plan(linezero_query(), sources)


#: Example pipelines the plan verifier can run over by name.
PLAN_BUILDERS = {
    "e2e": _build_e2e_plan,
    "linezero": _build_linezero_plan,
}


def _analyze_query_file(path: str) -> tuple[list[Diagnostic], object | None]:
    """Parse, resolve and compile the LSQL file at *path*.

    Returns the front-end diagnostics (already LS4xx
    :class:`~repro.analysis.diagnostics.Diagnostic`s with file:line:col
    anchors) plus the compiled plan, or ``None`` when resolution failed and
    there is nothing to verify.
    """
    from pathlib import Path

    from repro.core.compiler import compile_plan
    from repro.lang.resolver import compile_text
    from repro.lang.runner import synthesize_sources

    resolved = compile_text(Path(path).read_text(), filename=Path(path).name)
    if resolved.query is None:
        return list(resolved.diagnostics), None
    sources = synthesize_sources(resolved.descriptors, duration_seconds=5.0, seed=0)
    return list(resolved.diagnostics), compile_plan(resolved.query, sources)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis: plan verification, operator-contract "
        "conformance, and async-safety linting.",
    )
    parser.add_argument(
        "--plan",
        action="append",
        metavar="NAME|FILE",
        help="verify a named example pipeline's compiled plan, or an LSQL "
        "query file's (repeatable; names: "
        f"{', '.join(sorted(PLAN_BUILDERS))}; files end in .lsq)",
    )
    parser.add_argument(
        "--contracts",
        action="store_true",
        help="run the operator-contract conformance analyzer",
    )
    parser.add_argument(
        "--lint-async",
        action="store_true",
        help="run the async-safety linter over the ingest tier",
    )
    parser.add_argument(
        "--lint-path",
        action="append",
        metavar="PATH",
        help="extra file/directory for --lint-async (default: repro.ingest)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    run_all = not (args.plan or args.contracts or args.lint_async)
    diagnostics: list[Diagnostic] = []
    checks_run: list[str] = []
    extra: dict = {}

    plans = args.plan if args.plan else (sorted(PLAN_BUILDERS) if run_all else [])
    for name in plans:
        if name in PLAN_BUILDERS:
            plan = PLAN_BUILDERS[name]()
        else:
            from pathlib import Path

            if not Path(name).is_file():
                parser.error(
                    f"--plan {name!r} is neither a known pipeline name "
                    f"({', '.join(sorted(PLAN_BUILDERS))}) nor an existing "
                    f"query file"
                )
            front_end, plan = _analyze_query_file(name)
            diagnostics.extend(front_end)
            if plan is None:
                checks_run.append(f"plan:{name}")
                continue
        found = verify_compiled_plan(plan)
        diagnostics.extend(
            Diagnostic(d.code, d.severity, d.message, anchor=f"{name}:{d.anchor}" if d.anchor else name, check=d.check)
            for d in found
        )
        checks_run.append(f"plan:{name}")

    if args.contracts or run_all:
        runs, began = contracts.plan_runs, time.perf_counter()
        diagnostics.extend(contracts.check_contracts())
        extra["contracts"] = {
            "seconds": round(time.perf_counter() - began, 2),
            "plan_runs": contracts.plan_runs - runs,
        }
        checks_run.append("contracts")

    if args.lint_async or run_all or args.lint_path:
        diagnostics.extend(lint_async_paths(args.lint_path))
        checks_run.append("lint-async")

    if args.format == "json":
        print(render_json(diagnostics, extra={"checks": checks_run, **extra}))
    else:
        print(f"checks: {', '.join(checks_run)}")
        if "contracts" in extra:
            print(
                f"contracts: {extra['contracts']['plan_runs']} plan runs in "
                f"{extra['contracts']['seconds']} s"
            )
        print(render_text(diagnostics))

    counts = count_by_severity(diagnostics)
    if has_errors(diagnostics):
        print(f"FAILED: {counts['error']} error-level finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
