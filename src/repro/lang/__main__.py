"""CLI for the LSQL front-end.

::

    python -m repro.lang parse FILE            # parse + resolve, report findings
    python -m repro.lang explain FILE          # compile and dump the plan
    python -m repro.lang run FILE              # execute over synthesized data
    python -m repro.lang ... --format json     # machine-readable report

Exits 1 when the query carries any error-level diagnostic (parse, resolve
or plan verification), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.analysis.diagnostics import count_by_severity, has_errors, render_text
from repro.core.timeutil import TICKS_PER_MINUTE
from repro.lang.formatter import format_program
from repro.lang.resolver import ResolvedProgram, compile_text
from repro.lang.runner import run_resolved, synthesize_sources


def load_query_file(path: str | Path) -> ResolvedProgram:
    """Parse and resolve the LSQL file at *path*.

    Bytes that are not UTF-8 decode to U+FFFD, which the tokenizer reports
    as LS401 at the first bad byte; a UTF-8 byte-order mark is dropped.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig", errors="replace")
    return compile_text(text, filename=path.name)


def _diagnostics_payload(resolved: ResolvedProgram) -> dict:
    return {
        "diagnostics": [d.to_dict() for d in resolved.diagnostics],
        "counts": count_by_severity(resolved.diagnostics),
        "ok": resolved.ok,
        "sink": resolved.sink_name,
        "sources": {
            name: {"offset": d.offset, "period": d.period}
            for name, d in sorted(resolved.descriptors.items())
        },
    }


def _emit(payload: dict, resolved: ResolvedProgram, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for line in text_lines:
        print(line)
    if resolved.diagnostics:
        print(render_text(resolved.diagnostics))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lang",
        description="Parse, explain or run an LSQL query file.",
    )
    parser.add_argument("command", choices=("parse", "explain", "run"))
    parser.add_argument("file", metavar="FILE", help="the .lsq query file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--duration", type=float, default=5.0, metavar="SECONDS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window-size", type=int, default=TICKS_PER_MINUTE)
    parser.add_argument(
        "--eager", action="store_true", help="run eagerly instead of targeted"
    )
    args = parser.parse_args(argv)

    try:
        resolved = load_query_file(args.file)
    except OSError as exc:
        parser.error(f"cannot read {args.file}: {exc}")

    payload = _diagnostics_payload(resolved)
    text_lines: list[str] = []

    if args.command == "parse":
        if resolved.program is not None:
            payload["formatted"] = format_program(resolved.program)
            if resolved.ok:
                text_lines.append(payload["formatted"].rstrip("\n"))
    elif resolved.query is None:
        # explain/run need a resolved query; fall through to the diagnostic
        # report and the nonzero exit.
        pass
    elif args.command == "explain":
        from repro.core.compiler import compile_plan

        sources = synthesize_sources(
            resolved.descriptors, duration_seconds=args.duration, seed=args.seed
        )
        plan = compile_plan(
            resolved.query, sources=sources, window_size=args.window_size
        )
        resolved.diagnostics.extend(plan.diagnostics)
        payload = _diagnostics_payload(resolved)
        from repro.serve.cache import plan_signature, signature_digest

        digest = signature_digest(
            plan_signature(
                resolved.query,
                sources=sources,
                window_size=args.window_size,
                optimization_level=plan.optimization_level,
            )
        )
        payload["plan"] = {
            "signature_digest": digest,
            "window_size": plan.window_size,
            "explain": plan.explain(),
        }
        text_lines.append(plan.explain())
        text_lines.append(f"signature digest: {digest}")
    else:  # run
        result = run_resolved(
            resolved,
            duration_seconds=args.duration,
            seed=args.seed,
            window_size=args.window_size,
            targeted=not args.eager,
        )
        checksum = hashlib.sha256(
            result.times.tobytes() + result.values.tobytes() + result.durations.tobytes()
        ).hexdigest()[:16]
        payload["run"] = {
            "events_ingested": result.stats.events_ingested,
            "events_emitted": result.stats.events_emitted,
            "windows_computed": result.stats.windows_computed,
            "elapsed_seconds": result.stats.elapsed_seconds,
            "output_checksum": checksum,
        }
        text_lines.append(
            f"sink={resolved.sink_name}  ingested={result.stats.events_ingested}  "
            f"emitted={result.stats.events_emitted}  "
            f"elapsed={result.stats.elapsed_seconds * 1e3:.1f} ms  "
            f"checksum={checksum}"
        )

    _emit(payload, resolved, args.format, text_lines)
    if has_errors(resolved.diagnostics):
        counts = count_by_severity(resolved.diagnostics)
        print(f"FAILED: {counts['error']} error-level finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
