"""The diagnostic vocabulary shared by every analyzer.

A :class:`Diagnostic` is one finding: a stable code (``LS1xx`` plan /
``LS2xx`` operator contract / ``LS3xx`` async safety / ``LS4xx`` LSQL
front-end), a severity, a human-readable message, and an anchor naming the
plan node, operator class or source location the finding is about.  Codes are part of the public
surface — tests snapshot :data:`CODES`, CI greps reports for them, and docs
reference them — so a code is never renumbered or reused once released.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Severities, most severe first.  ``error`` findings are refutations of a
#: soundness property: strict compiles raise on them, the plan cache refuses
#: to store plans carrying them, and the CLI exits nonzero.  ``warning``
#: findings are suspicious-but-executable; ``info`` findings are facts worth
#: surfacing (e.g. why the vectorized backend will fall back).
SEVERITIES = ("error", "warning", "info")

#: Every stable diagnostic code, with its one-line meaning.  LS1xx are plan
#: verifier findings, LS2xx operator-contract findings, LS3xx async-safety
#: findings, LS4xx LSQL parse/resolve findings (anchored ``file:line:col``).
CODES: dict[str, str] = {
    # -- plan verifier (LS1xx) --------------------------------------------
    "LS101": "dimension algebra violation: a node's traced FWindow dimension "
    "contradicts its operator's declared constraints",
    "LS102": "time-scaling operator: a non-unit time-map scale breaks the "
    "consecutive-window invariant and forces a whole-plan serial fallback",
    "LS103": "join grid misalignment: join inputs live on different "
    "(offset, period) grids, so instant-sampling semantics apply and the "
    "aligned-grid run fast path cannot",
    "LS104": "dead operator: lineage coverage proves the node can never "
    "produce output, so targeted execution never computes it",
    "LS105": "illegal fused chain: a FusedElementwise node violates fusion "
    "legality (fewer than two stages, or a stage that is not element-wise)",
    "LS106": "time-map off grid: an operator's time map has a non-integral "
    "shift or non-positive scale, so mapped sync times leave the tick grid",
    "LS107": "mixed live/static sources: watermark-gated sources are "
    "combined with static ones whose coverage a streaming session treats "
    "as final",
    "LS108": "vectorized lowering unavailable: the plan will execute "
    "entirely window-by-window (the reason says which property failed)",
    # -- operator contracts (LS2xx) ---------------------------------------
    "LS201": "batch_safe over-claim: the operator declares window-widening "
    "invariance but widened execution changed its output",
    "LS202": "compute_run parity violation: the whole-run kernel disagrees "
    "with per-window compute on the same geometry",
    "LS203": "snapshot/restore round-trip failure: restored state does not "
    "reproduce the stream, or mutable state escaped the snapshot",
    "LS204": "warmup_windows insufficiency: replaying the declared warmup "
    "does not rebuild mid-stream state",
    "LS205": "conformance harness failure: the operator raised while its "
    "contract was being checked",
    "LS206": "batch_safe under-claim: the operator declares itself "
    "boundary-sensitive but widened execution was bit-identical on the "
    "synthesized geometries",
    "LS207": "unchecked operator: an Operator subclass has no registered "
    "conformance case",
    "LS208": "coverage-locality violation: output coverage past a cut "
    "depends on input coverage further back than the operator's declared "
    "coverage_reach()",
    # -- async safety (LS3xx) ---------------------------------------------
    "LS301": "blocking call inside 'async def': stalls the event loop and "
    "every client behind it",
    "LS302": "unawaited coroutine: a coroutine is created and discarded, so "
    "its body never runs",
    "LS303": "unbounded queue: a queue/deque constructed without a bound "
    "can grow without backpressure",
    # -- LSQL front-end (LS4xx) --------------------------------------------
    "LS401": "lexical error: the query text contains a character or literal "
    "the LSQL tokenizer cannot form a token from",
    "LS402": "syntax error: the token stream does not match the LSQL "
    "grammar at this position",
    "LS403": "unknown name: the query references a source, binding, "
    "operator, kernel, shape or combiner that is not defined",
    "LS404": "bad argument: an operator or factory call has missing, "
    "duplicate, excess or ill-typed arguments (or values that fail "
    "construction-time validation)",
    "LS405": "structure error: the program's statements do not form a "
    "valid query (duplicate declarations, no sink, multiple sinks)",
    "LS406": "unused declaration: a declared source or let binding is "
    "never referenced by the sink",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a static analyzer."""

    code: str
    severity: str
    message: str
    #: What the finding is about: a plan node name, an operator class name,
    #: or a ``path:line`` source location.  Empty when plan-wide.
    anchor: str = ""
    #: Which analyzer produced it: ``"plan"``, ``"contract"`` or ``"async"``.
    check: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    def render(self) -> str:
        """One text line: ``error LS102 [node]: message``."""
        where = f" [{self.anchor}]" if self.anchor else ""
        return f"{self.severity} {self.code}{where}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "anchor": self.anchor,
            "check": self.check,
            "title": CODES[self.code],
        }


def count_by_severity(diagnostics: list[Diagnostic]) -> dict[str, int]:
    """``{"error": n, "warning": n, "info": n}`` over *diagnostics*."""
    counts = {severity: 0 for severity in SEVERITIES}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    return counts


def has_errors(diagnostics) -> bool:
    """True when any diagnostic in the iterable is error-level."""
    return any(d.severity == "error" for d in diagnostics or ())


def summarize(diagnostics: list[Diagnostic]) -> str:
    """``"clean"`` or ``"2 error(s), 1 warning(s), 3 info"``."""
    counts = count_by_severity(diagnostics)
    parts = [
        f"{counts[severity]} {severity}(s)" if severity != "info" else f"{counts['info']} info"
        for severity in SEVERITIES
        if counts[severity]
    ]
    return ", ".join(parts) if parts else "clean"


def render_text(diagnostics: list[Diagnostic]) -> str:
    """Multi-line text report, most severe findings first."""
    order = {severity: index for index, severity in enumerate(SEVERITIES)}
    ranked = sorted(diagnostics, key=lambda d: (order[d.severity], d.code, d.anchor))
    lines = [d.render() for d in ranked]
    lines.append(summarize(diagnostics))
    return "\n".join(lines)


def render_json(diagnostics: list[Diagnostic], extra: dict | None = None) -> str:
    """JSON report: the findings plus severity totals (and *extra* fields)."""
    payload = {
        "diagnostics": [d.to_dict() for d in diagnostics],
        "counts": count_by_severity(diagnostics),
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)
