"""Operator-contract conformance analysis (the ``LS2xx`` diagnostics).

Every :class:`~repro.core.operators.base.Operator` makes compile-time
*claims* the runtime trusts without checking: ``batch_safe`` promises
window-widening invariance (run lowering treats a run buffer as one wider
window on its word), ``compute_run`` promises bit-identity with per-window
``compute`` (the vectorized backend dispatches it on its word),
``snapshot_state`` promises a complete deep copy (checkpoints and failover
restore on its word), ``warmup_windows`` promises that replaying that
many windows rebuilds mid-stream state (sharded workers replay exactly
that much), and ``coverage_reach`` promises that output coverage past a
cut depends on no input coverage further back than that (streaming sessions
propagate only a trailing window of every source on its word).

This module validates those claims *by execution on synthesized
geometries* instead of trusting them, so a wrong declaration becomes a
named diagnostic (``LS201``–``LS206``, ``LS208``) instead of a bit-identity
failure three layers away.  Checking is registry-driven: :func:`builtin_cases`
holds one :class:`OperatorCase` per in-repo operator, and
:func:`check_contracts` additionally discovers every ``Operator`` subclass
so an operator without a case is itself reported (``LS207``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.core.compiler import CompiledPlan, compile_plan
from repro.core.graph import OperatorNode, topological_order
from repro.core.intervals import IntervalSet
from repro.core.operators import Operator
from repro.core.query import Query
from repro.core.runtime.backends import (
    VectorizedBackend,
    plan_batch_safe,
    plan_warmup_windows,
)
from repro.core.runtime.executor import (
    _window_starts,
    collect_sink_window,
    execute_plan,
)
from repro.core.runtime.vectorized import plan_vector_info
from repro.core.sources import ArraySource, StreamSource


@dataclass
class OperatorCase:
    """One registered conformance case: an operator in a runnable plan.

    ``build`` returns a fresh ``(query, sources)`` pair each call — the
    checks compile the plan several times (reference, widened recompile,
    restored continuation) and each compile must start from pristine
    state.  ``window_size`` must satisfy every dimension constraint of the
    built plan.
    """

    name: str
    operator_cls: type
    build: Callable[[], tuple[Query, dict[str, StreamSource]]]
    window_size: int = 96
    #: Widening factor for the batch-safety property check.
    widen_factor: int = 3


def _contract(code: str, severity: str, message: str, anchor: str) -> Diagnostic:
    return Diagnostic(code, severity, message, anchor=anchor, check="contract")


# ---------------------------------------------------------------------------
# Synthesized geometries
# ---------------------------------------------------------------------------


def _signal(n: int, period: int, offset: int = 0, gap_at: float = 0.45, seed: int = 3):
    """A deterministic test signal: a wavy ramp with one mid-stream gap.

    The gap makes targeted coverage non-trivial (runs of consecutive
    windows with a hole between them), which is exactly where widened and
    run-lowered execution must still agree with serial.
    """
    times = offset + period * np.arange(n, dtype=np.int64)
    values = np.sin(np.arange(n) * 0.37 + seed) * 5.0 + np.arange(n) * 0.25
    gap_start = int(n * gap_at)
    gap_stop = gap_start + max(2, n // 12)
    keep = np.ones(n, dtype=bool)
    keep[gap_start:gap_stop] = False
    return times[keep], values[keep]


def _source(n: int = 192, period: int = 2, offset: int = 0, seed: int = 3) -> ArraySource:
    times, values = _signal(n, period, offset=offset, seed=seed)
    return ArraySource(times, values, period=period)


def _events(plan: CompiledPlan, backend=None):
    result = execute_plan(plan, targeted=True, backend=backend)
    return result.times, result.values, result.durations


def _same_events(a, b) -> bool:
    return (
        np.array_equal(a[0], b[0])
        and np.array_equal(a[1], b[1], equal_nan=True)
        and np.array_equal(a[2], b[2])
    )


def _compile(case: OperatorCase, widen: int = 1) -> CompiledPlan:
    query, sources = case.build()
    return compile_plan(query, sources, window_size=case.window_size * widen)


def _drive(plan: CompiledPlan, starts, collect: bool = False):
    """Fill *starts* in order without resetting, optionally collecting events."""
    sink = plan.sink
    times: list[np.ndarray] = []
    values: list[np.ndarray] = []
    durations: list[np.ndarray] = []
    for start in starts:
        sink.fill(start)
        if collect:
            collect_sink_window(sink, times, values, durations)
    if not collect:
        return None
    if times:
        return np.concatenate(times), np.concatenate(values), np.concatenate(durations)
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.int64),
    )


def _fresh(plan: CompiledPlan) -> CompiledPlan:
    for node in topological_order(plan.sink):
        node.reset()
    return plan


def _operator_nodes(plan: CompiledPlan) -> list[OperatorNode]:
    return [n for n in topological_order(plan.sink) if isinstance(n, OperatorNode)]


# ---------------------------------------------------------------------------
# The individual contract checks
# ---------------------------------------------------------------------------


def _check_batch_safety(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate ``batch_safe`` against an actually-widened execution."""
    plan = _compile(case)
    declared = plan_batch_safe(plan)
    reference = _events(plan)
    widened = _events(_compile(case, widen=case.widen_factor))
    identical = _same_events(reference, widened)
    if declared and not identical:
        out.append(
            _contract(
                "LS201",
                "error",
                f"{case.name} declares batch_safe=True but widening the "
                f"window {case.widen_factor}x changed its output "
                f"({reference[0].size} vs {widened[0].size} events); run "
                "execution would silently corrupt results",
                anchor=case.name,
            )
        )
    elif not declared and identical:
        out.append(
            _contract(
                "LS206",
                "info",
                f"{case.name} declares batch_safe=False but widened "
                "execution was bit-identical on the synthesized geometry; "
                "the declaration may be over-conservative (safety cannot be "
                "proven by example, so this is informational)",
                anchor=case.name,
            )
        )


def _check_run_parity(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate ``compute_run`` against per-window ``compute``.

    Only meaningful when the plan actually lowers (a run kernel on a
    batch-unsafe operator is unreachable in production).  Short run caps
    exercise run boundaries; the default cap exercises long runs.
    """
    plan = _compile(case)
    if not (plan_vector_info(plan).runnable and plan_vector_info(plan).lowered_operators):
        return
    reference = _events(plan)
    for cap in (2, 5, 512):
        lowered = _events(_compile(case), backend=VectorizedBackend(max_run_windows=cap))
        if not _same_events(reference, lowered):
            out.append(
                _contract(
                    "LS202",
                    "error",
                    f"{case.name}.compute_run disagrees with per-window "
                    f"compute (run cap {cap}: {reference[0].size} vs "
                    f"{lowered[0].size} events); the vectorized backend "
                    "would silently corrupt results",
                    anchor=case.name,
                )
            )
            return


def _split_starts(plan: CompiledPlan, minimum: int = 6):
    starts = _window_starts(plan, targeted=True)
    if len(starts) < minimum:
        raise ValueError(
            f"synthesized geometry yields only {len(starts)} windows; "
            f"state checks need at least {minimum} — widen the sources"
        )
    return starts, len(starts) // 2


def _check_state_roundtrip(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate ``snapshot_state``/``restore_state`` completeness.

    Snapshot mid-stream, keep executing (mutating the live state in
    place), then restore the snapshot into a fresh plan and replay the
    tail: any state that escaped the snapshot — a shallow copy aliasing a
    mutable carry — makes the restored run drift from the reference.
    """
    plan = _fresh(_compile(case))
    starts, split = _split_starts(plan)
    _drive(plan, starts[:split])
    reference_tail = _drive(plan, starts[split:], collect=True)

    live = _fresh(_compile(case))
    _drive(live, starts[:split])
    # Snapshots are keyed by topological position: each build() constructs a
    # fresh query whose generated node names differ, but the node *order* of
    # structurally identical plans is stable.
    snapshots = []
    for node in _operator_nodes(live):
        snapshot = node.operator.snapshot_state(node.state)
        if snapshot is node.state and isinstance(node.state, (dict, list, np.ndarray)):
            out.append(
                _contract(
                    "LS203",
                    "error",
                    f"{case.name}.snapshot_state returned the live mutable "
                    "state object itself instead of a copy; continuing "
                    "execution corrupts every checkpoint taken from it",
                    anchor=case.name,
                )
            )
            return
        snapshots.append(snapshot)
    # Keep executing: if any mutable state aliases the snapshot, this
    # corrupts it — exactly what a checkpointed-then-continued session does.
    _drive(live, starts[split:])

    restored = _fresh(_compile(case))
    for node, snapshot in zip(_operator_nodes(restored), snapshots):
        node.state = node.operator.restore_state(snapshot)
    restored_tail = _drive(restored, starts[split:], collect=True)
    if not _same_events(reference_tail, restored_tail):
        out.append(
            _contract(
                "LS203",
                "error",
                f"{case.name} snapshot/restore round trip does not "
                f"reproduce the stream ({reference_tail[0].size} vs "
                f"{restored_tail[0].size} events after restore); either the "
                "snapshot is incomplete or mutable state escaped it",
                anchor=case.name,
            )
        )


def _check_warmup(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate that the declared ``warmup_windows`` rebuilds mid-stream state."""
    plan = _fresh(_compile(case))
    warmup = plan_warmup_windows(plan)
    starts, split = _split_starts(plan, minimum=max(6, warmup + 3))
    split = max(split, warmup)
    _drive(plan, starts[:split])
    reference_tail = _drive(plan, starts[split:], collect=True)

    resumed = _fresh(_compile(case))
    _drive(resumed, starts[split - warmup : split])
    resumed_tail = _drive(resumed, starts[split:], collect=True)
    if not _same_events(reference_tail, resumed_tail):
        out.append(
            _contract(
                "LS204",
                "error",
                f"{case.name} declares {warmup} warmup window(s) but "
                f"replaying them mid-stream does not rebuild its state "
                f"({reference_tail[0].size} vs {resumed_tail[0].size} "
                "events); sharded execution would silently corrupt results",
                anchor=case.name,
            )
        )


def _gappy_coverage(rng: np.random.Generator, longest: int, span: int = 4000) -> IntervalSet:
    """Random off-grid coverage: data stretches and gaps of 1..*longest* ticks."""
    intervals = []
    cursor = int(rng.integers(0, longest))
    while cursor < span:
        end = cursor + int(rng.integers(1, longest + 1))
        intervals.append((cursor, end))
        cursor = end + int(rng.integers(1, longest + 1))
    return IntervalSet(intervals)


def _check_coverage_locality(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate ``coverage_reach`` against ``propagate_coverage`` itself.

    For every operator node of the case's plan: trimming each input's
    coverage at ``input_sync_time(cut - coverage_reach())`` and then
    propagating must give, past the cut, exactly what propagating the whole
    history gives — on randomized gappy coverage (fine- and coarse-grained)
    and cut points, most of them placed just around the end of a data
    stretch, where a too-small reach shows.  This is the formula a streaming
    session trims its sources with every tick.
    """
    rng = np.random.default_rng(208)
    for node in _operator_nodes(_compile(case)):
        operator = node.operator
        reach = operator.coverage_reach()
        for trial in range(120):
            coverages = [
                _gappy_coverage(rng, longest=(12, 60, 400)[trial % 3]) for _ in node.inputs
            ]
            if trial % 4:
                stretches = coverages[trial % len(coverages)].intervals
                stretch_end = stretches[int(rng.integers(len(stretches)))][1]
                cut = stretch_end + int(rng.integers(-8, reach + 48))
            else:
                cut = int(rng.integers(-200, 4400))
            whole = operator.propagate_coverage(coverages).window(cut)
            trimmed = operator.propagate_coverage(
                [
                    coverage.window(
                        operator.input_sync_time(cut - reach, index, upstream.descriptor)
                    )
                    for index, (coverage, upstream) in enumerate(zip(coverages, node.inputs))
                ]
            ).window(cut)
            if trimmed != whole:
                out.append(
                    _contract(
                        "LS208",
                        "error",
                        f"{case.name}: {operator.name} declares "
                        f"coverage_reach()={reach} but its output coverage past "
                        f"t={cut} changes when input coverage before "
                        f"input_sync_time({cut} - {reach}) is dropped "
                        f"({len(whole)} vs {len(trimmed)} interval(s)); a "
                        "long-lived session would skip or invent windows",
                        anchor=case.name,
                    )
                )
                return


def check_operator_case(case: OperatorCase) -> list[Diagnostic]:
    """Run every contract check for one registered case."""
    diagnostics: list[Diagnostic] = []
    for check in (
        _check_batch_safety,
        _check_run_parity,
        _check_state_roundtrip,
        _check_warmup,
        _check_coverage_locality,
    ):
        try:
            check(case, diagnostics)
        except Exception as exc:  # noqa: BLE001 - any crash is itself a finding
            diagnostics.append(
                _contract(
                    "LS205",
                    "error",
                    f"{case.name} raised during {check.__name__.lstrip('_')}: "
                    f"{type(exc).__name__}: {exc}",
                    anchor=case.name,
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def _single(period: int = 2, n: int = 768, seed: int = 3) -> tuple[Query, dict]:
    return Query.source("s", period=period), {"s": _source(n=n, period=period, seed=seed)}


def _apply(stage) -> Callable[[], tuple[Query, dict]]:
    def build():
        query, sources = _single()
        return stage(query), sources

    return build


def _pair(stage) -> Callable[[], tuple[Query, dict]]:
    def build():
        left = Query.source("a", period=2)
        right = Query.source("b", period=4)
        return stage(left, right), {
            "a": _source(n=768, period=2, seed=3),
            "b": _source(n=384, period=4, seed=11),
        }

    return build


def builtin_cases() -> list[OperatorCase]:
    """One conformance case per in-repo operator, covering every subclass."""
    from repro.core.operators import (
        Aggregate,
        AlterDuration,
        AlterPeriod,
        Chop,
        ClipJoin,
        FusedElementwise,
        Join,
        Select,
        Shift,
        Transform,
        Where,
    )
    from repro.core.operators.shape_where import ShapeWhere
    from repro.ops import kernels

    def fused_chain():
        query, sources = _single()
        return (
            query.select(lambda v: v * 2.0)
            .where(lambda v: v > -40.0)
            .shift(2)
            .alter_duration(4),
            sources,
        )

    def shape_case():
        query, sources = _single(period=2, n=768, seed=5)
        shape = np.sin(np.linspace(0.0, np.pi, 12))
        return query.where_shape(shape, threshold=0.6, mode="remove"), sources

    return [
        OperatorCase("Select", Select, _apply(lambda q: q.select(lambda v: v * 3.0 + 1.0))),
        OperatorCase("Where", Where, _apply(lambda q: q.where(lambda v: v > 2.0))),
        OperatorCase("Shift", Shift, _apply(lambda q: q.shift(4))),
        OperatorCase(
            "Shift-multiwindow",
            Shift,
            _apply(lambda q: q.shift(3 * 96)),
            window_size=96,
        ),
        OperatorCase("AlterDuration", AlterDuration, _apply(lambda q: q.alter_duration(6))),
        OperatorCase(
            "Aggregate-tumbling",
            Aggregate,
            _apply(lambda q: q.tumbling_window(16).mean()),
        ),
        OperatorCase(
            "Aggregate-sliding",
            Aggregate,
            _apply(lambda q: q.sliding_window(32, 16).sum()),
        ),
        OperatorCase("Join-inner", Join, _pair(lambda a, b: a.join(b, lambda x, y: x - y))),
        OperatorCase(
            "Join-left", Join, _pair(lambda a, b: a.left_join(b, lambda x, y: x + y))
        ),
        OperatorCase(
            "Join-outer", Join, _pair(lambda a, b: a.outer_join(b, lambda x, y: x + y))
        ),
        OperatorCase(
            "ClipJoin", ClipJoin, _pair(lambda a, b: a.clip_join(b, lambda x, y: x - y))
        ),
        OperatorCase(
            "AlterPeriod-hold-up", AlterPeriod, _apply(lambda q: q.alter_period(1, "hold"))
        ),
        OperatorCase(
            "AlterPeriod-interpolate-up",
            AlterPeriod,
            _apply(lambda q: q.alter_period(1, "interpolate")),
        ),
        OperatorCase("AlterPeriod-down", AlterPeriod, _apply(lambda q: q.alter_period(4))),
        OperatorCase("Chop", Chop, _apply(lambda q: q.alter_duration(8).chop(2))),
        OperatorCase(
            "Transform",
            Transform,
            _apply(lambda q: q.transform(24, kernels.zscore_kernel())),
        ),
        OperatorCase("ShapeWhere", ShapeWhere, shape_case, window_size=128),
        OperatorCase("FusedElementwise", FusedElementwise, fused_chain),
    ]


def discover_operator_classes() -> list[type]:
    """Every concrete in-repo ``Operator`` subclass, by recursive discovery."""
    import repro.core.operators  # noqa: F401 - ensure subclasses are defined

    found: list[type] = []
    pending = list(Operator.__subclasses__())
    seen: set[type] = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        # Only classes the library ships are this analyzer's business;
        # test doubles and user operators are checked via their own cases.
        if cls.__module__.startswith("repro.") and "compute" in vars(cls):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def check_contracts(cases: list[OperatorCase] | None = None) -> list[Diagnostic]:
    """Run the full conformance analysis over the operator registry.

    Checks every registered case and reports (``LS207``) any discovered
    ``Operator`` subclass no case covers.
    """
    cases = builtin_cases() if cases is None else cases
    diagnostics: list[Diagnostic] = []
    covered: set[type] = set()
    for case in cases:
        covered.add(case.operator_cls)
        diagnostics.extend(check_operator_case(case))
    for cls in discover_operator_classes():
        if cls not in covered:
            diagnostics.append(
                _contract(
                    "LS207",
                    "warning",
                    f"operator class {cls.__name__} has no registered "
                    "conformance case; its contract declarations are "
                    "unchecked",
                    anchor=cls.__name__,
                )
            )
    return diagnostics
