"""Operator-contract conformance analysis (the ``LS2xx`` diagnostics).

Every :class:`~repro.core.operators.base.Operator` makes compile-time
*claims* the runtime trusts without checking: a ``compute_run`` override
promises bit-identity with per-window ``compute`` over a run of
consecutive windows, for every input geometry the operator accepts (the
vectorized backend lowers a node on the word of the override alone),
``carry_spec`` promises to declare all of its cross-window state
(checkpoints and failover copy only the declared carries),
``coverage_rows`` — by default a spread over ``coverage_reach`` — promises
to mark every sink window in which the operator can emit (a targeted tick
runs only the windows it marks, a session reads its sources only that reach
deep), a stateful operator
promises that its carry over skipped windows is its carry through them
(targeted execution skips what eager runs), and a stateless lowered
operator promises to depend on its windows' contents and grid phase only,
not on their position (serving stacks one window of many tenants into one
``compute_run`` on its word).

This module validates those claims *by execution on synthesized
geometries* instead of trusting them, so a wrong declaration becomes a
named diagnostic (``LS202``, ``LS203``, ``LS205``, ``LS208``, ``LS209``,
``LS210``, ``LS211``) instead of a bit-identity failure three layers away.
The lineage claims are checked against the eager serial run, which never
skips a window, on seeded gappy copies of each case's sources.  Checking is
registry-driven: :func:`builtin_cases` holds one :class:`OperatorCase` per
in-repo operator, and :func:`check_contracts` additionally discovers every
``Operator`` subclass so an operator without a case is itself reported
(``LS207``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.core.compiler import CompiledPlan, compile_plan
from repro.core.compiler.lineage import covered_windows
from repro.core.engine import CompiledQuery
from repro.core.graph import OperatorNode, copy_carries, load_carries, topological_order
from repro.core.operators import Operator
from repro.core.query import Query
from repro.core.runtime.backends import ExecutionBackend, SerialBackend, VectorizedBackend
from repro.core.runtime.executor import fill_windows
from repro.core.runtime.session import tick_batch
from repro.core.runtime.vectorized import plan_vector_info
from repro.core.sources import ArraySource, ReplaySource, StreamSource


@dataclass
class OperatorCase:
    """One registered conformance case: an operator in a runnable plan.

    ``build`` returns a fresh ``(query, sources)`` pair each call — the
    checks compile the plan several times (reference, run-lowered
    recompiles, restored continuation) and each compile must start from
    pristine state.  ``window_size`` must satisfy every dimension
    constraint of the built plan.
    """

    name: str
    operator_cls: type
    build: Callable[[], tuple[Query, dict[str, StreamSource]]]
    window_size: int = 96


def _contract(code: str, severity: str, message: str, anchor: str) -> Diagnostic:
    return Diagnostic(code, severity, message, anchor=anchor, check="contract")


# ---------------------------------------------------------------------------
# Synthesized geometries
# ---------------------------------------------------------------------------


def _signal(n: int, period: int, offset: int = 0, gap_at: float = 0.45, seed: int = 3):
    """A deterministic test signal: a wavy ramp with one mid-stream gap.

    The gap makes targeted coverage non-trivial (runs of consecutive
    windows with a hole between them), which is exactly where run-lowered
    execution must still agree with serial.
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


#: Plans the checks executed in this process (one-shot runs, sessions and
#: window loops); ``python -m repro.analysis`` reports it.
plan_runs = 0


def _counted(runs: int = 1) -> None:
    global plan_runs
    plan_runs += runs


def _events(plan: CompiledPlan, backend: ExecutionBackend, targeted: bool = True):
    _counted()
    result = CompiledQuery(plan, targeted=targeted, backend=backend).run()
    return result.times, result.values, result.durations


def _same_events(a, b) -> bool:
    return (
        np.array_equal(a[0], b[0])
        and np.array_equal(a[1], b[1], equal_nan=True)
        and np.array_equal(a[2], b[2])
    )


def _compile(case: OperatorCase) -> CompiledPlan:
    query, sources = case.build()
    return compile_plan(query, sources, window_size=case.window_size)


def _fresh(plan: CompiledPlan) -> CompiledPlan:
    for node in topological_order(plan.sink):
        node.reset()
    return plan


def _operator_nodes(plan: CompiledPlan) -> list[OperatorNode]:
    return [n for n in topological_order(plan.sink) if isinstance(n, OperatorNode)]


# ---------------------------------------------------------------------------
# The individual contract checks
# ---------------------------------------------------------------------------


def _check_run_parity(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate ``compute_run`` against per-window ``compute``.

    Only meaningful when the plan actually lowers (a plan with no run
    kernel executes serially).  Short run caps exercise run boundaries and
    views of longer run buffers, a cap of 512 long runs, and ``None`` the
    slot-budget default.
    """
    plan = _compile(case)
    if not (plan_vector_info(plan).runnable and plan_vector_info(plan).lowered_operators):
        return
    reference = _events(plan, SerialBackend())
    for cap in (2, 5, 512, None):
        lowered = _events(_compile(case), VectorizedBackend(max_run_windows=cap))
        if not _same_events(reference, lowered):
            out.append(
                _contract(
                    "LS202",
                    "error",
                    f"{case.name}.compute_run disagrees with per-window "
                    f"compute (run cap {cap or 'default'}: {reference[0].size} vs "
                    f"{lowered[0].size} events); the vectorized backend "
                    "would silently corrupt results",
                    anchor=case.name,
                )
            )
            return


def _split_starts(plan: CompiledPlan):
    starts = covered_windows(plan).tolist()
    if len(starts) < 6:
        raise ValueError(
            f"synthesized geometry yields only {len(starts)} windows; "
            "state checks need at least 6 — widen the sources"
        )
    return starts, len(starts) // 2


def _check_state_roundtrip(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate that the declared carries are the whole cross-window state.

    Copy the carries mid-stream as a checkpoint does, keep executing, then
    load the copy into a fresh plan and replay the tail: state an operator
    keeps outside its declared carries (on itself, say) escapes the copy
    and makes the restored run drift from the reference.
    """
    plan = _fresh(_compile(case))
    starts, split = _split_starts(plan)
    _counted(3)
    fill_windows(plan.sink, starts[:split])
    reference_tail = fill_windows(plan.sink, starts[split:])

    live = _fresh(_compile(case))
    fill_windows(live.sink, starts[:split])
    # Copies are keyed by topological position: each build() constructs a
    # fresh query whose generated node names differ, but the node *order* of
    # structurally identical plans is stable.
    copies = [copy_carries(node) for node in _operator_nodes(live)]
    fill_windows(live.sink, starts[split:])

    restored = _fresh(_compile(case))
    for node, saved in zip(_operator_nodes(restored), copies):
        load_carries(node, saved)
    restored_tail = fill_windows(restored.sink, starts[split:])
    if not _same_events(reference_tail, restored_tail):
        out.append(
            _contract(
                "LS203",
                "error",
                f"{case.name} checkpoint/restore round trip does not "
                f"reproduce the stream ({reference_tail[0].size} vs "
                f"{restored_tail[0].size} events after restore); the "
                "operator keeps state outside its declared carries",
                anchor=case.name,
            )
        )


class _Recording(SerialBackend):
    """The serial backend, noting the start of every window it runs."""

    def __init__(self) -> None:
        self.starts: list[int] = []

    def session_tick(self, plan, starts):
        self.starts.extend(starts)
        return super().session_tick(plan, starts)


#: Seeds of the gappy inputs the lineage checks run every case on.
LINEAGE_SEEDS = range(6)


def _gappy_input(source: StreamSource, seed: int, dimension: int, phase: int) -> ArraySource:
    """*source*'s events with seeded gaps cut out: gaps from one tick to
    four windows of the grid ``phase + k * dimension``, between stretches
    of half a window to three windows.  Half the gaps open at most 31 ticks
    before a window of the grid ends, log-uniformly (most within a few
    ticks), where output that outlives its input by a short reach spills
    into the next window."""
    begin, end = source.coverage().span()
    times, values, durations = source.read(begin, end)
    rng = np.random.default_rng(seed)
    keep = np.ones(times.size, dtype=bool)
    cursor = begin + int(rng.integers(0, 2 * dimension))
    while cursor < end:
        if rng.random() < 0.5:
            cursor += (phase - cursor) % dimension - int(rng.integers(0, 2 ** int(rng.integers(1, 6))))
        gap = int(rng.integers(1, 4 * dimension))
        keep &= (times < cursor) | (times >= cursor + gap)
        cursor += gap + int(rng.integers(dimension // 2, 3 * dimension))
    period = source.descriptor.period
    return ArraySource(
        times[keep],
        values[keep],
        period=period,
        offset=source.descriptor.offset,
        durations=None if (durations == period).all() else durations[keep],
    )


def _window_events(events, start: int, dimension: int):
    """The events of *events* (stream-ordered columns) in ``[start, start + dimension)``."""
    low, high = np.searchsorted(events[0], (start, start + dimension))
    return tuple(column[low:high] for column in events)


def _check_lineage(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate the lineage claims against the eager serial run.

    On seeded gappy copies of the case's sources (:func:`_gappy_input`),
    a one-shot targeted run must run every window in which the eager run
    emits — ``LS210`` when the case's operator has its own
    ``coverage_rows``, ``LS208`` when the default rule spreads its marks
    by ``coverage_reach`` — and emit the same events in every window both
    ran (``LS211``, the carry gap).  A session over ``ReplaySource``
    copies, ticked half a window at a time, must emit what the one-shot
    run emits (``LS208``: a tick reads its sources only
    ``coverage_reach`` deep).  The first finding of each code is reported.
    """
    template = _compile(case)
    dimension, phase = template.sink.dimension, template.sink.descriptor.offset
    if case.operator_cls.coverage_rows is not Operator.coverage_rows:
        code, rule = "LS210", "its coverage_rows leaves it unmarked"
    else:
        reach = next(
            node.operator.coverage_reach()
            for node in _operator_nodes(template)
            if isinstance(node.operator, case.operator_cls)
        )
        code = "LS208"
        rule = f"the default row rule, spread by its coverage_reach()={reach}, leaves it unmarked"
    found: dict[str, str] = {}
    for seed in LINEAGE_SEEDS:
        inputs = {
            name: _gappy_input(source, 1000 * seed + index, dimension, phase)
            for index, (name, source) in enumerate(sorted(template.sources.items()))
        }
        eager_backend, targeted_backend = _Recording(), _Recording()
        eager = _events(template.instantiate(inputs), eager_backend, targeted=False)
        targeted = _events(template.instantiate(inputs), targeted_backend)
        ran = set(targeted_backend.starts)
        emitting = np.unique(eager[0] - (eager[0] - phase) % dimension)
        missed = [int(start) for start in emitting if int(start) not in ran]
        if missed and code not in found:
            found[code] = (
                f"{case.name}: a targeted run never runs the window at "
                f"t={missed[0]} in which the eager run emits ({len(missed)} "
                f"window(s) in all, gappy input {seed}); for "
                f"{case.operator_cls.__name__} {rule}, so a streaming tick "
                "skips a window that can emit"
            )
        if "LS211" not in found:
            for start in sorted(ran.intersection(eager_backend.starts)):
                if not _same_events(
                    _window_events(eager, start, dimension),
                    _window_events(targeted, start, dimension),
                ):
                    found["LS211"] = (
                        f"{case.name}: the window at t={start}, which both the "
                        f"targeted and the eager schedule ran, emits different "
                        f"events (gappy input {seed}); state carried over the "
                        "windows targeted skipped is not the state carried "
                        "through them"
                    )
                    break
        if "LS208" not in found:
            ticked = _ticked_events(template, inputs, dimension)
            if not _same_events(ticked, targeted):
                found["LS208"] = (
                    f"{case.name}: a session ticked half a window at a time "
                    f"emits {ticked[0].size} events where the one-shot run "
                    f"emits {targeted[0].size} (gappy input {seed}); a tick "
                    "reads its sources only coverage_reach() deep"
                )
    for code in sorted(found):
        out.append(_contract(code, "error", found[code], anchor=case.name))


def _ticked_events(template: CompiledPlan, inputs: dict, dimension: int):
    """The events of a targeted serial session over replayed *inputs*,
    advanced half a window per tick and then finished."""
    _counted()
    session = CompiledQuery(
        template.instantiate({name: ReplaySource(source) for name, source in inputs.items()}),
        targeted=True,
        backend=SerialBackend(),
    ).open_session()
    first = min(source.coverage().span()[0] for source in inputs.values())
    last = max(source.coverage().span()[1] for source in inputs.values())
    try:
        for watermark in range(first + dimension // 2, last, dimension // 2):
            session.advance(watermark)
        session.finish()
        result = session.result()
    finally:
        session.close()
    return result.times, result.values, result.durations


#: Windows each LS209 clone's watermark runs ahead of the first clone's:
#: cohort members then sit at distinct, out-of-order starts, never laid out
#: like a run of consecutive windows.
COHORT_LEADS = (0, 3, 1)


def _check_cohort_stack(case: OperatorCase, out: list[Diagnostic]) -> None:
    """Validate stacking one window of many tenants into one array program.

    Clones of one template over distinct seeded gappy inputs tick as one
    cohort (:func:`~repro.core.runtime.session.tick_batch`), each advanced
    its :data:`COHORT_LEADS` windows ahead so that a cohort holds windows
    at different starts; each must emit exactly what the same clone emits
    ticking alone.  A stateless lowered kernel that reads its window's
    position instead of just its contents and grid phase differs.  A run
    kernel LS202 already refuted is not checked again.
    """
    if any(d.code == "LS202" and d.anchor == case.name for d in out):
        return
    template = _compile(case)
    if not VectorizedBackend().session_mode(template).startswith(VectorizedBackend.name):
        return  # the plan ticks serially, so it never joins a cohort
    dimension = template.sink.dimension
    inputs = [
        {
            name: _gappy_input(source, 209 + clone, dimension, template.sink.descriptor.offset)
            for name, source in template.sources.items()
        }
        for clone in range(len(COHORT_LEADS))
    ]
    first = min(source.coverage().span()[0] for source in template.sources.values())
    last = max(source.coverage().span()[1] for source in template.sources.values())
    steps = range(first + dimension, last + max(COHORT_LEADS) * dimension, dimension)

    def open_clones():
        _counted(len(inputs))
        return [
            CompiledQuery(
                template.instantiate(
                    {name: ReplaySource(source) for name, source in sources.items()}
                ),
                targeted=True,
                backend=VectorizedBackend(),
            ).open_session()
            for sources in inputs
        ]

    together, alone = open_clones(), open_clones()
    cohort_ticks = 0
    for watermark in steps:
        batch = [
            (session, watermark + lead * dimension)
            for lead, session in zip(COHORT_LEADS, together)
        ]
        cohort_ticks += sum(stats.cohort_size > 1 for stats in tick_batch(batch))
        for session, clone_watermark in zip(alone, (w for _, w in batch)):
            session.advance(clone_watermark)
    if not cohort_ticks:
        raise ValueError(
            "synthesized geometry never formed a cohort; LS209 needs clones "
            "with one ready window in the same batch"
        )
    for clone, (stacked, single) in enumerate(zip(together, alone)):
        stacked.finish()
        single.finish()
        expected, got = single.result(), stacked.result()
        if not _same_events(
            (expected.times, expected.values, expected.durations),
            (got.times, got.values, got.durations),
        ):
            out.append(
                _contract(
                    "LS209",
                    "error",
                    f"{case.name}: clone {clone} of a {len(COHORT_LEADS)}-tenant "
                    f"cohort differs from the same clone ticked alone "
                    f"({expected.times.size} vs {got.times.size} events); a "
                    "stateless kernel reads its window's position, so serving "
                    "would corrupt every tenant stacked after the first",
                    anchor=case.name,
                )
            )
            return


def check_operator_case(case: OperatorCase) -> list[Diagnostic]:
    """Run every contract check for one registered case."""
    diagnostics: list[Diagnostic] = []
    for check in (
        _check_run_parity,
        _check_state_roundtrip,
        _check_lineage,
        _check_cohort_stack,
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

    def gappy_interpolate_case():
        # Factor 4 over a 12-slot window, a third of the samples dropped:
        # windows with one present sample, none, or gaps at either edge.
        times, values = _signal(384, period=8)
        keep = np.random.default_rng(4).random(times.size) > 0.35
        return Query.source("s", period=8).alter_period(2, "interpolate"), {
            "s": ArraySource(times[keep], values[keep], period=8)
        }

    def non_multiple_case():
        # Period 2 -> 3 samples the active event without a carry.  Events
        # that outlive their period, a third of them dropped, leave windows
        # that start in a gap an event of the window before still covers:
        # only there does the output depend on where windows end.
        times, values = _signal(768, period=2)
        keep = np.random.default_rng(5).random(times.size) > 0.35
        return Query.source("s", period=2).alter_period(3), {
            "s": ArraySource(
                times[keep], values[keep], period=2, durations=np.full(keep.sum(), 5)
            )
        }

    def phased(join):
        # b's period-4 grid sits two ticks off the output's, so the join
        # reads b's windows two ticks early, at another phase: the output's
        # last slots of every window lie past the b window it reads.
        def build():
            left = Query.source("a", period=2)
            right = Query.source("b", period=4, offset=2)
            return join(left, right), {
                "a": _source(n=768, period=2, seed=3),
                "b": _source(n=384, period=4, offset=2, seed=11),
            }

        return build

    def off_period_shift_case():
        # A shift that is not a multiple of the period repositions its
        # input window instead of carrying.
        return Query.source("b", period=4).shift(2), {"b": _source(n=384, period=4, seed=11)}

    def shape_case():
        query, sources = _single(period=2, n=768, seed=5)
        shape = np.sin(np.linspace(0.0, np.pi, 12))
        return query.where_shape(shape, threshold=0.6, mode="remove"), sources

    def shape_straddling_case():
        # Every fourth 144-tick window is empty, and the shape's halves end
        # the window before it and open the window after it: eager runs the
        # empty window, which drops the match's tail; targeted skips it, so
        # the tail must age out rather than complete the match.
        shape = np.sin(np.linspace(0.0, np.pi, 12))
        times = np.arange(0, 16 * 144, 2, dtype=np.int64)
        times = times[times // 144 % 4 != 1]
        values = np.random.default_rng(7).uniform(-1.0, -0.5, times.size)
        for gap in range(144, 16 * 144, 4 * 144):
            before, after = np.searchsorted(times, (gap, gap + 144))
            values[before - 6 : before], values[after : after + 6] = shape[:6], shape[6:]
        query = Query.source("s", period=2).where_shape(shape, threshold=0.6, mode="keep")
        return query, {"s": ArraySource(times, values, period=2)}

    return [
        OperatorCase("Select", Select, _apply(lambda q: q.select(lambda v: v * 3.0 + 1.0))),
        OperatorCase("Where", Where, _apply(lambda q: q.where(lambda v: v > 2.0))),
        OperatorCase("Shift", Shift, _apply(lambda q: q.shift(4))),
        OperatorCase("Shift-off-period", Shift, off_period_shift_case),
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
            "Join-left-phased", Join, phased(lambda a, b: a.left_join(b, lambda x, y: x - y))
        ),
        OperatorCase(
            "Join-inner-phased", Join, phased(lambda a, b: a.join(b, lambda x, y: x - y))
        ),
        OperatorCase(
            "Join-shifted", Join, _pair(lambda a, b: a.join(b.shift(2), lambda x, y: x - y))
        ),
        OperatorCase(
            "Join-shifted-aggregate",
            Join,
            _pair(lambda a, b: a.join(b.shift(2).tumbling_window(16).mean(), lambda x, y: x - y)),
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
        OperatorCase(
            "AlterPeriod-interpolate-up-x4-gappy", AlterPeriod, gappy_interpolate_case
        ),
        OperatorCase("AlterPeriod-down", AlterPeriod, _apply(lambda q: q.alter_period(4))),
        OperatorCase("AlterPeriod-non-multiple", AlterPeriod, non_multiple_case),
        OperatorCase("Chop", Chop, _apply(lambda q: q.alter_duration(8).chop(2))),
        OperatorCase(
            "Transform",
            Transform,
            _apply(lambda q: q.transform(24, kernels.zscore_kernel())),
        ),
        OperatorCase("ShapeWhere", ShapeWhere, shape_case, window_size=128),
        OperatorCase("ShapeWhere-straddling", ShapeWhere, shape_straddling_case, window_size=128),
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
