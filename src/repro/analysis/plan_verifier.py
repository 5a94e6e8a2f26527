"""Static verification of compiled plans (the ``LS1xx`` diagnostics).

``verify_plan_graph`` is a pure function over the plan IR after the
standard passes have run (coverage propagated, dimensions assigned, chains
fused): it proves or refutes soundness properties *before* a single window
executes.  The ``verify`` pass (:class:`repro.core.compiler.passes.VerifyPass`)
runs it at the end of the default pipeline; the findings land on
:attr:`CompiledPlan.diagnostics`, in ``explain()``, and — under
``compile_plan(..., strict=True)`` — in a raised
:class:`~repro.errors.PlanVerificationError`.

Checked properties:

- **Dimension algebra** (LS101): every traced FWindow dimension is a
  multiple of its operator's ``dimension_constraint`` and every input
  dimension matches ``required_input_dimension`` — the invariants locality
  tracing is supposed to establish, re-proved instead of trusted.
- **Time-map soundness** (LS102, LS106): a non-unit time-map scale breaks
  the consecutive-window invariant run lowering and input positioning rely
  on (today it forces a silent whole-plan serial fallback at runtime; here
  the exact node is named at compile time).  Non-integral shifts would move
  sync times off the tick grid.
- **Join grid alignment** (LS103): join inputs whose grids never share an
  instant get instant-sampling semantics only and lose the aligned-grid run
  fast path.
- **Dead operators** (LS104): lineage coverage proves the node can never
  produce output.
- **Fused-chain legality** (LS105): every ``FusedElementwise`` node holds
  at least two stages, all of them element-wise.
- **Watermark assumptions** (LS107): mixing watermark-gated and static
  sources, which a streaming session treats very differently.
- **Vectorized lowering** (LS108): surfaces at compile time when (and why)
  the vectorized backend would execute the whole plan window-by-window.
"""

from __future__ import annotations

from math import gcd

from repro.analysis.diagnostics import Diagnostic
from repro.core.graph import OperatorNode, PlanNode, SourceNode, topological_order
from repro.core.operators import FUSABLE_OPERATORS, FusedElementwise
from repro.core.sources import PushSource, ReplaySource


def _plan(code: str, severity: str, message: str, anchor: str = "") -> Diagnostic:
    return Diagnostic(code, severity, message, anchor=anchor, check="plan")


def _check_dimensions(node: OperatorNode, out: list[Diagnostic]) -> None:
    operator = node.operator
    if node.dimension is None:
        out.append(
            _plan(
                "LS101",
                "error",
                f"{operator.name} has no FWindow dimension assigned; "
                "locality tracing did not run over this node",
                anchor=node.name,
            )
        )
        return
    input_descriptors = [inp.descriptor for inp in node.inputs]
    constraint = operator.dimension_constraint(input_descriptors)
    if constraint <= 0 or node.dimension % constraint != 0:
        out.append(
            _plan(
                "LS101",
                "error",
                f"{operator.name} dimension {node.dimension} is not a "
                f"positive multiple of its declared constraint {constraint}",
                anchor=node.name,
            )
        )
    for index, inp in enumerate(node.inputs):
        required = operator.required_input_dimension(node.dimension, index)
        if inp.dimension != required:
            out.append(
                _plan(
                    "LS101",
                    "error",
                    f"{operator.name} needs input {index} at dimension "
                    f"{required} to produce dimension {node.dimension}, but "
                    f"{inp.name} was traced at {inp.dimension}",
                    anchor=node.name,
                )
            )


def _check_time_maps(node: OperatorNode, out: list[Diagnostic]) -> None:
    operator = node.operator
    for index in range(len(node.inputs)):
        time_map = operator.time_map(index)
        if time_map.scale != 1:
            out.append(
                _plan(
                    "LS102",
                    "error",
                    f"{operator.name} scales time on input {index} "
                    f"(map {time_map}): consecutive input windows no longer "
                    "map to consecutive output windows, so run lowering is "
                    "unsound and the vectorized backend silently falls back "
                    "to whole-plan serial execution",
                    anchor=node.name,
                )
            )
        if time_map.scale <= 0:
            out.append(
                _plan(
                    "LS106",
                    "error",
                    f"{operator.name} has a non-positive time-map scale on "
                    f"input {index} (map {time_map}); the map is not "
                    "invertible over forward-moving streams",
                    anchor=node.name,
                )
            )
        if time_map.shift.denominator != 1:
            out.append(
                _plan(
                    "LS106",
                    "error",
                    f"{operator.name} shifts time by the non-integral amount "
                    f"{time_map.shift} on input {index}; mapped sync times "
                    "leave the integer tick grid",
                    anchor=node.name,
                )
            )


def _check_join_alignment(node: OperatorNode, out: list[Diagnostic]) -> None:
    if node.operator.arity != 2 or len(node.inputs) != 2:
        return
    left, right = (inp.descriptor for inp in node.inputs)
    step = gcd(left.period, right.period)
    if left.offset % step != right.offset % step:
        out.append(
            _plan(
                "LS103",
                "warning",
                f"{node.operator.name} inputs live on grids "
                f"({left.offset},{left.period}) and "
                f"({right.offset},{right.period}) that never share a sync "
                "time; events pair only through their durations "
                "(instant-sampling semantics) and the aligned-grid run fast "
                "path cannot apply",
                anchor=node.name,
            )
        )


def _check_dead_operators(
    nodes: list[PlanNode], out: list[Diagnostic]
) -> None:
    any_source_data = any(
        node.coverage for node in nodes if isinstance(node, SourceNode)
    )
    if not any_source_data:
        return
    for node in nodes:
        if isinstance(node, OperatorNode) and node.coverage is not None and not node.coverage:
            out.append(
                _plan(
                    "LS104",
                    "warning",
                    f"{node.operator.name} has empty lineage coverage while "
                    "its sources hold data: it can never produce output and "
                    "targeted execution will never compute it",
                    anchor=node.name,
                )
            )


def _check_fused_chains(node: OperatorNode, out: list[Diagnostic]) -> None:
    operator = node.operator
    if not isinstance(operator, FusedElementwise):
        return
    stages = [stage for stage, _ in operator.stages]
    if len(stages) < 2:
        out.append(
            _plan(
                "LS105",
                "error",
                f"fused chain holds {len(stages)} stage(s); fusion only pays "
                "for chains of at least two operators",
                anchor=node.name,
            )
        )
    for stage in stages:
        if not isinstance(stage, FUSABLE_OPERATORS):
            out.append(
                _plan(
                    "LS105",
                    "error",
                    f"fused chain contains non-fusable stage "
                    f"{type(stage).__name__}; only element-wise operators "
                    "may fuse",
                    anchor=node.name,
                )
            )


def _check_source_liveness(nodes: list[PlanNode], out: list[Diagnostic]) -> None:
    live: list[str] = []
    static: list[str] = []
    for node in nodes:
        if isinstance(node, SourceNode):
            if isinstance(node.source, (ReplaySource, PushSource)):
                live.append(node.name)
            else:
                static.append(node.name)
    if live and static:
        out.append(
            _plan(
                "LS107",
                "warning",
                f"sources {sorted(live)} are watermark-gated but "
                f"{sorted(static)} are static; a streaming session treats a "
                "static source's coverage as final, so windows needing data "
                "past its end will never become ready",
                anchor=",".join(sorted(static)),
            )
        )


def _check_vectorized_lowering(sink: PlanNode, out: list[Diagnostic]) -> None:
    # Imported here, not at module load: repro.core.runtime pulls in the
    # compiler during its own initialisation, and this module is itself
    # imported lazily from a compiler pass.
    from repro.core.runtime.vectorized import analyze_plan

    info = analyze_plan(sink)
    if not info.runnable:
        if "scales time" in info.reason:
            return  # already an LS102 error with the exact node named
        out.append(
            _plan(
                "LS108",
                "info",
                f"run lowering is unsound for this plan ({info.reason}); "
                "the vectorized backend will execute it entirely "
                "window-by-window",
            )
        )
    elif info.operator_nodes > 0 and info.lowered_operators == 0:
        out.append(
            _plan(
                "LS108",
                "info",
                f"none of the {info.operator_nodes} operator node(s) lowers "
                "to a run kernel; the vectorized backend would execute this "
                "plan entirely window-by-window",
            )
        )


def verify_plan_graph(sink: PlanNode) -> list[Diagnostic]:
    """Verify the plan rooted at *sink*, returning every finding.

    Pure: the graph is only read.  Expects the standard passes to have run
    (coverage propagated, dimensions assigned); missing pass output is
    itself reported rather than assumed.
    """
    diagnostics: list[Diagnostic] = []
    nodes = topological_order(sink)
    for node in nodes:
        if not isinstance(node, OperatorNode):
            continue
        _check_dimensions(node, diagnostics)
        _check_time_maps(node, diagnostics)
        _check_join_alignment(node, diagnostics)
        _check_fused_chains(node, diagnostics)
    _check_dead_operators(nodes, diagnostics)
    _check_source_liveness(nodes, diagnostics)
    _check_vectorized_lowering(sink, diagnostics)
    return diagnostics


def verify_compiled_plan(plan) -> list[Diagnostic]:
    """Verify a :class:`~repro.core.compiler.CompiledPlan` (fresh analysis).

    Plans compiled through the default pipeline already carry the verify
    pass's findings in ``plan.diagnostics``; this re-runs the analysis for
    plans built by custom pipelines or mutated after compilation.
    """
    return verify_plan_graph(plan.sink)
