"""Query compilation: spec → plan IR → passes → executable plan.

``build_plan`` turns the declarative :class:`~repro.core.query.Query` spec
into a graph of plan nodes, binding named sources to concrete
:class:`~repro.core.sources.StreamSource` objects.  ``compile_plan`` then
drives the ordered pass pipeline of :mod:`repro.core.compiler.passes`:

1. ``normalize``        — spec canonicalisation + plan-IR construction,
2. ``lineage``          — coverage propagation for targeted query
   processing (:mod:`repro.core.compiler.lineage`),
3. ``locality``         — locality tracing (:mod:`repro.core.compiler.locality`),
4. ``fuse_elementwise`` — element-wise operator fusion
   (:mod:`repro.core.compiler.fusion`),
5. ``memory``           — static memory allocation
   (:mod:`repro.core.compiler.memory`),
6. ``verify``           — static plan verification
   (:mod:`repro.analysis.plan_verifier`), whose findings land on
   :attr:`CompiledPlan.diagnostics`.

Every pass is timed; :meth:`CompiledPlan.explain` reports the timeline.
``compile_plan(..., strict=True)`` raises
:class:`~repro.errors.PlanVerificationError` when verification produces
error-level diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.compiler.fusion import FusionReport, fuse_elementwise
from repro.core.compiler.lineage import (
    backward_time_map,
    coverage_program,
    forward_time_map,
    propagate_coverage,
    redundant_source_coverage,
    trace_output_to_source,
)
from repro.core.compiler.locality import assign_dimensions, trace_dimensions, uniform_dimension
from repro.core.compiler.memory import MemoryPlan, allocate, estimate_footprint
from repro.core.compiler.passes import (
    MAX_OPTIMIZATION_LEVEL,
    CompilerPass,
    FuseElementwisePass,
    LineagePass,
    LocalityPass,
    MemoryPass,
    NormalizePass,
    PassContext,
    PassManager,
    PassTiming,
    VectorizePass,
    VerifyPass,
)
from repro.core.graph import OperatorNode, PlanNode, SourceNode, topological_order
from repro.core.intervals import IntervalSet
from repro.core.query import Query, QuerySpec
from repro.core.sources import StreamSource
from repro.core.timeutil import TICKS_PER_MINUTE
from repro.errors import CompilationError, PlanVerificationError, QueryConstructionError

__all__ = [
    "build_plan",
    "compile_plan",
    "CompiledPlan",
    "MemoryPlan",
    "PassManager",
    "PassContext",
    "PassTiming",
    "CompilerPass",
    "NormalizePass",
    "LineagePass",
    "LocalityPass",
    "FuseElementwisePass",
    "MemoryPass",
    "VectorizePass",
    "VerifyPass",
    "MAX_OPTIMIZATION_LEVEL",
    "FusionReport",
    "fuse_elementwise",
    "assign_dimensions",
    "trace_dimensions",
    "uniform_dimension",
    "allocate",
    "estimate_footprint",
    "propagate_coverage",
    "forward_time_map",
    "backward_time_map",
    "trace_output_to_source",
    "redundant_source_coverage",
]


def build_plan(query: Query, sources: dict[str, StreamSource] | None = None) -> PlanNode:
    """Instantiate the plan graph for *query*, binding its named sources.

    Spec nodes shared via ``Multicast`` become a single shared plan node, so
    the resulting structure is a DAG, not a tree.
    """
    sources = sources or {}
    memo: dict[int, PlanNode] = {}

    def build(spec: QuerySpec) -> PlanNode:
        existing = memo.get(id(spec))
        if existing is not None:
            return existing
        if spec.kind == "source":
            source = spec.bound_source
            if source is None:
                if spec.source_name not in sources:
                    raise QueryConstructionError(
                        f"query references source {spec.source_name!r} but no such "
                        f"source was provided (available: {sorted(sources)})"
                    )
                source = sources[spec.source_name]
            declared = spec.declared_descriptor
            if declared is not None and declared.period != source.descriptor.period:
                raise QueryConstructionError(
                    f"source {spec.source_name!r} was declared with period "
                    f"{declared.period} but the bound source has period "
                    f"{source.descriptor.period}"
                )
            node: PlanNode = SourceNode(spec.name, source)
        elif spec.kind == "operator":
            inputs = [build(child) for child in spec.inputs]
            node = OperatorNode(spec.name, spec.operator, inputs)
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unknown spec kind {spec.kind!r}")
        memo[id(spec)] = node
        return node

    return build(query.spec)


@dataclass
class CompiledPlan:
    """The result of compiling a query: an executable plan plus its metadata."""

    sink: PlanNode
    window_size: int
    memory_plan: MemoryPlan
    output_coverage: IntervalSet
    #: Timed record of the pass pipeline that produced this plan.
    pass_timings: list[PassTiming] = field(default_factory=list)
    #: Free-form per-pass facts (e.g. fusion statistics).
    pass_metadata: dict = field(default_factory=dict)
    #: The query and bound sources the plan was compiled from.
    query: Query | None = None
    sources: dict[str, StreamSource] | None = None
    tracer: object = None
    optimization_level: int = MAX_OPTIMIZATION_LEVEL
    #: Findings from the verify pass (:class:`repro.analysis.Diagnostic`).
    #: Empty for clean plans and for custom pipelines without a verify pass.
    diagnostics: list = field(default_factory=list)
    #: The plan this one was :meth:`instantiate`\ d from (None for a plan
    #: compiled directly).  Clones of one template share its shape exactly,
    #: which is what lets serving execute them together as a cohort.
    template: "CompiledPlan | None" = field(default=None, repr=False, compare=False)

    @cached_property
    def nodes(self) -> list[PlanNode]:
        """Every node of the plan, inputs before consumers (topological
        order; a clone lists its nodes in its template's order)."""
        return topological_order(self.sink)

    def instantiate(
        self,
        sources: dict[str, StreamSource] | None = None,
        strict: bool = True,
    ) -> "CompiledPlan":
        """Clone this plan's runtime state, sharing the immutable pass output.

        Multi-tenant serving runs the *same* compiled query over many
        independent client streams.  Recompiling per client repeats work
        whose result cannot change — spec normalization, locality tracing,
        fusion — because it depends only on the query shape, the window size
        and the optimization level.  ``instantiate`` therefore rebuilds only
        the per-client state: a fresh graph of plan nodes (reusing the
        template's operator objects, which are pure descriptions), freshly
        allocated FWindow buffers of the same traced dimensions, and fresh
        operator carry state.

        ``sources`` rebinds source nodes by name to a client's own streams
        (every node with a matching name, including repeated references to
        one source name from separate spec nodes); unnamed nodes keep the
        template's source.  A replacement source must have the template
        descriptor (same offset and period) — the traced dimensions are only
        valid on that grid.  Coverage is re-propagated over the clone, since
        each client's data has its own gaps.  With ``strict`` (the default)
        replacement names that match no source node raise; ``strict=False``
        ignores them, matching ``build_plan``'s tolerance of extra entries
        in a shared sources dict.
        """
        from repro.core.fwindow import FWindow

        replacements = dict(sources or {})
        rebound: set[str] = set()
        memo: dict[int, PlanNode] = {}

        def clone(node: PlanNode) -> PlanNode:
            existing = memo.get(id(node))
            if existing is not None:
                return existing
            if isinstance(node, SourceNode):
                source = replacements.get(node.name, node.source)
                if node.name in replacements:
                    rebound.add(node.name)
                if source.descriptor != node.source.descriptor:
                    raise CompilationError(
                        f"cannot instantiate plan: replacement source {node.name!r} "
                        f"has descriptor {source.descriptor} but the plan was "
                        f"compiled for {node.source.descriptor}; recompile for "
                        f"streams on a different grid"
                    )
                fresh: PlanNode = SourceNode(node.name, source)
            else:
                fresh = OperatorNode(
                    node.name, node.operator, [clone(child) for child in node.inputs]
                )
                fresh.state = node.operator.make_state()
            fresh.dimension = node.dimension
            if node.fwindow is not None:
                fresh.fwindow = FWindow(
                    fresh.descriptor, node.dimension, name=node.name, tracer=self.tracer
                )
            memo[id(node)] = fresh
            return fresh

        sink = clone(self.sink)
        unmatched = set(replacements) - rebound
        if unmatched and strict:
            raise CompilationError(
                f"cannot instantiate plan: no source node named "
                f"{sorted(unmatched)} in the plan (available: "
                f"{sorted(n.name for n in sink.iter_nodes() if isinstance(n, SourceNode))})"
            )
        # Clones share the template's shape, so they share its coverage program.
        coverage = propagate_coverage(sink, program=coverage_program(self))
        bound = {
            node.name: node.source
            for node in sink.iter_nodes()
            if isinstance(node, SourceNode)
        }
        clone = CompiledPlan(
            sink=sink,
            window_size=self.window_size,
            # Same node set, same descriptors, same dimensions -> the
            # template's (frozen) memory plan describes the clone exactly.
            memory_plan=self.memory_plan,
            output_coverage=coverage,
            pass_timings=self.pass_timings,
            pass_metadata=self.pass_metadata,
            query=self.query,
            sources=bound,
            tracer=self.tracer,
            optimization_level=self.optimization_level,
            # Verification is a property of the plan shape, which the clone
            # shares with its template.
            diagnostics=self.diagnostics,
            template=self if self.template is None else self.template,
        )
        return clone

    def explain(self) -> str:
        """Human-readable plan dump in the paper's ``(offset,period)[dim]`` notation."""
        from repro.core.graph import describe_plan

        header = (
            f"window size: {self.window_size} ticks, "
            f"pre-allocated: {self.memory_plan.total_bytes} bytes, "
            f"output coverage: {self.output_coverage.total_length()} ticks"
        )
        lines = [header, describe_plan(self.sink)]
        if self.pass_timings:
            lines.append("pass timeline:")
            for timing in self.pass_timings:
                note = self.pass_metadata.get(timing.name)
                suffix = f"  ({note})" if note else ""
                lines.append(f"  {timing.name:<18} {timing.seconds * 1e3:8.3f} ms{suffix}")
        if self.diagnostics:
            lines.append("diagnostics:")
            lines.extend(f"  {d.render()}" for d in self.diagnostics)
        return "\n".join(lines)


def compile_plan(
    query: Query,
    sources: dict[str, StreamSource] | None = None,
    window_size: int = TICKS_PER_MINUTE,
    tracer=None,
    optimization_level: int = MAX_OPTIMIZATION_LEVEL,
    pass_manager: PassManager | None = None,
    strict: bool = False,
) -> CompiledPlan:
    """Compile *query* into an executable :class:`CompiledPlan`.

    ``optimization_level`` gates the rewriting passes: 0 compiles the query
    verbatim, 1 adds spec normalization, 2 (default) adds operator fusion.
    A custom ``pass_manager`` replaces the default pipeline entirely.
    ``strict`` raises
    :class:`~repro.errors.PlanVerificationError` when plan verification
    produces error-level diagnostics (verification runs even when a custom
    ``pass_manager`` omits the verify pass).
    """
    if not 0 <= optimization_level <= MAX_OPTIMIZATION_LEVEL:
        raise CompilationError(
            f"optimization_level must be in [0, {MAX_OPTIMIZATION_LEVEL}], "
            f"got {optimization_level}"
        )
    manager = pass_manager or PassManager.default_pipeline()
    ctx = PassContext(
        query=query,
        sources=sources,
        window_size=window_size,
        tracer=tracer,
        optimization_level=optimization_level,
    )
    timings = manager.run(ctx)
    sink = ctx.require_sink()
    if ctx.memory_plan is None:
        raise CompilationError("pass pipeline did not allocate memory for the plan")
    if ctx.coverage is None:
        raise CompilationError("pass pipeline did not compute output coverage")
    diagnostics = ctx.diagnostics
    if strict:
        if "verify" not in manager.pass_names:
            from repro.analysis.plan_verifier import verify_plan_graph

            diagnostics = verify_plan_graph(sink)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            raise PlanVerificationError(
                f"plan verification found {len(errors)} error(s): "
                + "; ".join(d.render() for d in errors),
                diagnostics=diagnostics,
            )
    return CompiledPlan(
        sink=sink,
        window_size=window_size,
        memory_plan=ctx.memory_plan,
        output_coverage=ctx.coverage,
        pass_timings=timings,
        pass_metadata=ctx.metadata,
        query=query,
        sources=sources,
        tracer=tracer,
        optimization_level=optimization_level,
        diagnostics=diagnostics,
    )
