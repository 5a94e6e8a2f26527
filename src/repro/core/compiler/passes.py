"""The pass-based compilation pipeline.

Compilation is an ordered sequence of named, individually-testable passes
over an explicit plan IR, run by a :class:`PassManager`:

1. ``normalize``         — canonicalise the query spec and build the plan
   graph (shift merging, no-op elision; :func:`repro.core.query.normalize_spec`);
2. ``lineage``           — propagate source coverage through the graph for
   targeted query processing (Section 5.3);
3. ``locality``          — locality tracing: assign every FWindow a
   consistent dimension (Section 5.2);
4. ``fuse_elementwise``  — collapse element-wise operator chains into fused
   kernel nodes (:mod:`repro.core.compiler.fusion`);
5. ``vectorize``         — mark which operator nodes lower to whole-run
   array kernels (:mod:`repro.core.runtime.vectorized`), with per-node
   fallback for the rest;
6. ``memory``            — static allocation of every FWindow buffer;
7. ``verify``            — static plan verification
   (:mod:`repro.analysis.plan_verifier`): re-prove the invariants the
   earlier passes are supposed to establish and surface the findings as
   structured diagnostics on the compiled plan.

Each pass is timed; the timeline is stored on the resulting
:class:`~repro.core.compiler.CompiledPlan` and reported by its
``explain()``.  The ``optimization_level`` knob gates the rewriting passes:
level 0 compiles the query verbatim, level 1 adds spec normalization, and
level 2 (the default) adds operator fusion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.compiler.fusion import fuse_elementwise
from repro.core.compiler.lineage import propagate_coverage
from repro.core.compiler.locality import assign_dimensions
from repro.core.compiler.memory import MemoryPlan, allocate
from repro.core.graph import PlanNode
from repro.core.intervals import IntervalSet
from repro.core.query import Query
from repro.core.sources import StreamSource
from repro.errors import CompilationError

#: Highest supported optimization level (normalize + fuse).
MAX_OPTIMIZATION_LEVEL = 2


@dataclass
class PassTiming:
    """Wall-clock record of one pass execution."""

    name: str
    seconds: float


@dataclass
class PassContext:
    """Mutable state threaded through the pass pipeline.

    ``normalize`` populates ``sink`` (the plan IR); later passes refine it
    and fill in ``coverage`` and ``memory_plan``.  ``metadata`` carries
    free-form per-pass facts (e.g. fusion statistics) into the compiled
    plan's explanation.
    """

    query: Query
    sources: dict[str, StreamSource] | None
    window_size: int
    tracer: object = None
    optimization_level: int = MAX_OPTIMIZATION_LEVEL
    sink: PlanNode | None = None
    coverage: IntervalSet | None = None
    memory_plan: MemoryPlan | None = None
    metadata: dict = field(default_factory=dict)
    #: Findings from the verify pass (:class:`repro.analysis.Diagnostic`),
    #: carried onto :attr:`CompiledPlan.diagnostics`.
    diagnostics: list = field(default_factory=list)

    def require_sink(self) -> PlanNode:
        """The plan IR, raising if no plan-building pass has run yet."""
        if self.sink is None:
            raise CompilationError(
                "pass pipeline has no plan graph yet; the normalize pass must run first"
            )
        return self.sink


class CompilerPass:
    """Base class for compilation passes: a named transform of a PassContext."""

    name = "pass"

    def run(self, ctx: PassContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class NormalizePass(CompilerPass):
    """Canonicalise the query spec and instantiate the plan graph."""

    name = "normalize"

    def run(self, ctx: PassContext) -> None:
        from repro.core.compiler import build_plan

        query = ctx.query
        if ctx.optimization_level >= 1:
            query = query.normalized()
        ctx.sink = build_plan(query, ctx.sources)


class LineagePass(CompilerPass):
    """Propagate source coverage through the graph (targeted processing)."""

    name = "lineage"

    def run(self, ctx: PassContext) -> None:
        ctx.coverage = propagate_coverage(ctx.require_sink())


class LocalityPass(CompilerPass):
    """Locality tracing: assign consistent FWindow dimensions."""

    name = "locality"

    def run(self, ctx: PassContext) -> None:
        assign_dimensions(ctx.require_sink(), ctx.window_size)


class FuseElementwisePass(CompilerPass):
    """Collapse element-wise operator chains into fused kernel nodes."""

    name = "fuse_elementwise"

    def run(self, ctx: PassContext) -> None:
        if ctx.optimization_level < 2:
            ctx.metadata["fusion"] = "disabled"
            return
        report = fuse_elementwise(ctx.require_sink())
        ctx.sink = report.sink
        ctx.metadata["fusion"] = (
            f"{report.chains_fused} chain(s), {report.nodes_eliminated} node(s) fused"
        )


class VectorizePass(CompilerPass):
    """Mark which operator nodes lower to whole-run array kernels.

    Runs after fusion (fused chains lower as one kernel) and annotates each
    operator node with a ``vectorizable`` flag; the summary lands in the
    compiled plan's metadata so ``explain()`` shows what the vectorized
    backend will lower and what falls back per node to window-by-window
    execution.  Analysis only — the plan graph is not rewritten, so every
    backend (and level-0 compilations, where this pass still runs) executes
    the same graph.
    """

    name = "vectorize"

    def run(self, ctx: PassContext) -> None:
        # Imported lazily: the runtime package imports the compiler at module
        # load, so a module-level import here would cycle mid-initialisation.
        from repro.core.runtime.vectorized import annotate_plan

        ctx.metadata["vectorize"] = annotate_plan(ctx.require_sink())


class MemoryPass(CompilerPass):
    """Static memory allocation: one FWindow per plan node, allocated once."""

    name = "memory"

    def run(self, ctx: PassContext) -> None:
        ctx.memory_plan = allocate(ctx.require_sink(), tracer=ctx.tracer)


class VerifyPass(CompilerPass):
    """Static plan verification: re-prove what the earlier passes established.

    Runs :func:`repro.analysis.plan_verifier.verify_plan_graph` over the
    finished plan IR — dimension algebra, time-map soundness, join grid
    alignment, fused-chain legality, dead operators, source liveness and
    vectorized-lowering availability — and records the findings on
    ``ctx.diagnostics``.  Analysis only: the graph is never rewritten, and
    findings do not abort compilation here (``compile_plan(strict=True)``
    raises on error-level findings after the pipeline completes).
    """

    name = "verify"

    def run(self, ctx: PassContext) -> None:
        # Imported lazily for the same reason as VectorizePass: the analysis
        # package reaches back into the compiler and runtime.
        from repro.analysis.diagnostics import summarize
        from repro.analysis.plan_verifier import verify_plan_graph

        findings = verify_plan_graph(ctx.require_sink())
        ctx.diagnostics.extend(findings)
        ctx.metadata["verify"] = summarize(findings)


class PassManager:
    """Runs an ordered pass pipeline over a :class:`PassContext`, timing each pass."""

    def __init__(self, passes: list[CompilerPass]):
        if not passes:
            raise CompilationError("a pass pipeline needs at least one pass")
        names = [p.name for p in passes]
        if len(set(names)) != len(names):
            raise CompilationError(f"duplicate pass names in pipeline: {names}")
        self.passes = list(passes)

    @staticmethod
    def default_pipeline() -> "PassManager":
        """The standard LifeStream pipeline (Figure 6 plus fusion)."""
        return PassManager(
            [
                NormalizePass(),
                LineagePass(),
                LocalityPass(),
                FuseElementwisePass(),
                VectorizePass(),
                MemoryPass(),
                VerifyPass(),
            ]
        )

    @property
    def pass_names(self) -> list[str]:
        """Names of the passes, in execution order."""
        return [p.name for p in self.passes]

    def run(self, ctx: PassContext) -> list[PassTiming]:
        """Execute every pass in order, returning the timed timeline."""
        timeline: list[PassTiming] = []
        for compiler_pass in self.passes:
            began = time.perf_counter()
            compiler_pass.run(ctx)
            timeline.append(PassTiming(compiler_pass.name, time.perf_counter() - began))
        return timeline
