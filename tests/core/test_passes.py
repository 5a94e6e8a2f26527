"""Unit tests for the pass-based compilation pipeline.

Covers pass ordering and timing in the PassManager, the normalize pass's
spec rewrites, the fuse_elementwise pass's graph rewrites, and the
optimization-level gating."""

import numpy as np
import pytest

from repro.core.compiler import (
    FuseElementwisePass,
    LocalityPass,
    MemoryPass,
    NormalizePass,
    PassContext,
    PassManager,
    VerifyPass,
    build_plan,
    compile_plan,
    covered_windows,
    fuse_elementwise,
)
from repro.core.engine import CompiledQuery
from repro.core.graph import operator_nodes
from repro.core.operators import AlterDuration, FusedElementwise, Select, Shift
from repro.core.query import Query, normalize_spec
from repro.core.runtime import SerialBackend
from repro.errors import CompilationError

from tests.conftest import make_source


def chain_query() -> Query:
    return (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2)
        .where(lambda v: v > 0)
        .shift(10)
        .alter_duration(4)
    )


class TestPassManager:
    def test_default_pipeline_order(self):
        manager = PassManager.default_pipeline()
        assert manager.pass_names == [
            "normalize",
            "locality",
            "fuse_elementwise",
            "vectorize",
            "memory",
            "verify",
        ]

    def test_every_pass_is_timed(self, ramp_500hz):
        plan = compile_plan(chain_query(), {"s": ramp_500hz}, window_size=1000)
        assert [t.name for t in plan.pass_timings] == PassManager.default_pipeline().pass_names
        assert all(t.seconds >= 0 for t in plan.pass_timings)

    def test_explain_reports_pass_timeline(self, ramp_500hz):
        plan = compile_plan(chain_query(), {"s": ramp_500hz}, window_size=1000)
        text = plan.explain()
        assert "pass timeline:" in text
        for name in PassManager.default_pipeline().pass_names:
            assert name in text

    def test_passes_are_individually_runnable(self, ramp_500hz):
        ctx = PassContext(query=chain_query(), sources={"s": ramp_500hz}, window_size=1000)
        NormalizePass().run(ctx)
        assert ctx.sink is not None
        LocalityPass().run(ctx)
        assert all(n.dimension is not None for n in ctx.sink.iter_nodes())
        FuseElementwisePass().run(ctx)
        assert "fused" in ctx.metadata["fusion"]
        MemoryPass().run(ctx)
        assert ctx.memory_plan is not None
        VerifyPass().run(ctx)
        assert ctx.metadata["verify"] == "clean"
        assert ctx.diagnostics == []
        # Verification built the finished plan's lineage program, once.
        assert ctx.program is not None and ctx.coverage_program() is ctx.program

    def test_pass_requiring_plan_rejects_empty_context(self, ramp_500hz):
        ctx = PassContext(query=chain_query(), sources={"s": ramp_500hz}, window_size=1000)
        with pytest.raises(CompilationError):
            LocalityPass().run(ctx)

    def test_custom_pipeline_must_allocate_memory(self, ramp_500hz):
        manager = PassManager([NormalizePass(), LocalityPass()])
        with pytest.raises(CompilationError):
            compile_plan(chain_query(), {"s": ramp_500hz}, pass_manager=manager)

    def test_duplicate_pass_names_rejected(self):
        with pytest.raises(CompilationError):
            PassManager([NormalizePass(), NormalizePass()])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(CompilationError):
            PassManager([])

    def test_invalid_optimization_level_rejected(self, ramp_500hz):
        with pytest.raises(CompilationError):
            compile_plan(chain_query(), {"s": ramp_500hz}, optimization_level=7)


class TestNormalize:
    def test_adjacent_shifts_merge(self):
        query = Query.source("s", frequency_hz=500).shift(100).shift(23)
        spec = normalize_spec(query.spec)
        assert isinstance(spec.operator, Shift)
        assert spec.operator.offset == 123
        assert spec.inputs[0].kind == "source"

    def test_zero_shift_removed(self):
        query = Query.source("s", frequency_hz=500).shift(0)
        spec = normalize_spec(query.spec)
        assert spec.kind == "source"

    def test_opposite_shifts_cancel(self):
        query = Query.source("s", frequency_hz=500).shift(50).shift(-50)
        spec = normalize_spec(query.spec)
        assert spec.kind == "source"

    def test_shadowed_alter_duration_elided(self):
        query = Query.source("s", frequency_hz=500).alter_duration(10).alter_duration(20)
        spec = normalize_spec(query.spec)
        assert isinstance(spec.operator, AlterDuration)
        assert spec.operator.duration == 20
        assert spec.inputs[0].kind == "source"

    def test_multicast_shared_nodes_not_rewritten(self):
        shifted = Query.source("s", frequency_hz=500).shift(10)
        query = shifted.multicast(lambda s: s.shift(20).join(s, lambda a, b: a + b))
        spec = normalize_spec(query.spec)
        # shift(20) over the shared shift(10) must NOT merge: the other join
        # branch still consumes the shift(10) node.
        left = spec.inputs[0]
        assert isinstance(left.operator, Shift)
        assert left.operator.offset == 20
        assert left.inputs[0] is spec.inputs[1]

    def test_normalized_query_produces_identical_results(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).shift(100).shift(-60).select(lambda v: v + 1)
        engine_raw = compile_plan(query, {"s": ramp_500hz}, optimization_level=0)
        engine_norm = compile_plan(query, {"s": ramp_500hz}, optimization_level=1)
        raw = CompiledQuery(engine_raw, targeted=True, backend=SerialBackend()).run()
        norm = CompiledQuery(engine_norm, targeted=True, backend=SerialBackend()).run()
        np.testing.assert_array_equal(raw.times, norm.times)
        np.testing.assert_array_equal(raw.values, norm.values)


class TestFusion:
    def test_chain_collapses_to_single_node(self, ramp_500hz):
        plan = compile_plan(chain_query(), {"s": ramp_500hz}, window_size=1000)
        ops = operator_nodes(plan.sink)
        assert len(ops) == 1
        assert isinstance(ops[0].operator, FusedElementwise)

    def test_optimization_level_gates_fusion(self, ramp_500hz):
        unfused = compile_plan(chain_query(), {"s": ramp_500hz}, optimization_level=1)
        assert len(operator_nodes(unfused.sink)) == 4
        assert unfused.pass_metadata["fusion"] == "disabled"

    def test_single_operator_not_fused(self, ramp_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v)
        plan = compile_plan(query, {"s": ramp_500hz}, window_size=1000)
        ops = operator_nodes(plan.sink)
        assert len(ops) == 1
        assert not isinstance(ops[0].operator, FusedElementwise)

    def test_multicast_fanout_not_absorbed(self):
        source = make_source(4000, period=2)
        query = (
            Query.source("s", frequency_hz=500)
            .select(lambda v: v * 2)
            .multicast(lambda s: s.select(lambda v: v + 1).join(s, lambda a, b: a - b))
        )
        plan = compile_plan(query, {"s": source}, window_size=1000)
        # The multicast point (select *2) feeds two consumers; it must stay a
        # standalone shared node, so nothing in this plan can fuse.
        join_node = plan.sink
        assert not any(
            isinstance(n.operator, FusedElementwise) for n in operator_nodes(plan.sink)
        )
        assert join_node.inputs[0].inputs[0] is join_node.inputs[1]

    def test_fusion_preserves_descriptor_dimension_coverage(self, gappy_500hz):
        query = Query.source("s", frequency_hz=500).select(lambda v: v).where(lambda v: v > 0)
        fused_plan = compile_plan(query, {"s": gappy_500hz}, window_size=1000)
        unfused_plan = compile_plan(
            query, {"s": gappy_500hz}, window_size=1000, optimization_level=1
        )
        assert fused_plan.sink.descriptor == unfused_plan.sink.descriptor
        assert fused_plan.sink.dimension == unfused_plan.sink.dimension
        assert covered_windows(fused_plan).tolist() == covered_windows(unfused_plan).tolist()

    def test_direct_fusion_rewrite_reports_counts(self, ramp_500hz):
        sink = build_plan(chain_query().normalized(), {"s": ramp_500hz})
        from repro.core.compiler import assign_dimensions

        assign_dimensions(sink, 1000)
        report = fuse_elementwise(sink)
        assert report.chains_fused == 1
        assert report.nodes_eliminated == 4

    def test_fused_operator_rejects_short_chains(self):
        with pytest.raises(CompilationError):
            FusedElementwise([(Select(lambda v: v), None)])

    def test_fused_operator_rejects_unfusable_stage(self):
        from repro.core.event import StreamDescriptor
        from repro.core.operators import Transform

        descriptor = StreamDescriptor(offset=0, period=2)
        with pytest.raises(CompilationError):
            FusedElementwise(
                [
                    (Select(lambda v: v), descriptor),
                    (Transform(100, lambda v, m: v), descriptor),
                ]
            )
