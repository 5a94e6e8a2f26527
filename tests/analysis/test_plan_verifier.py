"""Plan-verifier findings, the verify pass, and strict compilation."""

import pytest

from repro.analysis.plan_verifier import verify_compiled_plan
from repro.core.compiler import (
    FuseElementwisePass,
    LocalityPass,
    MemoryPass,
    NormalizePass,
    PassManager,
    VectorizePass,
    compile_plan,
)
from repro.core.query import Query
from repro.core.sources import ArraySource, ReplaySource
from repro.errors import PlanVerificationError

from tests.analysis.conftest import stretch_query_and_sources
from tests.conftest import make_source


class TestTimeScaling:
    def test_non_unit_scale_is_an_ls102_error_naming_the_node(self):
        query, sources = stretch_query_and_sources()
        plan = compile_plan(query, sources, window_size=96)
        findings = [d for d in plan.diagnostics if d.code == "LS102"]
        assert len(findings) == 1
        assert findings[0].severity == "error"
        # The anchor names the exact plan node, not just the operator class.
        node_names = {n.name for n in plan.sink.iter_nodes()}
        assert findings[0].anchor in node_names
        assert "scales time" in findings[0].message

    def test_strict_compile_raises_with_the_findings_attached(self):
        query, sources = stretch_query_and_sources()
        with pytest.raises(PlanVerificationError, match="LS102") as exc:
            compile_plan(query, sources, window_size=96, strict=True)
        assert any(d.code == "LS102" for d in exc.value.diagnostics)

    def test_strict_verifies_even_without_a_verify_pass(self):
        # A custom pipeline that omits the verify pass must not be a strict
        # bypass: compile_plan runs verification itself.
        manager = PassManager(
            [
                NormalizePass(),
                LocalityPass(),
                FuseElementwisePass(),
                VectorizePass(),
                MemoryPass(),
            ]
        )
        query, sources = stretch_query_and_sources()
        with pytest.raises(PlanVerificationError, match="LS102"):
            compile_plan(query, sources, window_size=96, pass_manager=manager, strict=True)

    def test_explain_renders_the_diagnostics(self):
        query, sources = stretch_query_and_sources()
        plan = compile_plan(query, sources, window_size=96)
        text = plan.explain()
        assert "diagnostics:" in text
        assert "LS102" in text
        assert "the plan cannot be ticked" in text


class TestDeadOperators:
    @staticmethod
    def _join(b_offset: int):
        query = Query.source("a", period=2).join(
            Query.source("b", period=2), lambda a, b: a - b
        )
        sources = {
            "a": make_source(500, period=2),
            "b": make_source(500, period=2, offset=b_offset),
        }
        return compile_plan(query, sources, window_size=96)

    def test_inner_join_over_disjoint_data_warns_ls104_naming_the_join(self):
        plan = self._join(b_offset=5000)
        findings = [d for d in plan.diagnostics if d.code == "LS104"]
        assert [d.anchor for d in findings] == [plan.sink.name]
        assert findings[0].severity == "warning"
        assert "Join" in findings[0].message

    def test_inner_join_over_overlapping_data_is_clean(self):
        plan = self._join(b_offset=400)
        assert not [d for d in plan.diagnostics if d.code == "LS104"]


class TestGridAndLiveness:
    def test_misaligned_join_grids_warn_ls103(self):
        query = Query.source("a", period=2).join(
            Query.source("b", period=2, offset=1), lambda a, b: a + b
        )
        sources = {
            "a": make_source(400, period=2),
            "b": make_source(400, period=2, offset=1),
        }
        plan = compile_plan(query, sources, window_size=96)
        findings = [d for d in plan.diagnostics if d.code == "LS103"]
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "never share a sync" in findings[0].message

    def test_aligned_join_grids_are_clean(self):
        query = Query.source("a", period=2).join(
            Query.source("b", period=4), lambda a, b: a + b
        )
        sources = {
            "a": make_source(400, period=2),
            "b": make_source(200, period=4),
        }
        plan = compile_plan(query, sources, window_size=96)
        assert not [d for d in plan.diagnostics if d.code == "LS103"]

    def test_mixed_live_and_static_sources_warn_ls107(self):
        live = ReplaySource(make_source(400, period=2), watermark=0)
        query = Query.source("a", period=2).join(
            Query.source("b", period=2), lambda a, b: a + b
        )
        plan = compile_plan(query, {"a": live, "b": make_source(400, period=2)}, window_size=96)
        findings = [d for d in plan.diagnostics if d.code == "LS107"]
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "b" in findings[0].anchor


class TestVerifyIsPure:
    def test_reverification_matches_the_pass_output(self):
        query, sources = stretch_query_and_sources()
        plan = compile_plan(query, sources, window_size=96)
        assert verify_compiled_plan(plan) == plan.diagnostics

    def test_verification_does_not_mutate_the_plan(self):
        query, sources = stretch_query_and_sources()
        plan = compile_plan(query, sources, window_size=96)
        before = plan.explain()
        verify_compiled_plan(plan)
        assert plan.explain() == before


class TestExamplePipelines:
    def test_fig9c_e2e_pipeline_is_strict_clean(self):
        # Acceptance criterion: the end-to-end pipeline compiles with zero
        # error-level diagnostics under strict=True.
        from repro.bench.workloads import e2e_dataset
        from repro.core.timeutil import period_from_hz
        from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query

        ecg, abp = e2e_dataset(duration_seconds=5.0, seed=0)
        sources = {
            "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
            "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
        }
        plan = compile_plan(lifestream_e2e_query(), sources, strict=True)
        assert not [d for d in plan.diagnostics if d.severity == "error"]

    def test_clean_plan_reports_no_diagnostics(self):
        query = Query.source("s", period=2).select(lambda v: v * 2)
        plan = compile_plan(query, {"s": make_source(400, period=2)}, window_size=96)
        assert plan.diagnostics == []
        assert plan.pass_metadata["verify"] == "clean"


class TestInstantiateCarriesDiagnostics:
    def test_clone_shares_the_template_findings(self):
        query, sources = stretch_query_and_sources()
        plan = compile_plan(query, sources, window_size=96)
        clone = plan.instantiate({"s": make_source(512, period=2)})
        assert clone.diagnostics == plan.diagnostics
        assert any(d.code == "LS102" for d in clone.diagnostics)
