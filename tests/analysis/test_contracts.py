"""Operator-contract conformance: the built-in registry and a known liar."""

import numpy as np

from repro.analysis.contracts import (
    LINEAGE_SEEDS,
    OperatorCase,
    _apply,
    _gappy_input,
    _pair,
    builtin_cases,
    check_contracts,
    check_operator_case,
    discover_operator_classes,
)
from repro.analysis.diagnostics import has_errors

from tests.analysis.conftest import (
    LyingCount,
    LyingReach,
    LyingRows,
    LyingRunKernel,
    LyingSlotTimes,
    LyingTail,
)


class TestBuiltinRegistry:
    def test_every_registered_operator_conforms(self):
        # Acceptance criterion: the contract analyzer passes on every
        # in-repo operator — no run-parity violations, no snapshot/restore,
        # lineage, carry or cohort-stacking gaps.
        diagnostics = check_contracts()
        assert not has_errors(diagnostics), [d.render() for d in diagnostics]

    def test_every_discovered_operator_class_has_a_case(self):
        covered = {case.operator_cls for case in builtin_cases()}
        uncovered = [
            cls for cls in discover_operator_classes() if cls not in covered
        ]
        assert uncovered == [], (
            "operators without a conformance case (add an OperatorCase to "
            f"builtin_cases): {[c.__name__ for c in uncovered]}"
        )

    def test_uncovered_operators_would_be_reported_ls207(self):
        # Drop one case and the analyzer must flag the now-uncovered class.
        cases = [c for c in builtin_cases() if c.name != "Select"]
        diagnostics = check_contracts(cases)
        ls207 = [d for d in diagnostics if d.code == "LS207"]
        assert any(d.anchor == "Select" for d in ls207)


class TestLyingOperatorIsCaught:
    def test_window_agnostic_over_claim_detected(self):
        # The mixin's run kernel is compute over the whole run; LS202 sees
        # that it rewrites one event per run, not one per window.
        case = OperatorCase(
            name="LyingTail",
            operator_cls=LyingTail,
            build=_apply(lambda q: q._apply(LyingTail())),
        )
        diagnostics = check_operator_case(case)
        errors = [d for d in diagnostics if d.severity == "error"]
        assert [d.code for d in errors] == ["LS202"], [d.render() for d in diagnostics]
        assert errors[0].anchor == "LyingTail"
        assert "compute_run" in errors[0].message

    def test_window_edge_ignoring_run_kernel_detected(self):
        case = OperatorCase(
            name="LyingRunKernel",
            operator_cls=LyingRunKernel,
            build=_apply(lambda q: q._apply(LyingRunKernel())),
        )
        diagnostics = check_operator_case(case)
        assert [d.code for d in diagnostics] == ["LS202"], [d.render() for d in diagnostics]
        assert diagnostics[0].severity == "error"
        assert diagnostics[0].anchor == "LyingRunKernel"
        assert "compute_run" in diagnostics[0].message

    def test_position_reading_stateless_kernel_detected(self):
        # Run-exact and stateless: only stacking tenants shows the lie.
        case = OperatorCase(
            name="LyingSlotTimes",
            operator_cls=LyingSlotTimes,
            build=_apply(lambda q: q._apply(LyingSlotTimes())),
        )
        diagnostics = check_operator_case(case)
        assert [d.code for d in diagnostics] == ["LS209"], [d.render() for d in diagnostics]
        assert diagnostics[0].severity == "error"
        assert diagnostics[0].anchor == "LyingSlotTimes"
        assert "cohort" in diagnostics[0].message

    def test_undeclared_coverage_reach_detected(self):
        # The output spills one window past the input's data; the default
        # row rule with reach 0 never marks that window.
        case = OperatorCase(
            name="LyingReach",
            operator_cls=LyingReach,
            build=_apply(lambda q: q._apply(LyingReach())),
        )
        diagnostics = check_operator_case(case)
        assert [d.code for d in diagnostics] == ["LS208"], [d.render() for d in diagnostics]
        assert diagnostics[0].severity == "error"
        assert diagnostics[0].anchor == "LyingReach"
        assert "coverage_reach()=0" in diagnostics[0].message

    def test_under_marking_coverage_rows_detected(self):
        # The reach is declared; only the row rule lies.
        case = OperatorCase(
            name="LyingRows",
            operator_cls=LyingRows,
            build=_apply(lambda q: q._apply(LyingRows())),
        )
        diagnostics = check_operator_case(case)
        assert [d.code for d in diagnostics] == ["LS210"], [d.render() for d in diagnostics]
        assert diagnostics[0].severity == "error"
        assert diagnostics[0].anchor == "LyingRows"
        assert "coverage_rows" in diagnostics[0].message

    def test_carry_gap_detected_where_skipped_input_is_absent(self):
        # Alone, the counter's input is absent in every window targeted
        # execution skips, yet eager counts those windows.
        case = OperatorCase(
            name="LyingCount",
            operator_cls=LyingCount,
            build=_apply(lambda q: q._apply(LyingCount())),
        )
        diagnostics = check_operator_case(case)
        assert [d.code for d in diagnostics] == ["LS211"], [d.render() for d in diagnostics]
        assert diagnostics[0].anchor == "LyingCount"

    def test_carry_gap_detected_where_skipped_input_is_present(self):
        # Under an inner join, targeted execution also skips the windows
        # where the counter's input has data but the other side has none.
        build = _pair(lambda a, b: a._apply(LyingCount()).join(b, lambda x, y: x - y))
        _, sources = build()
        first = [
            _gappy_input(sources[name], index, 96, 0)
            for index, name in enumerate(sorted(sources))
        ]
        windows = [set((source.read(*source.coverage().span())[0] // 96).tolist()) for source in first]
        assert windows[0] - windows[1], "no window with only the counter's input present"
        case = OperatorCase(name="LyingCount-joined", operator_cls=LyingCount, build=build)
        diagnostics = check_operator_case(case)
        assert [d.code for d in diagnostics] == ["LS211"], [d.render() for d in diagnostics]
        assert diagnostics[0].anchor == "LyingCount-joined"


class TestLineageRegressions:
    # Interval-set lineage reported LS210 on each of these, though targeted
    # and eager runs emit bit-identical events: its Aggregate rounded to the
    # wrong grid and its non-carry Shift dilated.
    GEOMETRIES = ("Shift-off-period", "Join-shifted", "Join-shifted-aggregate", "Join-inner-phased")

    def test_former_false_ls210_geometries_are_registered_and_clean(self):
        cases = [case for case in builtin_cases() if case.name in self.GEOMETRIES]
        assert sorted(case.name for case in cases) == sorted(self.GEOMETRIES)
        for case in cases:
            diagnostics = check_operator_case(case)
            assert not has_errors(diagnostics), [d.render() for d in diagnostics]

    def test_gappy_inputs_have_gaps_from_under_one_window_to_several(self):
        _, sources = builtin_cases()[0].build()
        (source,) = sources.values()
        steps = set()
        for seed in LINEAGE_SEEDS:
            times = _gappy_input(source, seed, 96, 0).read(*source.coverage().span())[0]
            steps.update(np.diff(times).tolist())
        gaps = [step for step in steps if step > source.descriptor.period]
        assert min(gaps) < 96 and max(gaps) > 2 * 96


class TestReport:
    def test_cli_reports_the_contracts_wall_time_and_plan_runs(self, capsys):
        import json

        from repro.analysis.__main__ import main

        assert main(["--contracts", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["contracts"]["plan_runs"] > len(builtin_cases()) * len(LINEAGE_SEEDS)
        assert report["contracts"]["seconds"] >= 0
