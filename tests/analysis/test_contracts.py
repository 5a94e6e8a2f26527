"""Operator-contract conformance: the built-in registry and a known liar."""

from repro.analysis.contracts import (
    OperatorCase,
    _apply,
    builtin_cases,
    check_contracts,
    check_operator_case,
    discover_operator_classes,
)
from repro.analysis.diagnostics import has_errors

from tests.analysis.conftest import (
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
        # coverage-reach or cohort-stacking gaps.
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
        case = OperatorCase(
            name="LyingReach",
            operator_cls=LyingReach,
            build=_apply(lambda q: q._apply(LyingReach())),
        )
        diagnostics = check_operator_case(case)
        ls208 = [d for d in diagnostics if d.code == "LS208"]
        assert len(ls208) == 1, [d.render() for d in diagnostics]
        assert ls208[0].severity == "error"
        assert ls208[0].anchor == "LyingReach"
        assert "coverage_reach()=0" in ls208[0].message
        assert not [
            d for d in diagnostics if d.severity == "error" and d.code != "LS208"
        ], [d.render() for d in diagnostics]

    def test_under_marking_coverage_rows_detected(self):
        # The reach is declared (LS208 passes); only the row rule lies.
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
