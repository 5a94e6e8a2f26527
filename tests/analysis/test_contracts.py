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

from tests.analysis.conftest import LyingReach, LyingTail


class TestBuiltinRegistry:
    def test_every_registered_operator_conforms(self):
        # Acceptance criterion: the contract analyzer passes on every
        # in-repo operator — no over-claimed batch safety, no run-parity
        # violations, no snapshot/restore or warmup gaps.
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
    def test_batch_safe_over_claim_detected(self):
        case = OperatorCase(
            name="LyingTail",
            operator_cls=LyingTail,
            build=_apply(lambda q: q._apply(LyingTail())),
        )
        diagnostics = check_operator_case(case)
        ls201 = [d for d in diagnostics if d.code == "LS201"]
        assert len(ls201) == 1, [d.render() for d in diagnostics]
        assert ls201[0].severity == "error"
        assert ls201[0].anchor == "LyingTail"
        assert "batch_safe" in ls201[0].message
        # The lie is the only contract violation this operator commits.
        assert not [
            d for d in diagnostics if d.severity == "error" and d.code != "LS201"
        ], [d.render() for d in diagnostics]

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
