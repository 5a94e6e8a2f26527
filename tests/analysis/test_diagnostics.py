"""The diagnostic vocabulary: code stability, rendering, and counting."""

import json

import pytest

from repro.analysis.diagnostics import (
    CODES,
    SEVERITIES,
    Diagnostic,
    count_by_severity,
    has_errors,
    render_json,
    render_text,
    summarize,
)


class TestCodeStability:
    def test_released_codes_never_change(self):
        # Snapshot of every released diagnostic code.  Codes are public
        # surface (CI greps reports for them, docs reference them): adding a
        # new code extends this list; renumbering one is a breaking change
        # this test is meant to veto.  A retired code leaves its gap: its
        # number is never reused for a different meaning.
        assert sorted(CODES) == [
            "LS101",
            "LS102",
            "LS103",
            "LS104",
            "LS105",
            "LS106",
            "LS107",
            "LS108",
            # LS201/LS206 (batch_safe over/under-claim by widening the
            # window): retired with batch_safe; a run kernel's exactness
            # is LS202's to check.
            "LS202",
            "LS203",
            # LS204 (warmup_windows sufficiency): retired with the
            # window-sharded backend, the only code path that replayed
            # warm-up windows.
            "LS205",
            "LS207",
            "LS208",
            "LS209",
            "LS210",
            "LS211",
            "LS301",
            "LS302",
            "LS303",
            "LS401",
            "LS402",
            "LS403",
            "LS404",
            "LS405",
            "LS406",
        ]

    def test_every_code_has_a_title(self):
        assert all(CODES[code].strip() for code in CODES)

    def test_severity_order_is_most_severe_first(self):
        assert SEVERITIES == ("error", "warning", "info")


class TestDiagnostic:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic("LS999", "error", "nope")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Diagnostic("LS101", "fatal", "nope")

    def test_render_includes_severity_code_and_anchor(self):
        d = Diagnostic("LS102", "error", "scales time", anchor="shift_3")
        assert d.render() == "error LS102 [shift_3]: scales time"

    def test_render_omits_empty_anchor(self):
        d = Diagnostic("LS108", "info", "no lowering")
        assert d.render() == "info LS108: no lowering"

    def test_to_dict_carries_the_code_title(self):
        d = Diagnostic("LS202", "error", "run parity", anchor="Chop", check="contract")
        payload = d.to_dict()
        assert payload["code"] == "LS202"
        assert payload["anchor"] == "Chop"
        assert payload["check"] == "contract"
        assert payload["title"] == CODES["LS202"]


class TestReports:
    def _mixed(self):
        return [
            Diagnostic("LS108", "info", "c"),
            Diagnostic("LS101", "error", "a", anchor="n1"),
            Diagnostic("LS103", "warning", "b", anchor="n2"),
        ]

    def test_counts_and_error_detection(self):
        diagnostics = self._mixed()
        assert count_by_severity(diagnostics) == {"error": 1, "warning": 1, "info": 1}
        assert has_errors(diagnostics)
        assert not has_errors([Diagnostic("LS103", "warning", "b")])
        assert not has_errors([])

    def test_summarize(self):
        assert summarize([]) == "clean"
        assert summarize(self._mixed()) == "1 error(s), 1 warning(s), 1 info"

    def test_text_report_ranks_most_severe_first(self):
        lines = render_text(self._mixed()).splitlines()
        assert lines[0].startswith("error ")
        assert lines[1].startswith("warning ")
        assert lines[2].startswith("info ")
        assert lines[-1] == "1 error(s), 1 warning(s), 1 info"

    def test_json_report_round_trips(self):
        payload = json.loads(render_json(self._mixed(), extra={"checks": ["plan"]}))
        assert payload["counts"] == {"error": 1, "warning": 1, "info": 1}
        assert payload["checks"] == ["plan"]
        assert {d["code"] for d in payload["diagnostics"]} == {"LS101", "LS103", "LS108"}
