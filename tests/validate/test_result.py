"""CheckResult and ValidationReport: verdicts, exit codes, rendering."""

import json

from repro.validate import CheckResult, ValidationReport
from repro.validate.result import failed, ok


def _report(*results, seed=7, deep=False):
    report = ValidationReport(seed=seed, deep=deep)
    report.extend(list(results))
    return report


class TestCheckResult:
    def test_ok_helper_passes_and_keeps_metrics(self):
        result = ok("link_reciprocity", "invariants", "fine", pairs=12)
        assert result.passed
        assert result.metrics == {"pairs": 12}

    def test_failed_helper_fails(self):
        result = failed("golden:cart-front", "golden", "digest drift at slot 3")
        assert not result.passed
        assert result.detail == "digest drift at slot 3"

    def test_to_dict_is_json_safe_copy(self):
        result = ok("c", "metamorphic", "d", ratio=0.5)
        doc = result.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        doc["metrics"]["ratio"] = 9.0
        assert result.metrics["ratio"] == 0.5


class TestValidationReport:
    def test_empty_report_fails(self):
        # A run that checked nothing must not look like a clean pass.
        report = ValidationReport()
        assert not report.passed
        assert report.exit_code == 1
        assert report.counts() == (0, 0)

    def test_all_passing_exits_zero(self):
        report = _report(ok("a", "invariants", "x"), ok("b", "golden", "y"))
        assert report.passed
        assert report.exit_code == 0
        assert report.failures == []

    def test_one_failure_exits_one(self):
        bad = failed("b", "golden", "drift")
        report = _report(ok("a", "invariants", "x"), bad)
        assert report.exit_code == 1
        assert report.failures == [bad]
        assert report.counts() == (1, 2)

    def test_by_pillar_groups_in_first_seen_order(self):
        report = _report(
            ok("a", "metamorphic", ""),
            ok("b", "invariants", ""),
            ok("c", "metamorphic", ""),
        )
        grouped = report.by_pillar()
        assert list(grouped) == ["metamorphic", "invariants"]
        assert [r.name for r in grouped["metamorphic"]] == ["a", "c"]

    def test_add_appends(self):
        report = ValidationReport()
        report.add(ok("a", "invariants", ""))
        assert [r.name for r in report.results] == ["a"]

    def test_payload_shape(self):
        report = _report(
            ok("a", "invariants", "x"), failed("b", "golden", "y"), seed=3, deep=True
        )
        payload = report.to_payload()
        assert payload["command"] == "validate"
        assert (payload["seed"], payload["deep"]) == (3, True)
        assert (payload["passed"], payload["total"], payload["ok"]) == (1, 2, False)
        assert [c["name"] for c in payload["checks"]] == ["a", "b"]

    def test_render_lists_every_check_under_its_pillar(self):
        report = _report(
            ok("a", "invariants", "held"),
            failed("b", "invariants", "broke"),
            ok("c", "golden", "pinned"),
        )
        assert report.render().splitlines() == [
            "invariants (1/2)",
            "  [ok ] a: held",
            "  [FAIL] b: broke",
            "golden (1/1)",
            "  [ok ] c: pinned",
            "validate: FAIL (2/3 checks)",
        ]

    def test_render_pass_verdict(self):
        report = _report(ok("a", "invariants", "held"))
        assert report.render().splitlines()[-1] == "validate: PASS (1/1 checks)"

    def test_results_are_check_results(self):
        report = _report(ok("a", "invariants", ""))
        assert all(isinstance(r, CheckResult) for r in report.results)
