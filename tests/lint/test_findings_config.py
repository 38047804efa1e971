"""Finding/report types, path policy, the rule registry and file walking."""

import pytest

from repro.lint import (
    DEFAULT_CONFIG,
    Finding,
    LintConfig,
    LintReport,
    all_rules,
    iter_python_files,
    rule,
    rule_ids,
    select_rules,
)
from repro.lint import registry


def _finding(path="a.py", line=1, col=0, rule_id="det-uuid"):
    return Finding(rule_id=rule_id, path=path, line=line, col=col, message="m")


class TestFinding:
    def test_location_column_is_one_based(self):
        assert _finding(path="src/x.py", line=7, col=0).location() == "src/x.py:7:1"

    def test_to_dict_keeps_zero_based_column(self):
        assert _finding(col=4).to_dict() == {
            "rule": "det-uuid",
            "path": "a.py",
            "line": 1,
            "col": 4,
            "message": "m",
        }


class TestLintReport:
    def test_finish_orders_by_path_line_col_rule(self):
        report = LintReport()
        report.extend(
            [
                _finding(path="b.py", line=1),
                _finding(path="a.py", line=9),
                _finding(path="a.py", line=2, col=5),
                _finding(path="a.py", line=2, col=5, rule_id="det-clock"),
                _finding(path="a.py", line=2, col=1),
            ]
        )
        ordered = [(f.path, f.line, f.col, f.rule_id) for f in report.finish().findings]
        assert ordered == [
            ("a.py", 2, 1, "det-uuid"),
            ("a.py", 2, 5, "det-clock"),
            ("a.py", 2, 5, "det-uuid"),
            ("a.py", 9, 0, "det-uuid"),
            ("b.py", 1, 0, "det-uuid"),
        ]

    def test_empty_report_is_clean(self):
        report = LintReport(files_checked=3, suppressed=2)
        assert report.exit_code == 0
        assert report.to_payload()["ok"] is True
        assert report.render() == (
            "lint: 0 finding(s) in 3 file(s), 2 suppressed — clean"
        )

    def test_any_finding_fails(self):
        report = LintReport(files_checked=1)
        report.add(_finding(line=3, col=2))
        assert report.exit_code == 1
        first, tally = report.render().splitlines()
        assert first == "a.py:3:3  det-uuid  m"
        assert tally.endswith("— FAILED")


class TestLintConfig:
    def test_empty_config_applies_every_rule_everywhere(self):
        config = LintConfig()
        assert config.rule_applies("any-rule", "any/path.py")
        assert not config.is_excluded("any/path.py")

    def test_only_paths_restricts(self):
        config = LintConfig(only_paths={"r": ("*faults/*",)})
        assert config.rule_applies("r", "src/repro/faults/plan.py")
        assert not config.rule_applies("r", "src/repro/rf/link.py")
        assert config.rule_applies("other", "src/repro/rf/link.py")

    def test_allow_paths_wins_inside_only_paths(self):
        config = LintConfig(
            only_paths={"r": ("*faults/*",)},
            allow_paths={"r": ("*faults/plan.py",)},
        )
        assert config.rule_applies("r", "src/repro/faults/injectors.py")
        assert not config.rule_applies("r", "src/repro/faults/plan.py")

    def test_windows_separators_match_posix_patterns(self):
        assert not DEFAULT_CONFIG.rule_applies(
            "rng-raw-stream", "src\\repro\\sim\\rng.py"
        )
        assert DEFAULT_CONFIG.is_excluded("src\\repro\\__pycache__\\x.py")

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/reader/supervisor.py",
            "src/repro/faults/injectors.py",
            "src/repro/core/parallel.py",
        ],
    )
    def test_exception_rules_gate_the_phantom_miss_paths(self, path):
        assert DEFAULT_CONFIG.rule_applies("except-bare", path)
        assert DEFAULT_CONFIG.rule_applies("except-swallow", path)

    def test_exception_rules_skip_other_paths(self):
        assert not DEFAULT_CONFIG.rule_applies("except-bare", "src/repro/cli.py")


class TestRegistry:
    def test_rule_ids_sorted_and_match_all_rules(self):
        ids = rule_ids()
        assert ids == sorted(ids)
        assert [r.rule_id for r in all_rules()] == ids

    def test_every_rule_has_family_and_rationale(self):
        for registered in all_rules():
            assert registered.family
            assert registered.rationale

    def test_select_none_is_everything(self):
        assert select_rules(None) == all_rules()

    def test_select_keeps_requested_order(self):
        chosen = select_rules(["det-uuid", "det-wallclock"])
        assert [r.rule_id for r in chosen] == ["det-uuid", "det-wallclock"]

    def test_duplicate_id_rejected(self):
        existing = rule_ids()[0]
        with pytest.raises(ValueError, match="duplicate"):
            rule(existing, family="x", rationale="y")(lambda ctx: [])

    def test_decorator_registers_and_returns_function(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

        def check(ctx):
            return []

        assert rule("test-only-rule", family="t", rationale="r")(check) is check
        (registered,) = select_rules(["test-only-rule"])
        assert registered.family == "t"
        assert list(registered.check(None)) == []


class TestIterPythonFiles:
    def test_walks_sorted_py_files_and_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "b.py").write_text("")
        (tmp_path / "pkg" / "a.py").write_text("")
        (tmp_path / "pkg" / "notes.txt").write_text("")
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("")
        found = iter_python_files([str(tmp_path)])
        assert found == [
            str(tmp_path / "pkg" / "a.py"),
            str(tmp_path / "pkg" / "b.py"),
        ]

    def test_file_named_twice_listed_once(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("")
        assert iter_python_files([str(target), str(tmp_path)]) == [str(target)]

    def test_explicit_file_kept_whatever_its_suffix(self, tmp_path):
        target = tmp_path / "script"
        target.write_text("")
        assert iter_python_files([str(target)]) == [str(target)]
