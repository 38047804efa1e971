"""Tests for the CLI output formatter and EXPERIMENTS.md assembly."""

import enum
import io
import json
import os

import pytest

from repro.core.report import (
    EXPERIMENT_INDEX,
    ExperimentArtifact,
    emit,
    load_artifacts,
    render_experiments_md,
    write_experiments_md,
)


class TestIndex:
    def test_covers_every_table_and_figure(self):
        refs = {ref for _, ref, _ in EXPERIMENT_INDEX}
        for required in (
            "Figure 2",
            "Figure 4",
            "Table 1",
            "Table 2",
            "Table 3 / Figure 5",
            "Table 4",
            "Table 5",
            "Figure 6",
            "Figure 7",
        ):
            assert required in refs

    def test_stems_unique(self):
        stems = [stem for stem, _, _ in EXPERIMENT_INDEX]
        assert len(set(stems)) == len(stems)


class TestLoad:
    def test_missing_dir_gives_unavailable(self, tmp_path):
        artifacts = load_artifacts(str(tmp_path / "nope"))
        assert all(not a.available for a in artifacts)

    def test_present_files_loaded(self, tmp_path):
        (tmp_path / "fig2_read_range.txt").write_text("CONTENT-42\n")
        artifacts = load_artifacts(str(tmp_path))
        by_stem = {a.stem: a for a in artifacts}
        assert by_stem["fig2_read_range"].available
        assert "CONTENT-42" in by_stem["fig2_read_range"].content
        assert not by_stem["table1_object_location"].available


class TestRender:
    def test_sections_per_artifact(self):
        artifacts = [
            ExperimentArtifact("a", "Figure 2", "gloss", "numbers here"),
            ExperimentArtifact("b", "Table 1", "gloss2", None),
        ]
        text = render_experiments_md(artifacts)
        assert "## Figure 2 — gloss" in text
        assert "numbers here" in text
        assert "*(no result recorded yet)*" in text

    def test_missing_list_shown(self):
        artifacts = [ExperimentArtifact("a", "Figure 2", "g", None)]
        text = render_experiments_md(artifacts)
        assert "Missing artefacts" in text

    def test_preamble_included(self):
        text = render_experiments_md([], preamble="PREAMBLE-TEXT")
        assert "PREAMBLE-TEXT" in text


class TestWrite:
    def test_write_counts_available(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig2_read_range.txt").write_text("x\n")
        (results / "table1_object_location.txt").write_text("y\n")
        output = tmp_path / "EXPERIMENTS.md"
        count = write_experiments_md(str(results), str(output))
        assert count == 2
        body = output.read_text()
        assert body.startswith("# EXPERIMENTS")
        assert "x" in body and "y" in body


class _Cause(enum.Enum):
    COLLISION = "collision"


class TestEmit:
    def test_text_view_gets_one_trailing_newline(self):
        out = io.StringIO()
        emit({"ok": True}, "done", stream=out)
        assert out.getvalue() == "done\n"

    def test_text_already_ending_in_newline_is_not_doubled(self):
        out = io.StringIO()
        emit({"ok": True}, "done\n", stream=out)
        assert out.getvalue() == "done\n"

    def test_json_view_writes_the_payload_not_the_text(self):
        out = io.StringIO()
        emit({"rate": 0.95, "reps": 4}, "rate 95%", as_json=True, stream=out)
        assert json.loads(out.getvalue()) == {"rate": 0.95, "reps": 4}
        assert "95%" not in out.getvalue()
        assert out.getvalue().endswith("}\n")

    def test_non_json_values_fall_back_to_str(self):
        out = io.StringIO()
        emit({"cause": _Cause.COLLISION}, "", as_json=True, stream=out)
        assert json.loads(out.getvalue()) == {"cause": str(_Cause.COLLISION)}

    def test_defaults_to_stdout(self, capsys):
        emit({}, "to stdout")
        assert capsys.readouterr().out == "to stdout\n"


class TestExperimentsMarkdown:
    def test_available_artifact_is_fenced(self):
        artifact = ExperimentArtifact("table1", "Table 1", "gloss", "row 1\nrow 2")
        text = render_experiments_md([artifact])
        assert "## Table 1 \u2014 gloss\n\n```\nrow 1\nrow 2\n```" in text
        assert "Missing artefacts" not in text

    def test_write_strips_trailing_whitespace_of_results(self, tmp_path):
        stem = EXPERIMENT_INDEX[0][0]
        (tmp_path / f"{stem}.txt").write_text("value\n\n\n")
        (artifact,) = [a for a in load_artifacts(str(tmp_path)) if a.available]
        assert artifact.content == "value"
