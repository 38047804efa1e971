"""Tests for the command-line interface."""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_commands_registered(self):
        parser = build_parser()
        for command in (
            "read-range",
            "table1",
            "table2",
            "table3",
            "reader-redundancy",
            "plan",
            "report",
        ):
            args = parser.parse_args(
                [command] if command in ("plan", "report") else [command, "--reps", "1"]
            )
            assert callable(args.handler)

    def test_common_flags(self):
        args = build_parser().parse_args(["table1", "--reps", "3", "--seed", "7"])
        assert args.reps == 3
        assert args.seed == 7


class TestPlanCommand:
    def test_plan_prints_table(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["plan", "--target", "0.99"])
        output = buffer.getvalue()
        assert code == 0
        assert "tags per object" in output
        assert "predicted reliability" in output

    def test_plan_human_domain(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["plan", "--target", "0.95", "--domain", "human"])
        assert code == 0

    def test_unreachable_target_fails_cleanly(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(
                ["plan", "--target", "0.99999999", "--max-antennas", "1"]
            )
        assert code == 1


@pytest.mark.slow
class TestExperimentCommands:
    def test_table1_small(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["table1", "--reps", "1"])
        output = buffer.getvalue()
        assert code == 0
        assert "front" in output
        assert "Paper" in output

    def test_reader_redundancy_small(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["reader-redundancy", "--reps", "3"])
        output = buffer.getvalue()
        assert code == 0
        assert "no DRM" in output


def _bench_doc(**flags):
    """A canned bench document whose parity flags default to true."""
    times = {"p50_s": 0.1, "p95_s": 0.2}
    return {
        "meta": {"date": "2007-06-25"},
        "hot_paths": {
            "read_range_search": {
                "speedup": 7.0,
                "answers_equal": flags.get("answers_equal", True),
            },
            "obs_overhead": {
                "metrics_overhead_pct": 1.0,
                "full_capture_overhead_pct": 2.0,
                "bit_identical": flags.get("bit_identical", True),
            },
        },
        "workload": {
            "serial": {"passes_per_sec": 1.0, "trial_times": times},
            "parallel": {"passes_per_sec": 2.0, "workers": 2},
            "speedup": 2.0,
            "parity": flags.get("parity", True),
        },
    }


class TestBenchCommand:
    """Every parity flag in the bench document gates the exit code."""

    def _run(self, monkeypatch, tmp_path, capsys, doc):
        import repro.core.bench as bench

        monkeypatch.setattr(bench, "run_benchmark", lambda **_: doc)
        code = main(["bench", "--output", str(tmp_path / "bench.json")])
        return code, capsys.readouterr().err

    def test_all_flags_true_exits_zero(self, monkeypatch, tmp_path, capsys):
        code, err = self._run(monkeypatch, tmp_path, capsys, _bench_doc())
        assert code == 0
        assert err == ""

    def test_obs_overhead_drift_exits_one(self, monkeypatch, tmp_path, capsys):
        doc = _bench_doc(bit_identical=False)
        code, err = self._run(monkeypatch, tmp_path, capsys, doc)
        assert code == 1
        assert "hot_paths.obs_overhead.bit_identical" in err

    def test_read_range_mismatch_exits_one(self, monkeypatch, tmp_path, capsys):
        doc = _bench_doc(answers_equal=False)
        code, err = self._run(monkeypatch, tmp_path, capsys, doc)
        assert code == 1
        assert "hot_paths.read_range_search.answers_equal" in err

    def test_workload_parity_exits_one(self, monkeypatch, tmp_path, capsys):
        code, err = self._run(
            monkeypatch, tmp_path, capsys, _bench_doc(parity=False)
        )
        assert code == 1
        assert "workload.parity" in err
