"""Command-line interface: run the paper's experiments from a shell.

Examples
--------
::

    python -m repro read-range --reps 12
    python -m repro table1 --reps 8 --json
    python -m repro table2 --record runs/table2
    python -m repro reader-redundancy
    python -m repro explain --scenario cart --tag 3
    python -m repro stats runs/table2
    python -m repro plan --target 0.995
    python -m repro report
    python -m repro bench --quick
    python -m repro validate
    python -m repro validate --bless --golden cart-front
    python -m repro lint src/ --json
    python -m repro lint --list-rules

Every experiment command accepts ``--reps``, ``--seed`` and
``--workers`` (trial fan-out over a process pool; defaults to the
``REPRO_WORKERS`` environment variable, unset means serial), plus the
observability pair: ``--record DIR`` attaches a
:class:`~repro.obs.Recorder` to the run and writes ``manifest.json`` +
``events.jsonl`` into ``DIR``, and ``--json`` (available on *every*
subcommand) emits the machine-readable payload instead of the ASCII
table — both views flow through one formatter,
:func:`repro.core.report.emit`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from .analysis.tables import Table, percent
from .core.experiment import DEFAULT_SEED
from .core.model import (
    HUMAN_ONE_SUBJECT_RELIABILITY,
    OBJECT_LOCATION_RELIABILITY,
    READ_RANGE_MEAN_TAGS,
)
from .core.planner import CostModel, DeploymentPlanner


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable payload instead of the table",
    )


def _add_common(parser: argparse.ArgumentParser, default_reps: int) -> None:
    parser.add_argument(
        "--reps", type=int, default=default_reps,
        help=f"repetitions per configuration (default {default_reps})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="root seed for reproducibility",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(
            "trial fan-out over a process pool; results are "
            "bit-identical to serial (default: REPRO_WORKERS env, "
            "unset = serial)"
        ),
    )
    parser.add_argument(
        "--record", metavar="DIR", default=None,
        help=(
            "record the run: write manifest.json and events.jsonl "
            "(tag outcomes, miss causes, supervision events) into DIR"
        ),
    )
    parser.add_argument(
        "--started-at", metavar="ISO8601", default=None,
        help=(
            "timestamp stamped into manifest.json with --record "
            "(default: current UTC time; pass explicitly to make the "
            "recorded run a pure function of its inputs)"
        ),
    )
    _add_json(parser)


def _make_recorder(args: argparse.Namespace):
    """A Recorder when ``--record`` was given, else None (zero cost)."""
    if getattr(args, "record", None) is None:
        return None
    from .obs import Recorder

    return Recorder()


def _resolve_started_at(args: argparse.Namespace) -> str:
    """Manifest timestamp: ``--started-at`` if given, else the clock.

    The CLI is the designated edge where wall time may enter a
    recording — everything below it is a pure function of the seed and
    the config, which is what the determinism lint rule enforces.
    """
    explicit = getattr(args, "started_at", None)
    if explicit is not None:
        return explicit
    import datetime

    return datetime.datetime.now(  # repro: allow[det-wallclock] CLI edge: provenance stamp only; pin with --started-at
        datetime.timezone.utc
    ).isoformat()


def _estimate_dict(estimate: Any) -> Dict[str, Any]:
    return {
        "rate": estimate.rate,
        "successes": estimate.successes,
        "trials": estimate.trials,
    }


def _finish(
    args: argparse.Namespace,
    payload: Dict[str, Any],
    text: str,
    recorder: Any = None,
    wall_s: float = 0.0,
    config: Optional[Dict[str, Any]] = None,
) -> int:
    """One exit point for every subcommand: record, then emit."""
    from .core.report import emit

    record_dir = getattr(args, "record", None)
    if record_dir is not None and recorder is not None:
        from .obs import (
            RunManifest,
            events_path,
            write_events_jsonl,
            write_manifest,
        )

        manifest = RunManifest.create(
            command=payload.get("command", args.command),
            seed=getattr(args, "seed", DEFAULT_SEED),
            config=config or {},
            wall_time_s=wall_s,
            workers=getattr(args, "workers", None),
            started_at=_resolve_started_at(args),
        )
        write_manifest(record_dir, manifest)
        count = write_events_jsonl(events_path(record_dir), recorder.events)
        payload = dict(payload)
        payload["recording"] = {
            "directory": record_dir,
            "events": count,
            "miss_causes": recorder.miss_cause_counts(),
        }
        text = f"{text}\nrecorded {count} events to {record_dir}"
    emit(payload, text, as_json=getattr(args, "json", False))
    return 0


def _cmd_read_range(args: argparse.Namespace) -> int:
    from .world.scenarios.read_range import run_read_range_experiment

    recorder = _make_recorder(args)
    began = time.perf_counter()
    results = run_read_range_experiment(
        repetitions=args.reps, seed=args.seed, workers=args.workers,
        recorder=recorder,
    )
    wall_s = time.perf_counter() - began
    table = Table(
        "Figure 2 — mean tags read (of 20) vs distance",
        headers=("Distance (m)", "Measured", "Paper (approx)"),
    )
    rows: List[Dict[str, Any]] = []
    for distance, point in sorted(results.items()):
        paper = READ_RANGE_MEAN_TAGS.get(distance)
        table.add_row(
            f"{distance:g}",
            f"{point.mean_tags_read:.1f}",
            f"{paper:.1f}" if paper is not None else "-",
        )
        rows.append(
            {
                "distance_m": distance,
                "measured_mean_tags": point.mean_tags_read,
                "paper_mean_tags": paper,
            }
        )
    payload = {
        "command": "read-range",
        "seed": args.seed,
        "reps": args.reps,
        "rows": rows,
    }
    return _finish(
        args, payload, table.render(), recorder=recorder, wall_s=wall_s,
        config={"reps": args.reps},
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    from .world.scenarios.object_tracking import run_table1_experiment

    recorder = _make_recorder(args)
    began = time.perf_counter()
    results = run_table1_experiment(
        repetitions=args.reps, seed=args.seed, workers=args.workers,
        recorder=recorder,
    )
    wall_s = time.perf_counter() - began
    table = Table(
        "Table 1 — read reliability for tags on objects",
        headers=("Location", "Measured", "Paper"),
    )
    rows: List[Dict[str, Any]] = []
    for face, estimate in results.items():
        paper = OBJECT_LOCATION_RELIABILITY[face.value]
        table.add_row(face.value, percent(estimate.rate), percent(paper))
        rows.append(
            {
                "location": face.value,
                "measured": _estimate_dict(estimate),
                "paper_rate": paper,
            }
        )
    payload = {
        "command": "table1",
        "seed": args.seed,
        "reps": args.reps,
        "rows": rows,
    }
    return _finish(
        args, payload, table.render(), recorder=recorder, wall_s=wall_s,
        config={"reps": args.reps},
    )


def _cmd_table2(args: argparse.Namespace) -> int:
    from .world.scenarios.human_tracking import run_table2_experiment

    recorder = _make_recorder(args)
    began = time.perf_counter()
    results = run_table2_experiment(
        repetitions=args.reps, seed=args.seed, workers=args.workers,
        recorder=recorder,
    )
    wall_s = time.perf_counter() - began
    table = Table(
        "Table 2 — read reliability for tags on humans",
        headers=("Placement", "1 subject", "2 subj closer", "2 subj farther"),
    )
    rows: List[Dict[str, Any]] = []
    for placement, row in results.items():
        table.add_row(
            placement,
            percent(row.one_subject.rate),
            percent(row.two_subject_closer.rate),
            percent(row.two_subject_farther.rate),
        )
        rows.append(
            {
                "placement": placement,
                "one_subject": _estimate_dict(row.one_subject),
                "two_subject_closer": _estimate_dict(row.two_subject_closer),
                "two_subject_farther": _estimate_dict(
                    row.two_subject_farther
                ),
            }
        )
    payload = {
        "command": "table2",
        "seed": args.seed,
        "reps": args.reps,
        "rows": rows,
    }
    return _finish(
        args, payload, table.render(), recorder=recorder, wall_s=wall_s,
        config={"reps": args.reps},
    )


def _cmd_table3(args: argparse.Namespace) -> int:
    from .world.scenarios.object_tracking import (
        run_object_redundancy_experiment,
    )

    recorder = _make_recorder(args)
    began = time.perf_counter()
    outcomes = run_object_redundancy_experiment(
        repetitions=args.reps, seed=args.seed, workers=args.workers,
        recorder=recorder,
    )
    wall_s = time.perf_counter() - began
    table = Table(
        "Table 3 — redundancy for object tracking",
        headers=("Configuration", "R_M", "R_C"),
    )
    rows: List[Dict[str, Any]] = []
    for outcome in outcomes:
        table.add_row(
            outcome.case.name,
            percent(outcome.measured.rate),
            percent(outcome.calculated, 1),
        )
        rows.append(
            {
                "configuration": outcome.case.name,
                "measured": _estimate_dict(outcome.measured),
                "calculated": outcome.calculated,
            }
        )
    payload = {
        "command": "table3",
        "seed": args.seed,
        "reps": args.reps,
        "rows": rows,
    }
    return _finish(
        args, payload, table.render(), recorder=recorder, wall_s=wall_s,
        config={"reps": args.reps},
    )


def _cmd_reader_redundancy(args: argparse.Namespace) -> int:
    from .world.scenarios.reader_redundancy import (
        run_reader_redundancy_experiment,
    )

    recorder = _make_recorder(args)
    began = time.perf_counter()
    result = run_reader_redundancy_experiment(
        repetitions=args.reps, seed=args.seed, workers=args.workers,
        recorder=recorder,
    )
    wall_s = time.perf_counter() - began
    table = Table(
        "Section 4 — reader-level redundancy",
        headers=("Configuration", "Reliability"),
    )
    cells = (
        ("1 reader", result.single_reader),
        ("2 readers, no DRM", result.dual_no_drm),
        ("2 readers, DRM", result.dual_with_drm),
    )
    rows: List[Dict[str, Any]] = []
    for name, estimate in cells:
        table.add_row(name, percent(estimate.rate))
        rows.append(
            {"configuration": name, "measured": _estimate_dict(estimate)}
        )
    payload = {
        "command": "reader-redundancy",
        "seed": args.seed,
        "reps": args.reps,
        "rows": rows,
    }
    return _finish(
        args, payload, table.render(), recorder=recorder, wall_s=wall_s,
        config={"reps": args.reps},
    )


def _cmd_faults(args: argparse.Namespace) -> int:
    from .world.scenarios.fault_injection import (
        run_fault_injection_experiment,
        run_fault_rate_sweep,
    )

    recorder = _make_recorder(args)
    if args.sweep:
        began = time.perf_counter()
        results = run_fault_rate_sweep(
            repetitions=args.reps, seed=args.seed, workers=args.workers,
            recorder=recorder,
        )
        wall_s = time.perf_counter() - began
        table = Table(
            "Fault sweep — tracking reliability vs per-pass crash rate",
            headers=("Crash rate", "1 reader", "2-reader failover"),
        )
        rows: List[Dict[str, Any]] = []
        for rate, (single, failover) in sorted(results.items()):
            table.add_row(
                f"{rate:g}",
                percent(single.estimate.rate),
                percent(failover.estimate.rate),
            )
            rows.append(
                {
                    "crash_rate": rate,
                    "single": _estimate_dict(single.estimate),
                    "failover": _estimate_dict(failover.estimate),
                }
            )
        payload = {
            "command": "faults",
            "sweep": True,
            "seed": args.seed,
            "reps": args.reps,
            "rows": rows,
        }
        return _finish(
            args, payload, table.render(), recorder=recorder, wall_s=wall_s,
            config={"reps": args.reps, "sweep": True},
        )

    began = time.perf_counter()
    result = run_fault_injection_experiment(
        crash_fraction=args.crash_fraction,
        restart_after_s=(
            None if args.restart_after < 0 else args.restart_after
        ),
        repetitions=args.reps,
        seed=args.seed,
        workers=args.workers,
        recorder=recorder,
    )
    wall_s = time.perf_counter() - began
    table = Table(
        "Fault injection — primary reader killed mid-pass",
        headers=("Configuration", "Reliability", "Degraded", "Failovers"),
    )
    rows = []
    for outcome in (
        result.single_fault_free,
        result.single_crash,
        result.failover_fault_free,
        result.failover_crash,
    ):
        table.add_row(
            outcome.label,
            percent(outcome.estimate.rate),
            f"{outcome.degraded_trials}/{len(outcome.outcomes)}",
            f"{outcome.promoted_trials}/{len(outcome.outcomes)}",
        )
        rows.append(
            {
                "configuration": outcome.label,
                "measured": _estimate_dict(outcome.estimate),
                "degraded_trials": outcome.degraded_trials,
                "promoted_trials": outcome.promoted_trials,
                "trials": len(outcome.outcomes),
            }
        )
    sample = result.failover_crash.outcomes[0]
    observability = {
        "transitions": [
            {
                "time": t.time,
                "reader_id": t.reader_id,
                "old": t.old.value,
                "new": t.new.value,
            }
            for t in sample.transitions
        ],
        "promotions": [
            {
                "time": p.time,
                "from_reader": p.from_reader,
                "to_reader": p.to_reader,
            }
            for p in sample.promotions
        ],
        "verdict": sample.verdict,
        "coverage": sample.coverage,
    }
    lines = [table.render(), "", "Observability (failover-crash, trial 0):"]
    for transition in sample.transitions:
        lines.append(
            f"  t={transition.time:6.2f}s  {transition.reader_id}: "
            f"{transition.old.value} -> {transition.new.value}"
        )
    for promotion in sample.promotions:
        lines.append(
            f"  t={promotion.time:6.2f}s  failover: "
            f"{promotion.from_reader} -> {promotion.to_reader}"
        )
    lines.append(
        f"  verdict={sample.verdict!r} coverage={sample.coverage:.2f} "
        f"(blind misses reported 'unobserved', never 'absent')"
    )
    payload = {
        "command": "faults",
        "sweep": False,
        "seed": args.seed,
        "reps": args.reps,
        "rows": rows,
        "sample_observability": observability,
    }
    return _finish(
        args, payload, "\n".join(lines), recorder=recorder, wall_s=wall_s,
        config={
            "reps": args.reps,
            "crash_fraction": args.crash_fraction,
            "restart_after_s": args.restart_after,
        },
    )


def _cmd_explain(args: argparse.Namespace) -> int:
    from .obs.explain import explain_tag

    explanation = explain_tag(
        args.scenario, seed=args.pass_seed, trial=args.trial, tag=args.tag
    )
    return _finish(args, explanation.to_payload(), explanation.render())


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs.explain import render_stats, stats_payload

    payload = stats_payload(args.directory)
    return _finish(args, payload, render_stats(payload))


def _cmd_plan(args: argparse.Namespace) -> int:
    source = (
        OBJECT_LOCATION_RELIABILITY
        if args.domain == "object"
        else HUMAN_ONE_SUBJECT_RELIABILITY
    )
    planner = DeploymentPlanner(
        dict(source),
        cost_model=CostModel(
            cost_per_tag=args.tag_cost,
            cost_per_antenna=args.antenna_cost,
            objects_per_deployment=args.objects,
        ),
        antenna_efficiency=args.antenna_efficiency,
    )
    plan = planner.plan(args.target, max_antennas=args.max_antennas)
    table = Table(
        f"Deployment plan for {args.target:.1%} tracking reliability",
        headers=("Setting", "Value"),
    )
    table.add_row("tags per object", plan.tags_per_object)
    table.add_row("placements", ", ".join(plan.placements))
    table.add_row("antennas", plan.antennas)
    table.add_row("predicted reliability", percent(plan.predicted_reliability, 2))
    table.add_row("cost", f"${plan.cost:,.0f}")
    payload = {
        "command": "plan",
        "target": args.target,
        "domain": args.domain,
        "tags_per_object": plan.tags_per_object,
        "placements": list(plan.placements),
        "antennas": plan.antennas,
        "predicted_reliability": plan.predicted_reliability,
        "cost": plan.cost,
    }
    return _finish(args, payload, table.render())


def _cmd_bench(args: argparse.Namespace) -> int:
    from .core import bench

    doc = bench.run_benchmark(
        workers=args.workers, quick=args.quick, seed=args.seed
    )
    path = bench.write_benchmark(doc, args.output)
    payload = {"command": "bench", "output": path, **doc}
    text = f"{bench.summarise(doc)}\nwrote {path}"
    _finish(args, payload, text)
    failed = bench.failed_parity_flags(doc)
    if failed:
        print(
            "error: bench parity flags false: " + ", ".join(failed),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import os

    from .validate import bless_golden, run_validation

    if args.bless:
        paths = bless_golden(args.golden or None)
        payload = {"command": "validate", "blessed": paths}
        text = "blessed golden documents:\n" + "\n".join(
            f"  {path}" for path in paths
        )
        return _finish(args, payload, text)
    deep = args.deep or os.environ.get(
        "REPRO_VALIDATE_DEEP", ""
    ).strip().lower() in ("1", "true", "yes")
    report = run_validation(
        pillars=args.pillar or None,
        seed=args.seed,
        deep=deep,
        checks=args.check or None,
    )
    _finish(args, report.to_payload(), report.render())
    return report.exit_code


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import all_rules, rule_ids, run_lint

    if args.list_rules:
        rules = all_rules()
        width = max(len(r.rule_id) for r in rules)
        text = "\n".join(
            f"{r.rule_id.ljust(width)}  {r.rationale}" for r in rules
        )
        payload = {
            "command": "lint",
            "rules": [
                {
                    "id": r.rule_id,
                    "family": r.family,
                    "rationale": r.rationale,
                }
                for r in rules
            ],
        }
        return _finish(args, payload, text)
    try:
        report = run_lint(args.paths, rule_ids=args.rule or None)
    except KeyError as exc:
        print(
            f"error: no rule named {exc.args[0]!r}; known rules: "
            + ", ".join(rule_ids()),
            file=sys.stderr,
        )
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _finish(args, report.to_payload(), report.render())
    return report.exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    from .core.report import rebuild_experiments_md

    doc = rebuild_experiments_md()
    payload = {"command": "report", **doc}
    text = (
        f"EXPERIMENTS.md written with {doc['artefacts_included']} artefacts "
        f"from {doc['results_dir']}"
    )
    return _finish(args, payload, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Reliability Techniques for RFID-Based "
            "Object Tracking Applications' (DSN 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = (
        ("read-range", _cmd_read_range, 12, "Figure 2 read-range sweep"),
        ("table1", _cmd_table1, 8, "Table 1 tag locations on boxes"),
        ("table2", _cmd_table2, 20, "Table 2 tags on humans"),
        ("table3", _cmd_table3, 8, "Table 3 object redundancy"),
        (
            "reader-redundancy",
            _cmd_reader_redundancy,
            20,
            "Section 4 reader-level redundancy",
        ),
    )
    for name, handler, default_reps, help_text in experiments:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, default_reps)
        p.set_defaults(handler=handler)

    faults = sub.add_parser(
        "faults",
        help="fault injection: reader crash, supervision, failover",
    )
    _add_common(faults, 20)
    faults.add_argument(
        "--crash-fraction", type=float, default=0.0125,
        help="when the primary dies, as a fraction of the pass",
    )
    faults.add_argument(
        "--restart-after", type=float, default=4.0,
        help="watchdog reboot delay in seconds (negative = never restart)",
    )
    faults.add_argument(
        "--sweep", action="store_true",
        help="sweep crash probability instead of the single-kill experiment",
    )
    faults.set_defaults(handler=_cmd_faults)

    explain = sub.add_parser(
        "explain",
        help=(
            "re-run one fully-instrumented pass and print the "
            "link-budget waterfall behind one tag's outcome"
        ),
    )
    explain.add_argument(
        "--scenario", default="cart",
        help="registered workload (cart, walk)",
    )
    explain.add_argument(
        "--pass-seed", type=int, default=DEFAULT_SEED,
        help="root seed of the pass to re-run",
    )
    explain.add_argument(
        "--trial", type=int, default=0,
        help="trial index within the seed (default 0)",
    )
    explain.add_argument(
        "--tag", default=None,
        help="EPC or population index (default: the first missed tag)",
    )
    _add_json(explain)
    explain.set_defaults(handler=_cmd_explain)

    stats = sub.add_parser(
        "stats",
        help="summarise a recorded run directory (manifest + events.jsonl)",
    )
    stats.add_argument(
        "directory",
        help="directory written by --record",
    )
    _add_json(stats)
    stats.set_defaults(handler=_cmd_stats)

    plan = sub.add_parser(
        "plan", help="deployment planning from the paper's measurements"
    )
    plan.add_argument("--target", type=float, default=0.99)
    plan.add_argument(
        "--domain", choices=("object", "human"), default="object"
    )
    plan.add_argument("--tag-cost", type=float, default=0.05)
    plan.add_argument("--antenna-cost", type=float, default=300.0)
    plan.add_argument("--objects", type=int, default=1_000_000)
    plan.add_argument("--antenna-efficiency", type=float, default=0.7)
    plan.add_argument("--max-antennas", type=int, default=4)
    _add_json(plan)
    plan.set_defaults(handler=_cmd_plan)

    validate = sub.add_parser(
        "validate",
        help=(
            "run the validation suite: physics invariants, metamorphic "
            "relations, and the golden-trace regression pins (exit code "
            "0 only when every check passes)"
        ),
    )
    validate.add_argument(
        "--pillar", action="append",
        choices=("invariants", "metamorphic", "golden"),
        help="run only this pillar (repeatable; default: all three)",
    )
    validate.add_argument(
        "--check", action="append", metavar="NAME",
        help=(
            "run only the named check (repeatable; golden checks are "
            "named golden:<scenario>)"
        ),
    )
    validate.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=(
            "root seed for the stochastic sweeps (golden scenarios pin "
            "their own seeds and ignore this)"
        ),
    )
    validate.add_argument(
        "--deep", action="store_true",
        help=(
            "widen every sweep (nightly profile; also enabled by "
            "REPRO_VALIDATE_DEEP=1)"
        ),
    )
    validate.add_argument(
        "--bless", action="store_true",
        help=(
            "re-pin the golden-trace documents under tests/golden/ "
            "instead of checking them (the intentional-drift flow)"
        ),
    )
    validate.add_argument(
        "--golden", action="append", metavar="SCENARIO",
        help="restrict --bless to this scenario (repeatable)",
    )
    _add_json(validate)
    validate.set_defaults(handler=_cmd_validate)

    lint = sub.add_parser(
        "lint",
        help=(
            "static analysis of the source tree: units, determinism, "
            "RNG, pickle and exception discipline (exit 0 clean, "
            "1 findings, 2 usage error)"
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule", action="append", metavar="ID",
        help="run only this rule id (repeatable; see --list-rules)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id with its one-line rationale and exit",
    )
    _add_json(lint)
    lint.set_defaults(handler=_cmd_lint)

    report = sub.add_parser(
        "report", help="assemble EXPERIMENTS.md from benchmark results"
    )
    _add_json(report)
    report.set_defaults(handler=_cmd_report)

    bench = sub.add_parser(
        "bench",
        help="record the perf suite to a machine-readable BENCH_<date>.json",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="reduced iteration counts (for CI smoke runs)",
    )
    bench.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the parallel workload (default: min(4, cpus))",
    )
    bench.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="root seed for the workload trials",
    )
    bench.add_argument(
        "--output", default=None,
        help="output path (default: BENCH_<date>.json in the cwd)",
    )
    _add_json(bench)
    bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer (head, less) went away mid-write: not an error.
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
