"""The portal-pass benchmark's own tests.

Run from the root of a source checkout::

    python3 -m pytest perfbench/tests -q
"""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer, wrapper_cost_ns
from worker import run_batches

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Count-type per-layer metrics: simulated or call counts, never timings.
COUNT_METRICS = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"].endswith(("_calls", "_tests", "_ratio", "_per_channel",
                           "_derivations", "_queries", ".rounds", ".slots",
                           ".polls"))
]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    result = _result(
        _bench("--workload", "tag-plane-poll", "--seed", "3", "--seconds", "1",
               "--trace", trace)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cart-portal", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced(workload, batches):
    built = workloads.build(workload)
    tracer = Tracer()
    tracer.install()
    try:
        result = run_batches(built, batches, tracer=tracer)
    finally:
        unrestored = tracer.uninstall()
    assert unrestored == []
    result.update(
        aggregates=tracer.aggregate_rows(),
        protocol={"slots": tracer.slots, "useful_slots": tracer.useful_slots,
                  "reads": tracer.reads},
        pass_self_s=tracer.pass_self,
    )
    return result


SMALL = {
    "tag-plane-poll": workloads.batch_cycle("tag-plane-poll", 5)[:4],
    "walk-failover": workloads.batch_cycle("walk-failover", 5)[:2],
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_two_traced_runs_give_identical_counts(workload):
    first, second = (_traced(workload, SMALL[workload]) for _ in range(2))
    counts = [
        {name: run._layer_metrics(r, len(r["passes"]))[name][0] for name in COUNT_METRICS}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert [row[:3] for row in first["aggregates"]] == [
        row[:3] for row in second["aggregates"]
    ]
    assert [p["digest"] for p in first["passes"]] == [
        p["digest"] for p in second["passes"]
    ]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_self_times_add_up_to_each_traced_pass(workload):
    # With the collector off, the only time outside the pass's own span
    # is that span's wrapper entry and exit and the pass-id bookkeeping
    # around it: a handful of wrapper costs, measured hot on a no-op,
    # which after a whole pass run with cold caches. A lost or
    # double-counted child span would be off by milliseconds.
    gc.disable()
    try:
        result = _traced(workload, SMALL[workload])
    finally:
        gc.enable()
    allowance = 50 * wrapper_cost_ns() * 1e-9
    for record, self_s in zip(result["passes"], result["pass_self_s"]):
        assert 0.0 <= record["seconds"] - self_s <= allowance


def test_traced_counts_match_what_the_program_returned():
    result = _traced("walk-failover", SMALL["walk-failover"])
    rounds = sum(calls for name, _p, calls, *_ in result["aggregates"]
                 if name == "protocol.round")
    assert rounds == sum(p["rounds"] for p in result["passes"])
    assert result["protocol"]["reads"] == sum(p["reads"] for p in result["passes"])
    metrics = run._layer_metrics(result, len(result["passes"]))
    assert metrics["obs.hook_calls"][0] > 0
    plane = _traced("tag-plane-poll", SMALL["tag-plane-poll"])
    metrics = run._layer_metrics(plane, len(plane["passes"]))
    assert metrics["obs.hook_calls"][0] == 0
    assert metrics["rf.chord_tests"][0] == 0


def test_uninstall_restores_every_wrapped_attribute():
    from repro.core import experiment
    from repro.obs.recorder import TracingSeedSequence
    from repro.sim.rng import SeedSequence
    from repro.world import simulation

    before = {
        "trial_stream": vars(SeedSequence)["trial_stream"],
        "tracing_trial_stream": vars(TracingSeedSequence)["trial_stream"],
        "chord": simulation.segment_sphere_chord_length,
        "run_trials": experiment.run_trials,
    }
    tracer = Tracer()
    tracer.install()
    assert vars(SeedSequence)["trial_stream"] is not before["trial_stream"]
    assert vars(TracingSeedSequence)["trial_stream"] is not before["tracing_trial_stream"]
    assert tracer.uninstall() == []
    assert vars(SeedSequence)["trial_stream"] is before["trial_stream"]
    assert vars(TracingSeedSequence)["trial_stream"] is before["tracing_trial_stream"]
    assert simulation.segment_sphere_chord_length is before["chord"]
    assert experiment.run_trials is before["run_trials"]
    assert len(tracer.patched) > 30


@pytest.mark.parametrize("workload", sorted(workloads.SPECS))
def test_canary_batch_matches_its_pins(workload):
    result = run_batches(workloads.build(workload), [workloads.canary_batch(workload)])
    failed, problems = run.check_passes(
        result["passes"], run._pinned(workload, workloads.DEFAULT_SEED)
    )
    assert (failed, problems) == (0, [])


def test_a_wrong_digest_fails_its_pass():
    record = {"cycle_batch": 0, "trial": 0, "case": "x", "error": None,
              "invariant_errors": [], "digest": "0" * 16}
    failed, problems = run.check_passes([record], {(0, 0): "1" * 16})
    assert failed == 1 and "pinned" in problems[0]
    failed, _ = run.check_passes([dict(record, error="boom")], {})
    assert failed == 1


def test_inputs_come_from_the_seed():
    for workload in workloads.SPECS:
        assert workloads.batch_cycle(workload, 1) == workloads.batch_cycle(workload, 1)
        assert workloads.batch_cycle(workload, 1) != workloads.batch_cycle(workload, 2)
        assert workloads.traced_batches(workload, 1, 30) == workloads.traced_batches(
            workload, 1, 30
        )


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
