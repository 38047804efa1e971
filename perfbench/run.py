"""Portal-pass benchmark: one command, seeded workloads, checked outcomes.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cart-portal --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics in worker processes where
nothing is patched. ``--trace 1`` replays a fixed batch list twice —
once untraced, once with the layer tracer installed — and reports the
per-layer metrics and the tracing overhead. The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). Full results, spans included, are
written under ``.perfbench-out/`` in the checkout.

``failed`` counts passes that raised, broke an invariant, or whose
outcome digest differs from the pinned one (``failed / attempted`` is
the failed-pass fraction). Digests are pinned for the default and the
held-out seed in ``reference/digests.json``; every run also replays the
pinned canary batch first.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
PINS = HERE / "reference" / "digests.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Set-up is timed in this many fresh processes (the measuring worker
#: included) and reported as their median.
SETUP_SAMPLES = 5
#: Every run must end within 180 s; workers get what is left of this.
RUN_BUDGET_S = 170.0
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Reference result of ``worker.host_probe`` (seconds per 1000 loops).
#: Reported times are host seconds divided by the host factor — the
#: probe samples taken while that time passed, over this reference — so
#: they read as seconds on a host that runs the probe in exactly this
#: long. On a shared machine the neighbours' load swings the speed of
#: pure-Python code by 2x within a minute; the scaling takes that out
#: and leaves what the program itself changes. Unscaled figures are in
#: each run's details file.
NOMINAL_PROBE_S = 0.0025
#: Samples, and seconds of padding either side, a window's factor uses.
MIN_WINDOW_SAMPLES = 40
WINDOW_PAD_S = 0.1


class BenchError(RuntimeError):
    """The program could not be set up or a worker died."""


def _worker(args: List[str], deadline: float) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=str(ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_factor(probes: List[float]) -> float:
    """How much slower than the reference host these samples ran (>1: slower)."""
    return statistics.fmean(probes) / NOMINAL_PROBE_S


class HostClock:
    """Host factor for any stretch of a worker's measured time."""

    def __init__(self, times: List[float], values: List[float]) -> None:
        if not times:
            raise BenchError("no host-speed samples")
        self.times = times
        self.values = values

    def factor(self, start: float, seconds: float) -> float:
        """Mean of the samples inside ``[start, start + seconds]``.

        The window widens on both sides until it holds
        ``MIN_WINDOW_SAMPLES`` samples, so short passes use their
        neighbourhood.
        """
        pad = 0.0
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, start + seconds + pad)
            if hi - lo >= MIN_WINDOW_SAMPLES or (lo == 0 and hi == len(self.times)):
                return host_factor(self.values[lo:hi])
            pad = pad * 2 if pad else WINDOW_PAD_S

    def scaled(self, start: float, seconds: float) -> float:
        return seconds / self.factor(start, seconds)


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    With fewer than ``TAIL_BEYOND + 1`` samples the maximum is returned
    and the percentile is 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based; TAIL_BEYOND samples lie above it
    return ordered[rank - 1], 100.0 * rank / n, n


# -- correctness ---------------------------------------------------------


def _pins() -> Dict[str, Any]:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def _pinned(workload: str, seed: int) -> Dict[Tuple[int, int], str]:
    """(cycle batch, trial) -> pinned digest, or {} for an unpinned seed."""
    digests = _pins()["workloads"].get(workload, {}).get(str(seed))
    if digests is None:
        return {}
    pinned = {}
    flat = iter(digests)
    for position, batch in enumerate(workloads.batch_cycle(workload, seed)):
        for trial in range(batch.trials):
            pinned[(position, trial)] = next(flat)
    return pinned


def check_passes(
    passes: List[Dict[str, Any]], pinned: Dict[Tuple[int, int], str]
) -> Tuple[int, List[str]]:
    """Count failed passes: raised, broke an invariant, or missed its pin.

    A pass visited twice (the cycle wrapped) must give the same digest.
    """
    failed = 0
    problems: List[str] = []
    seen: Dict[Tuple[int, int], str] = {}
    for record in passes:
        key = (record["cycle_batch"], record["trial"])
        why = None
        if record["error"] is not None:
            why = f"raised {record['error']}"
        elif record["invariant_errors"]:
            why = "; ".join(record["invariant_errors"])
        elif key in pinned and pinned[key] != record["digest"]:
            why = f"digest {record['digest']} != pinned {pinned[key]}"
        elif seen.setdefault(key, record["digest"]) != record["digest"]:
            why = "digest changed on a repeated pass"
        if why is not None:
            failed += 1
            problems.append(f"pass {key} ({record['case']}): {why}")
    return failed, problems


# -- the two kinds of run ------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    setup_runs = [
        _worker(common + ["--mode", "setup"], deadline) for _ in range(SETUP_SAMPLES)
    ]
    setups = [run["setup_s"] / host_factor(run["setup_probes"]) for run in setup_runs]
    result = _worker(
        common + ["--mode", "measure", "--seconds", repr(seconds)], deadline
    )
    clock = HostClock(result["probe_t"], result["probes"])
    canary_failed, problems = check_passes(
        result["canary"], _pinned(workload, workloads.DEFAULT_SEED)
    )
    failed, more = check_passes(result["passes"], _pinned(workload, seed))
    problems += more
    passes = result["passes"]
    host_times = [p["seconds"] for p in passes]
    times = [clock.scaled(p["start"], p["seconds"]) for p in passes]
    batch_seconds = sum(clock.scaled(*window) for window in result["batch_windows"])
    rate = len(times) / batch_seconds
    works = [p.get("work") for p in passes]
    mean_work = None
    if workloads.SPECS[workload].resized:
        # Resize to the workload's mean pass (see README, "Pass size").
        mean_work = _pins()["mean_pass_work"][workload]
        times = [t * mean_work / w for t, w in zip(times, works)]
        rate *= statistics.fmean(works) / mean_work
    tail_s, tail_pct, n = tail(times)
    metrics = {
        "passes_per_s": (rate, "1/s"),
        "pass_s_p50": (statistics.median(times), "s"),
        "pass_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    detail = {
        "passes": n,
        "batches": result["batches"],
        "batch_seconds": result["batch_seconds"],
        "pass_s_tail_percentile": tail_pct,
        "pass_s_tail_samples_beyond": min(TAIL_BEYOND, n - 1),
        "pass_work_mean": statistics.fmean(works) if mean_work else None,
        "reference_pass_work": mean_work,
        "host_factor": host_factor(result["probes"]),
        "host_probes": len(result["probes"]),
        "unscaled": {
            "passes_per_s": n / result["batch_seconds"],
            "pass_s_p50": statistics.median(host_times),
            "pass_s_tail": tail(host_times)[0],
            "setup_s": statistics.median(run["setup_s"] for run in setup_runs),
        },
        "setup_samples_s": setups,
        "machine": result["machine"],
    }
    attempted = len(result["canary"]) + n
    detail["failed_pass_frac"] = (canary_failed + failed) / attempted
    return metrics, detail, attempted, canary_failed + failed, problems


def _layer_metrics(
    traced: Dict[str, Any], passes: int, factor: float = 1.0
) -> Dict[str, Tuple[float, str]]:
    """Per-pass layer metrics from the tracer's aggregates.

    Times are divided by the traced process's host ``factor``, as the
    end-to-end times are.
    """
    count: Dict[str, int] = {}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    hits: Dict[str, int] = {}
    for name, parent, calls, total_s, self_s, hit in traced["aggregates"]:
        count[name] = count.get(name, 0) + calls
        own[name] = own.get(name, 0.0) + self_s
        hits[name] = hits.get(name, 0) + hit
        if parent != name:  # nested calls are inside the outer total already
            total[name] = total.get(name, 0.0) + total_s

    def c(name: str) -> float:
        return count.get(name, 0)

    def per_pass(value: float) -> float:
        return value / passes

    def per_pass_s(seconds: float) -> float:
        return seconds / passes / factor

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    obs = [name for name in count if name.startswith("obs.")]
    protocol = traced["protocol"]
    return {
        "rf.chord_tests": (per_pass(c("rf.chord")), "1/pass"),
        "rf.chord_s": (per_pass_s(total.get("rf.chord", 0.0)), "s/pass"),
        "rf.chord_hit_ratio": (ratio(hits.get("rf.chord", 0), c("rf.chord")), "ratio"),
        "world.obstruction_s": (per_pass_s(total.get("world.obstruction", 0.0)), "s/pass"),
        "world.channel_self_s": (
            per_pass_s(sum(own.get(n, 0.0) for n in (
                "world.channel", "world.obstruction", "world.motion"))),
            "s/pass",
        ),
        "world.motion_calls": (per_pass(c("world.motion")), "1/pass"),
        "world.channel_calls": (per_pass(c("world.channel")), "1/pass"),
        "world.run_pass_self_s": (per_pass_s(own.get("world.run_pass", 0.0)), "s/pass"),
        "rf.link_terms_calls": (per_pass(c("rf.link_terms")), "1/pass"),
        "rf.link_terms_s": (per_pass_s(total.get("rf.link_terms", 0.0)), "s/pass"),
        "rf.link_terms_per_channel": (
            ratio(c("rf.link_terms"), c("world.channel")), "ratio"),
        "rf.compose_calls": (per_pass(c("rf.compose")), "1/pass"),
        "rf.compose_s": (per_pass_s(total.get("rf.compose", 0.0)), "s/pass"),
        "rf.compose_per_channel": (ratio(c("rf.compose"), c("world.channel")), "ratio"),
        "sim.stream_derivations": (per_pass(c("sim.stream")), "1/pass"),
        "sim.stream_s": (per_pass_s(total.get("sim.stream", 0.0)), "s/pass"),
        "protocol.rounds": (per_pass(c("protocol.round")), "1/pass"),
        "protocol.round_self_s": (per_pass_s(own.get("protocol.round", 0.0)), "s/pass"),
        "protocol.slots": (per_pass(protocol["slots"]), "1/pass"),
        "protocol.useful_slot_ratio": (
            ratio(protocol["useful_slots"], protocol["slots"]), "ratio"),
        "protocol.interference_calls": (
            per_pass(c("protocol.interference")), "1/pass"),
        "obs.hook_calls": (per_pass(sum(count[n] for n in obs)), "1/pass"),
        "obs.self_s": (per_pass_s(sum(own[n] for n in obs)), "s/pass"),
        "reader.polls": (per_pass(c("reader.poll")), "1/pass"),
        "reader.poll_self_s": (per_pass_s(own.get("reader.poll", 0.0)), "s/pass"),
        "reader.wire_s": (per_pass_s(total.get("reader.wire", 0.0)), "s/pass"),
        "reader.backend_s": (per_pass_s(total.get("reader.backend", 0.0)), "s/pass"),
        "faults.plan_queries": (per_pass(c("faults.plan")), "1/pass"),
        "faults.plan_s": (per_pass_s(total.get("faults.plan", 0.0)), "s/pass"),
        "core.harness_self_s": (per_pass_s(own.get("core.harness", 0.0)), "s/pass"),
    }


def breakdown(traced: Dict[str, Any]) -> Dict[str, Any]:
    """Self time per layer, and the shares the occlusion work is judged by.

    Shares are of all traced time (every self time: passes plus the
    ``run_trials`` harness and batch-level recording around them).
    """
    own: Dict[str, float] = {}
    for name, _parent, _calls, _total, self_s, _hit in traced["aggregates"]:
        own[name] = own.get(name, 0.0) + self_s
    whole = sum(own.values())
    layers: Dict[str, float] = {}
    for name, seconds in own.items():
        layer = "world" if name == "pass" else name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds

    def pct(seconds: float) -> float:
        return 100.0 * seconds / whole if whole else 0.0

    chord = sum(
        total for name, parent, _c, total, _s, _h in traced["aggregates"]
        if name == "rf.chord"
    )
    world_channel = sum(
        own.get(n, 0.0) for n in ("world.channel", "world.obstruction", "world.motion")
    )
    return {
        "layer_self_pct": {k: pct(v) for k, v in sorted(layers.items())},
        "span_self_pct": {k: pct(v) for k, v in sorted(own.items())},
        "chord_plus_channel_self_pct": pct(chord + world_channel),
        "link_terms_pct": pct(sum(
            total for name, parent, _c, total, _s, _h in traced["aggregates"]
            if name == "rf.link_terms"
        )),
        "round_self_pct": pct(own.get("protocol.round", 0.0)),
        "traced_seconds": whole,
    }


def run_traced(workload: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{workload}-seed{seed}-spans.npz"
    reference = _worker(common + ["--mode", "reference"], deadline)
    traced = _worker(common + ["--mode", "traced", "--spans-out", str(spans)], deadline)
    canary_pins = _pinned(workload, workloads.DEFAULT_SEED)
    pinned = _pinned(workload, seed)
    failed = 0
    problems: List[str] = []
    for result in (reference, traced):
        for passes, pins in ((result["canary"], canary_pins), (result["passes"], pinned)):
            bad, why = check_passes(passes, pins)
            failed += bad
            problems += why
    if [p.get("digest") for p in traced["passes"]] != [
        p.get("digest") for p in reference["passes"]
    ]:
        problems.append("traced digests differ from the untraced run")
    passes = traced["passes"]
    traced_rounds = sum(
        calls for name, _parent, calls, *_ in traced["aggregates"]
        if name == "protocol.round"
    )
    program_rounds = sum(p.get("rounds", 0) for p in passes)
    program_reads = sum(p.get("reads", 0) for p in passes)
    if traced_rounds != program_rounds:
        problems.append(
            f"traced rounds {traced_rounds} != PassResult rounds {program_rounds}"
        )
    if traced["protocol"]["reads"] != program_reads:
        problems.append(
            f"traced reads {traced['protocol']['reads']} != trace length {program_reads}"
        )
    if traced["unrestored"]:
        problems.append(f"attributes not restored: {traced['unrestored']}")
    untraced_clock = HostClock(reference["probe_t"], reference["probes"])
    traced_clock = HostClock(traced["probe_t"], traced["probes"])
    untraced_s = sum(
        untraced_clock.scaled(p["start"], p["seconds"]) for p in reference["passes"]
    )
    traced_s = sum(traced_clock.scaled(p["start"], p["seconds"]) for p in passes)
    traced_factor = host_factor(traced["probes"])
    metrics = _layer_metrics(traced, len(passes), traced_factor)
    metrics["trace_overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    metrics["trace_wrapper_ns"] = (traced["wrapper_ns"], "ns")
    self_gap = [p["seconds"] - s for p, s in zip(passes, traced["pass_self_s"])]
    detail = {
        "passes": len(passes),
        "batches": traced["batches"],
        "untraced_pass_seconds": untraced_s,
        "traced_pass_seconds": traced_s,
        "wrapped_attributes": traced["patched"],
        "max_pass_self_gap_s": max(self_gap),
        "min_pass_self_gap_s": min(self_gap),
        "breakdown": breakdown(traced),
        "spans_file": str(spans.relative_to(ROOT)),
        "machine": traced["machine"],
    }
    attempted = sum(
        len(r["canary"]) + len(r["passes"]) for r in (reference, traced)
    )
    return metrics, detail, attempted, failed, problems


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Portal-pass benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + RUN_BUDGET_S
    run = run_traced if args.trace else run_untraced
    try:
        metrics, detail, attempted, failed, problems = run(
            args.workload, args.seed, args.seconds, deadline
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "result": result,
                "detail": detail,
                "problems": problems,
            },
            handle,
            indent=1,
        )
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"details: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
