"""One measurement process of the portal-pass benchmark.

``run.py`` starts this script once per measurement so that set-up is
timed from a cold ``import repro`` and the untraced runs happen in a
process where nothing is patched. Modes:

* ``setup`` — import, build the workload, report the set-up time;
* ``measure`` — untraced passes over the seed's batch cycle until
  ``--seconds`` of batch time have run;
* ``reference`` — untraced passes over the traced run's fixed batch list;
* ``traced`` — the same fixed batch list with the tracer installed.

Each mode prints one JSON object as its last line of output. Every
mode first runs the canary batch (the default seed's first batch,
untimed) as warm-up; its digests are checked against the pins.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before ``import repro``: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import workloads  # noqa: E402
from workloads import Batch  # noqa: E402


class TimedTask:
    """Times each pass from the caller's side and keeps a pass log.

    A pass that raises is logged as failed and yields ``None``, so one
    bad pass does not end the run.
    """

    def __init__(self, task: Any, log: List[Dict[str, Any]]) -> None:
        self.task = task
        self.log = log

    def __call__(self, seeds: Any, trial: int) -> Any:
        start = time.perf_counter()
        error = None
        try:
            outcome = self.task(seeds, trial)
        except Exception as exc:  # a failed pass is counted, not fatal
            outcome, error = None, repr(exc)
        seconds = time.perf_counter() - start
        self.log.append({"start": start, "seconds": seconds, "error": error})
        return outcome


def run_batch(built: workloads.Built, batch: Batch, task: Any) -> Dict[str, Any]:
    """One ``run_trials`` call; returns its timing and per-pass records."""
    from repro.core import experiment

    log: List[Dict[str, Any]] = []
    timed = TimedTask(task, log)
    started = time.perf_counter()
    built.before_batch()
    trial_set = experiment.run_trials(
        f"{built.workload}:{batch.case}",
        timed,
        batch.trials,
        seed=batch.root_seed,
        workers=1,
    )
    built.after_batch(f"{built.workload}:{batch.case}", trial_set)
    seconds = time.perf_counter() - started
    passes = []
    for record, outcome in zip(log, trial_set.outcomes):
        if outcome is not None:
            rounds, reads = workloads.rounds_and_reads(outcome)
            record.update(
                digest=workloads.digest(outcome),
                rounds=rounds,
                reads=reads,
                work=workloads.pass_work(built.cases[batch.case], outcome),
                invariant_errors=workloads.invariant_errors(batch.case, outcome),
            )
        record["case"] = batch.case
        passes.append(record)
    return {"start": started, "seconds": seconds, "passes": passes}


def run_batches(
    built: workloads.Built,
    batches: List[Batch],
    seconds: Optional[float] = None,
    tracer: Any = None,
) -> Dict[str, Any]:
    """Run ``batches`` in order (wrapping around when time-limited).

    With ``seconds``, batches run until their summed time reaches it;
    without, each batch runs once. Per-pass digests are computed outside
    the batch timing.
    """
    passes: List[Dict[str, Any]] = []
    windows: List[Tuple[float, float]] = []
    batch_seconds = 0.0
    index = 0
    while True:
        if seconds is None:
            if index >= len(batches):
                break
        elif batch_seconds >= seconds:
            break
        position = index % len(batches)
        batch = batches[position]
        task = built.cases[batch.case]
        if tracer is not None:
            task = tracer.wrap_pass(task)
        result = run_batch(built, batch, task)
        for trial, record in enumerate(result["passes"]):
            record["cycle_batch"] = position
            record["trial"] = trial
        passes.extend(result["passes"])
        windows.append((result["start"], result["seconds"]))
        batch_seconds += result["seconds"]
        index += 1
    return {
        "batch_seconds": batch_seconds,
        "batches": index,
        "batch_windows": windows,
        "passes": passes,
    }


#: Interval between host-speed samples while passes run, and loop
#: iterations per sample (about half a millisecond: ~2% of run time).
SAMPLE_EVERY_S = 0.025
SAMPLE_ITERATIONS = 250
#: Set-up lasts a few tenths of a second, so it is sampled more densely.
SETUP_SAMPLE_EVERY_S = 0.01


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x = x
        self.y = y
        self.z = z

    def minus(self, other: "_Point") -> "_Point":
        return _Point(self.x - other.x, self.y - other.y, self.z - other.z)

    def dot(self, other: "_Point") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def host_probe(iterations: int = SAMPLE_ITERATIONS) -> float:
    """Seconds per 1000 iterations of a fixed pure-Python loop on this host.

    The loop mixes what a pass does — small objects, method calls,
    float math, a dict memo — but runs only the benchmark's own code,
    so no change to the program can speed it up. On a shared machine
    its speed swings with the neighbours' load as the passes' does;
    ``run.py`` divides pass times by it.
    """
    start = time.perf_counter()
    origin = _Point(0.0, 1.0, 0.0)
    memo: Dict[Tuple[int, float], float] = {}
    total = 0.0
    for i in range(iterations):
        offset = _Point(i * 0.001, 0.5, 2.0).minus(origin)
        length = math.sqrt(offset.dot(offset))
        key = (i & 63, round(length, 3))
        cached = memo.get(key)
        if cached is None:
            memo[key] = length
        else:
            total += cached
        total += math.exp(-length)
    return (time.perf_counter() - start) * 1000.0 / iterations


class HostSampler:
    """Samples :func:`host_probe` every ``interval_s`` of wall time.

    A real-time interval timer interrupts the measured code and runs one
    short probe in the signal handler, so the samples interleave with
    the work itself rather than landing only between passes. Each sample
    is stamped with ``time.perf_counter()`` at its start, on the same
    clock as the pass timings. The probe draws no random numbers and
    touches no program state; it adds the same small share to every pass.
    """

    def __init__(self, interval_s: float = SAMPLE_EVERY_S) -> None:
        self.interval_s = interval_s
        self.times: List[float] = []
        self.values: List[float] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        self.times.append(time.perf_counter())
        self.values.append(host_probe())

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(signal.SIGALRM, None)  # even the shortest stretch gets one


def peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "measure", "reference", "traced")
    )
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    with HostSampler(SETUP_SAMPLE_EVERY_S) as setup_sampler:
        import repro  # noqa: F401  (the set-up clock covers this import)

        built = workloads.build(args.workload)
        cycle = workloads.batch_cycle(args.workload, args.seed)
        setup_s = time.perf_counter() - _STARTED
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_probes": setup_sampler.values,
        "mode": args.mode,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    canary = run_batches(built, [workloads.canary_batch(args.workload)])
    out["canary"] = canary["passes"]
    with HostSampler() as sampler:
        if args.mode == "measure":
            out.update(run_batches(built, cycle, seconds=args.seconds))
        else:
            batches = workloads.traced_batches(args.workload, args.seed, args.seconds)
            if args.mode == "reference":
                out.update(run_batches(built, batches))
            else:
                out.update(_traced(built, batches, args.spans_out))
    out["probe_t"] = sampler.times
    out["probes"] = sampler.values
    out["peak_rss_mb"] = peak_rss_mib()
    out["machine"] = machine()
    print(json.dumps(out))
    return 0


def _traced(
    built: workloads.Built,
    batches: List[Batch],
    spans_out: Optional[str],
) -> Dict[str, Any]:
    from tracer import Tracer, wrapper_cost_ns

    wrapper_ns = wrapper_cost_ns()
    tracer = Tracer()
    tracer.install()
    try:
        result = run_batches(built, batches, tracer=tracer)
    finally:
        unrestored = tracer.uninstall()
    result.update(
        wrapper_ns=wrapper_ns,
        unrestored=unrestored,
        patched=len(tracer.patched),
        aggregates=tracer.aggregate_rows(),
        protocol={
            "slots": tracer.slots,
            "useful_slots": tracer.useful_slots,
            "reads": tracer.reads,
        },
        pass_self_s=tracer.pass_self,
    )
    if spans_out:
        tracer.write_spans(spans_out)
    return result


def machine() -> Dict[str, Any]:
    """Where the numbers came from."""
    import platform

    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": 1,
        "workers_why": (
            "passes run serially in one process: trial fan-out is kept out "
            "of this benchmark on a shared 2-core machine"
        ),
    }


if __name__ == "__main__":
    sys.exit(main())
