"""Recorded performance benchmarks: ``python -m repro bench``.

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows"; this module is how that is *tracked* rather than
assumed. One invocation measures the read-range search, the
observability overhead and a representative repeat-the-pass workload
in serial and parallel, then writes everything to a machine-readable
``BENCH_<date>.json`` so the perf trajectory survives across PRs.
Per-layer timing inside real passes is measured by ``perfbench/``.

Each stage also carries a parity flag (:data:`PARITY_FLAGS`): the
parallel run must reproduce the serial outcomes bit-for-bit, recording
must not perturb a trace, and the fast read-range search must give the
linear scan's answer. ``python -m repro bench`` exits 1 when any is
false.
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from ..rf.link import (
    LinkEnvironment,
    _linear_scan_read_range_m,
    free_space_read_range_m,
)
from ..sim.rng import SeedSequence
from .experiment import DEFAULT_SEED, run_trials

#: Workload trials per mode.
_FULL_TRIALS = 16
_QUICK_TRIALS = 4

#: Key paths of the boolean parity flags in a bench document.
PARITY_FLAGS: Tuple[Tuple[str, ...], ...] = (
    ("hot_paths", "read_range_search", "answers_equal"),
    ("hot_paths", "obs_overhead", "bit_identical"),
    ("workload", "parity"),
)


def _time(fn, iterations: int) -> float:
    """Wall-clock seconds for ``iterations`` calls of ``fn``."""
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return time.perf_counter() - start


def _bench_read_range(quick: bool) -> Dict[str, Any]:
    """Envelope-bisect read-range search vs the legacy linear scan."""
    env = LinkEnvironment()
    step = 0.05 if quick else 0.01
    fast_s = _time(lambda: free_space_read_range_m(env, 30.0, step_m=step), 3)
    scan_s = _time(lambda: _linear_scan_read_range_m(env, 30.0, step_m=step), 3)
    return {
        "step_m": step,
        "bisect_search_s": fast_s / 3.0,
        "linear_scan_s": scan_s / 3.0,
        "speedup": scan_s / fast_s if fast_s > 0 else None,
        "answers_equal": free_space_read_range_m(env, 30.0, step_m=step)
        == _linear_scan_read_range_m(env, 30.0, step_m=step),
    }


def _workload_task():
    """The representative workload: the paper's box cart, front tags."""
    from ..world.objects import BoxFace
    from ..world.portal import single_antenna_portal
    from ..world.scenarios.object_tracking import (
        _make_simulator,
        build_box_cart,
    )
    from .parallel import PassTrialTask

    sim = _make_simulator(single_antenna_portal())
    carrier, _ = build_box_cart([BoxFace.FRONT])
    return sim, PassTrialTask(simulator=sim, carriers=(carrier,))


def _bench_workload(
    trials: int, workers: int, seed: int
) -> Dict[str, Any]:
    """Serial vs parallel fan-out of the representative workload."""
    _, task = _workload_task()

    start = time.perf_counter()
    serial = run_trials("bench:serial", task, trials, seed=seed, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_trials(
        "bench:parallel", task, trials, seed=seed, workers=workers
    )
    parallel_s = time.perf_counter() - start

    return {
        "description": (
            "12-box cart, front tags, full portal pass per trial "
            "(paper Table 1 workload)"
        ),
        "trials": trials,
        "serial": {
            "seconds": serial_s,
            "passes_per_sec": trials / serial_s if serial_s > 0 else None,
            "trial_times": serial.timing_summary(),
        },
        "parallel": {
            "workers": workers,
            "seconds": parallel_s,
            "passes_per_sec": trials / parallel_s if parallel_s > 0 else None,
            "trial_times": parallel.timing_summary(),
        },
        "speedup": serial_s / parallel_s if parallel_s > 0 else None,
        "parity": serial.outcomes == parallel.outcomes,
    }


def _bench_obs_overhead(trials: int, seed: int) -> Dict[str, Any]:
    """Observability cost on the Table 1 cart workload, three ways.

    * ``off`` — ``recorder=None``: the hooks reduce to one identity
      test per site; this is the mode every existing experiment runs in
      and the mode the <2% overhead budget applies to.
    * ``metrics`` — a default :class:`~repro.obs.Recorder`: per-pass
      counters, histograms and miss attribution, no event capture.
    * ``full`` — every capture flag on: link waterfalls, slots, RNG
      provenance.

    Read outcomes must be identical in all three modes — recording
    never perturbs the simulation.
    """
    from ..obs import Recorder
    from ..sim.trace import ReadTrace  # noqa: F401  (import cost off the clock)

    sim, task = _workload_task()
    seeds = SeedSequence(seed)

    def _run(recorder) -> Any:
        sim.recorder = recorder
        start = time.perf_counter()
        results = [task(seeds, i) for i in range(trials)]
        elapsed = time.perf_counter() - start
        sim.recorder = None
        return results, elapsed

    off, off_s = _run(None)
    metrics, metrics_s = _run(Recorder())
    full, full_s = _run(
        Recorder(capture_link_budget=True, capture_slots=True, capture_rng=True)
    )

    def _traces(results) -> Any:
        return [r.trace for r in results]

    return {
        "passes": trials,
        "off_s": off_s,
        "off_passes_per_sec": trials / off_s if off_s > 0 else None,
        "metrics_s": metrics_s,
        "metrics_overhead_pct": (
            100.0 * (metrics_s - off_s) / off_s if off_s > 0 else None
        ),
        "full_capture_s": full_s,
        "full_capture_overhead_pct": (
            100.0 * (full_s - off_s) / off_s if off_s > 0 else None
        ),
        "bit_identical": (
            _traces(off) == _traces(metrics) == _traces(full)
        ),
    }


def run_benchmark(
    workers: Optional[int] = None,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
) -> Dict[str, Any]:
    """Run the full bench suite and return the result document."""
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    workers = max(1, workers)
    trials = _QUICK_TRIALS if quick else _FULL_TRIALS

    stages: List[str] = []

    def _stage(name: str) -> None:
        stages.append(name)
        print(f"bench: {name} ...", flush=True)

    _stage("read-range search")
    read_range = _bench_read_range(quick)
    _stage("observability overhead")
    obs_overhead = _bench_obs_overhead(max(2, trials // 4), seed)
    _stage(f"workload serial vs {workers}-worker")
    workload = _bench_workload(trials, workers, seed)

    return {
        "meta": {
            "date": _datetime.date.today().isoformat(),  # repro: allow[det-wallclock] names the BENCH_<date>.json artifact; not simulated state
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "quick": quick,
            "seed": seed,
            "stages": stages,
        },
        "hot_paths": {
            "read_range_search": read_range,
            "obs_overhead": obs_overhead,
        },
        "workload": workload,
    }


def default_output_path(doc: Dict[str, Any]) -> str:
    """The conventional artifact name: ``BENCH_<date>.json``."""
    return f"BENCH_{doc['meta']['date']}.json"


def write_benchmark(doc: Dict[str, Any], path: Optional[str] = None) -> str:
    """Serialise a bench document; returns the path written."""
    path = path or default_output_path(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def summarise(doc: Dict[str, Any]) -> str:
    """A human-readable recap of the numbers that matter."""
    wl = doc["workload"]
    lines = [
        f"serial:   {wl['serial']['passes_per_sec']:.2f} passes/s",
        (
            f"parallel: {wl['parallel']['passes_per_sec']:.2f} passes/s "
            f"({wl['parallel']['workers']} workers, "
            f"speedup {wl['speedup']:.2f}x, "
            f"parity={'OK' if wl['parity'] else 'FAIL'})"
        ),
        (
            f"trial time: p50 {wl['serial']['trial_times']['p50_s'] * 1e3:.1f} ms, "
            f"p95 {wl['serial']['trial_times']['p95_s'] * 1e3:.1f} ms (serial)"
        ),
        (
            "obs overhead: "
            f"{doc['hot_paths']['obs_overhead']['metrics_overhead_pct']:+.1f}% "
            "metrics-only, "
            f"{doc['hot_paths']['obs_overhead']['full_capture_overhead_pct']:+.1f}% "
            "full capture "
            f"(traces identical="
            f"{'OK' if doc['hot_paths']['obs_overhead']['bit_identical'] else 'FAIL'})"
        ),
        (
            f"read-range search: "
            f"{doc['hot_paths']['read_range_search']['speedup']:.1f}x "
            f"over linear scan"
        ),
    ]
    return "\n".join(lines)


def failed_parity_flags(doc: Dict[str, Any]) -> List[str]:
    """Dotted names of the :data:`PARITY_FLAGS` that are not true."""
    failed: List[str] = []
    for path in PARITY_FLAGS:
        value: Any = doc
        for key in path:
            value = value[key]
        if value is not True:
            failed.append(".".join(path))
    return failed
