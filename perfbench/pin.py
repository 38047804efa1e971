"""Write the pinned per-pass outcome digests the benchmark checks against.

Usage, from the root of a source checkout::

    PYTHONPATH=src python3 perfbench/pin.py [workload ...]

Runs every pass of each workload's batch cycle for the default and the
held-out seed and stores the digests in ``reference/digests.json``
(named workloads only; the others keep their pins), with the mean
simulated work of those passes (``workloads.pass_work``) for the
workloads whose times are resized to it. A change that is meant to be
speed-only must leave this file alone: re-pinning is for a change that
is meant to alter simulated outcomes, and says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import run_batches  # noqa: E402

PINS = HERE / "reference" / "digests.json"


def pin(workload: str) -> tuple:
    """(seed -> digests in cycle order, mean pass work or None)."""
    built = workloads.build(workload)
    pinned = {}
    work = []
    for seed in workloads.PINNED_SEEDS:
        result = run_batches(built, workloads.batch_cycle(workload, seed))
        bad = [p for p in result["passes"] if p["error"] or p["invariant_errors"]]
        if bad:
            raise SystemExit(f"{workload} seed {seed}: refusing to pin {bad[:3]}")
        pinned[str(seed)] = [p["digest"] for p in result["passes"]]
        work += [p["work"] for p in result["passes"]]
    mean_work = sum(work) / len(work) if workloads.SPECS[workload].resized else None
    return pinned, mean_work


def main(names: list) -> int:
    data = {"workloads": {}, "mean_pass_work": {}}
    if PINS.exists():
        data = json.loads(PINS.read_text(encoding="utf-8"))
    for name in names or sorted(workloads.SPECS):
        data["workloads"][name], data["mean_pass_work"][name] = pin(name)
        print(f"pinned {name}", flush=True)
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
