"""Process-pool execution of embarrassingly parallel trial loops.

Every experiment in the paper is "repeat the pass N times and
aggregate", and every random draw inside a trial derives statelessly
from ``(root_seed, stream_name, trial_index)`` via
:meth:`repro.sim.rng.SeedSequence.trial_stream`. Trials therefore share
no mutable state at all: running them in worker processes produces
**bit-identical** outcomes to the serial loop, in any execution order.
This module is the machinery behind ``run_trials(..., workers=N)`` and
``sweep(..., workers=N)``:

* :func:`resolve_workers` — turns an explicit ``workers`` argument or
  the ``REPRO_WORKERS`` environment variable into a worker count
  (``None`` and unset both mean serial);
* :class:`PassTrialTask` — a picklable trial callable wrapping
  :meth:`~repro.world.simulation.PortalPassSimulator.run_pass`, the
  replacement for the scenario-local closures that cannot cross a
  process boundary;
* :func:`execute_timed_trials` / :func:`submit_timed_trials` /
  :func:`gather_timed_trials` — chunked fan-out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, with results and
  per-trial wall times collected in trial-index order.

Closures still work everywhere: when a trial callable cannot be
pickled, the harness silently falls back to the serial loop, so
``REPRO_WORKERS`` can be exported globally without breaking ad-hoc
experiments.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from ..sim.rng import SeedSequence

T = TypeVar("T")

#: Environment variable consulted when ``workers=None``: export
#: ``REPRO_WORKERS=4`` to parallelise every experiment harness call in
#: the process without touching call sites.
REPRO_WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count for a trial loop (1 means serial).

    ``workers=None`` defers to the ``REPRO_WORKERS`` environment
    variable; an unset/empty variable means serial. Explicit values win
    over the environment. ``0`` and ``1`` both mean serial.
    """
    if workers is None:
        raw = os.environ.get(REPRO_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{REPRO_WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers!r}")
    return max(1, workers)


def task_is_picklable(task: Callable) -> bool:
    """True when ``task`` can cross a process boundary.

    Scenario closures (lambdas, nested functions) fail this check and
    run serially; the dedicated trial-task dataclasses pass it.
    """
    try:
        pickle.dumps(task)
        return True
    except Exception:
        return False


@dataclass(frozen=True)
class PassTrialTask:
    """A picklable trial callable: one seeded portal pass per trial.

    This is the parallel-safe replacement for the per-scenario
    ``def trial(seeds, i): return sim.run_pass([carrier], seeds, i)``
    closures. All fields are plain dataclasses, so the task ships to
    worker processes wholesale; the per-trial
    :class:`~repro.sim.rng.SeedSequence` is reconstructed in the worker
    from the root seed, which is what makes the fan-out bit-identical
    to the serial loop.
    """

    simulator: Any
    carriers: Tuple[Any, ...]
    fault_plan: Any = None

    def __call__(self, seeds: SeedSequence, trial: int) -> Any:
        return self.simulator.run_pass(
            list(self.carriers), seeds, trial, fault_plan=self.fault_plan
        )


def _run_trial_chunk_timed(
    task: Callable[[SeedSequence, int], T],
    root_seed: int,
    start: int,
    stop: int,
) -> List[Tuple[int, T, float]]:
    """Worker entry point: run a contiguous block of trial indices,
    pairing each outcome with its trial index and wall time in seconds.

    A fresh :class:`SeedSequence` is built from the root seed inside
    the worker; because streams are derived statelessly from
    ``(root_seed, name, trial)``, the outcomes match the serial loop
    exactly regardless of which worker runs which block.

    The timing rides home **with the result** — workers share no state
    with the parent, so this is how per-trial latency from a process
    pool reaches the run's metrics registry. Outcomes are unaffected:
    the clock reads bracket the trial call and touch nothing inside it.
    The explicit trial index is what lets :func:`gather_timed_trials`
    re-establish trial order without relying on futures being iterated
    in submission order.
    """
    seeds = SeedSequence(root_seed)
    timed: List[Tuple[int, T, float]] = []
    for trial in range(start, stop):
        began = time.perf_counter()
        outcome = task(seeds, trial)
        timed.append((trial, outcome, time.perf_counter() - began))
    return timed


def _chunk_bounds(repetitions: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(repetitions)`` into at most ``chunks`` contiguous blocks."""
    chunks = max(1, min(chunks, repetitions))
    base, extra = divmod(repetitions, chunks)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def submit_timed_trials(
    executor: ProcessPoolExecutor,
    task: Callable[[SeedSequence, int], T],
    repetitions: int,
    root_seed: int,
    chunks: int,
) -> List["Future[List[Tuple[int, T, float]]]"]:
    """Submit a trial loop as contiguous chunks; pair with
    :func:`gather_timed_trials`."""
    return [
        executor.submit(_run_trial_chunk_timed, task, root_seed, start, stop)
        for start, stop in _chunk_bounds(repetitions, chunks)
    ]


def gather_timed_trials(
    futures: Sequence["Future[List[Tuple[int, T, float]]]"],
) -> Tuple[List[T], List[float]]:
    """Collect timed chunks back into (outcomes, seconds), both in
    trial-index order.

    Order is re-established by **sorting on the trial index each chunk
    carries**, not by assuming the futures arrive in submission order —
    so outcomes and their wall times stay aligned with the serial loop
    (``TrialSet.trial_seconds[i]`` belongs to ``outcomes[i]``) no matter
    how the caller sequences or re-collects its futures.
    """
    indexed: List[Tuple[int, T, float]] = []
    for future in futures:
        indexed.extend(future.result())
    indexed.sort(key=lambda item: item[0])
    outcomes = [outcome for _, outcome, _ in indexed]
    seconds = [elapsed for _, _, elapsed in indexed]
    return outcomes, seconds


def execute_timed_trials(
    task: Callable[[SeedSequence, int], T],
    repetitions: int,
    root_seed: int,
    workers: int,
    executor: Optional[ProcessPoolExecutor] = None,
) -> Tuple[List[T], List[float]]:
    """Run one trial loop on a process pool, in trial-index order.

    Returns the outcomes plus each trial's wall time as measured inside
    its worker. ``executor`` lets a sweep reuse one pool across many
    values; when omitted, a pool of ``workers`` processes is created for
    this loop and torn down afterwards.
    """
    if executor is not None:
        return gather_timed_trials(
            submit_timed_trials(executor, task, repetitions, root_seed, workers)
        )
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return gather_timed_trials(
            submit_timed_trials(pool, task, repetitions, root_seed, workers)
        )
