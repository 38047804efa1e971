"""Tests for the process-pool trial engine (`repro.core.parallel`)."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.calibration import PaperSetup
from repro.core.experiment import run_trials, sweep
from repro.core.parallel import (
    REPRO_WORKERS_ENV,
    PassTrialTask,
    _chunk_bounds,
    execute_timed_trials,
    resolve_workers,
    task_is_picklable,
)
from repro.sim.rng import SeedSequence
from repro.world.portal import single_antenna_portal
from repro.world.scenarios.human_tracking import build_walk
from repro.world.simulation import PortalPassSimulator


class SquareTask:
    """Minimal importable (hence picklable) trial callable."""

    def __call__(self, seeds: SeedSequence, trial: int) -> float:
        return seeds.trial_stream("sq", trial).random() + trial

    def __eq__(self, other):
        return isinstance(other, SquareTask)


class TestResolveWorkers:
    def test_none_without_env_is_serial(self, monkeypatch):
        monkeypatch.delenv(REPRO_WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_empty_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "  ")
        assert resolve_workers(None) == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "8")
        assert resolve_workers(2) == 2

    def test_zero_and_one_mean_serial(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestPicklability:
    def test_closure_is_not_picklable(self):
        x = 3
        assert not task_is_picklable(lambda s, i: i + x)

    def test_importable_task_is_picklable(self):
        assert task_is_picklable(SquareTask())

    def test_pass_trial_task_round_trips(self):
        task = PassTrialTask(simulator=None, carriers=("a", "b"))
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task


class TestChunking:
    def test_covers_all_indices_in_order(self):
        bounds = _chunk_bounds(10, 3)
        flat = [i for start, stop in bounds for i in range(start, stop)]
        assert flat == list(range(10))

    def test_never_more_chunks_than_trials(self):
        assert len(_chunk_bounds(2, 8)) == 2

    def test_single_chunk(self):
        assert _chunk_bounds(5, 1) == [(0, 5)]


class TestParallelExecution:
    def test_parallel_matches_serial_order_and_values(self):
        task = SquareTask()
        serial = run_trials("t", task, 9, seed=42, workers=1)
        parallel = run_trials("t", task, 9, seed=42, workers=3)
        assert parallel.outcomes == serial.outcomes

    def test_execute_trials_matches_inline_loop(self):
        task = SquareTask()
        seeds = SeedSequence(7)
        expected = [task(seeds, i) for i in range(5)]
        assert execute_timed_trials(task, 5, 7, workers=2)[0] == expected

    def test_pass_cache_counters_come_back_from_workers(self):
        # Each PassResult carries its own pass's link-cache counters,
        # so the process pool reports what the serial loop reports.
        carrier, _ = build_walk(1, ["front"])
        setup = PaperSetup()
        sim = PortalPassSimulator(
            portal=single_antenna_portal(), env=setup.env, params=setup.params
        )
        task = PassTrialTask(simulator=sim, carriers=(carrier,))
        serial = run_trials("walk", task, 4, seed=3, workers=1)
        parallel = run_trials("walk", task, 4, seed=3, workers=2)
        expected = [o.cache_stats for o in serial.outcomes]
        assert all(stats["geometry_misses"] > 0 for stats in expected)
        assert [o.cache_stats for o in parallel.outcomes] == expected

    def test_one_nonnegative_time_per_trial(self):
        outcomes, seconds = execute_timed_trials(SquareTask(), 5, 7, workers=2)
        assert len(seconds) == len(outcomes) == 5
        assert all(s >= 0.0 for s in seconds)

    def test_more_workers_than_trials(self):
        task = SquareTask()
        seeds = SeedSequence(3)
        expected = [task(seeds, i) for i in range(2)]
        assert execute_timed_trials(task, 2, 3, workers=4)[0] == expected

    def test_supplied_executor_stays_open(self):
        # A sweep hands one pool to many loops; a loop must not shut it.
        task = SquareTask()
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = execute_timed_trials(task, 4, 5, workers=2, executor=pool)
            second = execute_timed_trials(task, 4, 5, workers=2, executor=pool)
        assert first[0] == second[0]

    def test_closure_falls_back_to_serial(self):
        # A closure cannot cross the process boundary; run_trials must
        # quietly run it inline rather than fail.
        acc = []

        def trial(seeds, i):
            acc.append(i)
            return i

        result = run_trials("t", trial, 4, workers=4)
        assert result.outcomes == [0, 1, 2, 3]
        assert acc == [0, 1, 2, 3]

    def test_env_var_drives_run_trials(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "2")
        task = SquareTask()
        assert (
            run_trials("t", task, 6, seed=1).outcomes
            == run_trials("t", task, 6, seed=1, workers=1).outcomes
        )


class TestParallelSweep:
    def test_sweep_parallel_matches_serial(self):
        task_factory = lambda value: SquareTask()  # noqa: E731
        serial = sweep(lambda v: f"v={v}", [1.0, 2.0], task_factory, 5, seed=9)
        parallel = sweep(
            lambda v: f"v={v}", [1.0, 2.0], task_factory, 5, seed=9, workers=2
        )
        assert set(serial) == set(parallel)
        for value in serial:
            assert serial[value].outcomes == parallel[value].outcomes
            assert serial[value].label == parallel[value].label
