"""The per-pass link cache must be invisible: every evaluation it makes
equals the scalar :func:`~repro.rf.link.evaluate_link`, bit for bit.

A spy wraps :meth:`PortalPassSimulator._evaluate_tag` and, for every
call, rebuilds the link budget from public pieces — the obstruction
ray-trace, a fresh :class:`LinkGeometry`, a fading draw from a freshly
derived seeded stream, and ``evaluate_link`` with the reflection bonus
and the fault loss applied at the reader port. The cached result must
equal that reference exactly; a short-circuited evaluation (``None``)
must be one the reference leaves un-energized.
"""

import pytest

from repro.core.calibration import PaperSetup
from repro.faults import FaultPlan, ReaderCrash
from repro.rf.link import LinkGeometry, evaluate_link
from repro.sim.rng import SeedSequence
from repro.world.objects import BoxFace
from repro.world.portal import (
    dual_antenna_portal,
    dual_reader_portal,
    failover_portal,
    single_antenna_portal,
)
from repro.world.scenarios.human_tracking import build_walk
from repro.world.scenarios.object_tracking import build_box_cart
from repro.world.scenarios.read_range import build_tag_plane
from repro.world.simulation import PassLinkCache, PortalPassSimulator


def _sim(portal):
    setup = PaperSetup()
    return PortalPassSimulator(portal=portal, env=setup.env, params=setup.params)


def _reference(
    sim,
    carriers,
    carrier,
    tag,
    antenna,
    reader,
    t,
    shadowing_db,
    coupling_db,
    interference_dbm,
    fault_loss_db,
    root_seed,
    trial,
):
    """The scalar link budget for one read attempt, built from scratch."""
    tag_pos = carrier.tag_world_position(tag, t)
    obstruction_db, reflector = sim._obstruction_db(
        carriers, antenna.position, tag_pos, t
    )
    geometry = LinkGeometry(
        antenna_position=antenna.position,
        antenna_boresight=antenna.boresight,
        tag_position=tag_pos,
        tag_axis=tag.world_dipole_axis(),
    )
    tag_gain_override = None
    if tag.design is not None:
        tag_gain_override = tag.pattern_gain_dbi(-geometry.direction)
    cell = sim.params.fading_coherence_m
    fading_rng = SeedSequence(root_seed).trial_stream(
        f"fading:{reader.reader_id}:{antenna.antenna_id}:{tag.epc}:"
        f"{int(tag_pos.x // cell)}:{int(tag_pos.y // cell)}:"
        f"{int(tag_pos.z // cell)}",
        trial,
    )
    fading_gain = sim.env.channel.fading.degraded(
        obstruction_db * sim.params.k_penalty_per_obstruction
    ).sample_power_gain(fading_rng)
    gain_bonus = sim.params.reflection_gain_db if reflector else 0.0
    return evaluate_link(
        sim.env,
        reader.tx_power_dbm + gain_bonus - fault_loss_db,
        geometry,
        obstruction_loss_db=obstruction_db,
        tag_detuning_db=tag.detuning_db(),
        coupling_penalty_db=coupling_db,
        shadowing_db=shadowing_db,
        fading_power_gain=fading_gain,
        interference_dbm=interference_dbm,
        tag_gain_override_dbi=tag_gain_override,
    )


@pytest.fixture
def spy(monkeypatch):
    """Check every ``_evaluate_tag`` call against the scalar reference;
    yields a tally of ``evaluations`` and ``short_circuits``."""
    original = PortalPassSimulator._evaluate_tag
    tally = {"evaluations": 0, "short_circuits": 0}

    def checked(self, *args):
        got = original(self, *args)
        # The simulator passes every argument positionally.
        (
            _cache,
            carriers,
            carrier,
            tag,
            antenna,
            reader,
            t,
            shadowing_db,
            _detuning_db,
            coupling_db,
            interference_dbm,
            fault_loss_db,
            seeds,
            trial,
            *_rec,
        ) = args
        reference = _reference(
            self,
            carriers,
            carrier,
            tag,
            antenna,
            reader,
            t,
            shadowing_db,
            coupling_db,
            interference_dbm,
            fault_loss_db,
            seeds.root_seed,
            trial,
        )
        tally["evaluations"] += 1
        if got is None:
            tally["short_circuits"] += 1
            assert not reference.activated, (tag.epc, antenna.antenna_id, t)
        else:
            assert got == reference, (tag.epc, antenna.antenna_id, t)
        return got

    monkeypatch.setattr(PortalPassSimulator, "_evaluate_tag", checked)
    return tally


def _run(portal, carriers, trials=2, fault_plan=None):
    """Run seeded passes; return the last pass's cache counters."""
    sim = _sim(portal)
    seeds = SeedSequence(20070625)
    for trial in range(trials):
        result = sim.run_pass(carriers, seeds, trial, fault_plan=fault_plan)
    assert result.cache_stats is not None
    return result.cache_stats


class TestEveryEvaluationMatchesScalarReference:
    def test_moving_box_cart(self, spy):
        carrier, _ = build_box_cart([BoxFace.FRONT], box_count=4)
        stats = _run(single_antenna_portal(), [carrier])
        assert spy["evaluations"] > 0
        assert stats["fading_misses"] > 0
        # Rounds are much shorter than the fading coherence distance at
        # cart speed, so repeated draws in the same cell must hit.
        assert stats["fading_hits"] > stats["fading_misses"]

    def test_stationary_plane_hits_geometry_cache(self, spy):
        carrier = build_tag_plane(3.0)
        stats = _run(single_antenna_portal(), [carrier], trials=1)
        assert spy["evaluations"] > 0
        # A stationary carrier revisits the same position every round:
        # after the first round every geometry lookup must hit.
        assert stats["geometry_hits"] > 0

    def test_two_subject_walk(self, spy):
        carrier, _ = build_walk(2, ["front", "back"])
        _run(single_antenna_portal(), [carrier])
        assert spy["evaluations"] > 0

    def test_dual_antenna_cart(self, spy):
        carrier, _ = build_box_cart(
            [BoxFace.FRONT, BoxFace.SIDE_CLOSER], box_count=2
        )
        _run(dual_antenna_portal(), [carrier])
        assert spy["evaluations"] > 0

    def test_dual_reader_interference(self, spy):
        carrier, _ = build_walk(1, ["front"])
        _run(dual_reader_portal(dense_reader_mode=False), [carrier])
        assert spy["evaluations"] > 0

    def test_failover_crash(self, spy):
        carrier, _ = build_walk(1, ["front"])
        duration = carrier.motion.duration_s
        plan = FaultPlan(
            crashes=(ReaderCrash("reader-0", 0.05 * duration, None),)
        )
        _run(failover_portal(), [carrier], fault_plan=plan)
        assert spy["evaluations"] > 0

    def test_stationary_plane_mux_takeover(self, spy):
        # A stationary tag keeps its fading cell, so after the crash the
        # backup reader evaluates the very (antenna, tag, cell) links the
        # primary drove: the fading memo must still key on the reader.
        carrier = build_tag_plane(3.0)
        plan = FaultPlan(crashes=(ReaderCrash("reader-0", 0.1, None),))
        _run(failover_portal(), [carrier], trials=1, fault_plan=plan)
        assert spy["evaluations"] > 0

    def test_short_circuit_fires_on_far_side_cart(self, spy):
        # 9 m with metal-content boxes: most dwells cannot possibly
        # energize the far tags, so the short-circuit must engage.
        carrier, _ = build_box_cart([BoxFace.SIDE_FARTHER], box_count=4)
        stats = _run(single_antenna_portal(), [carrier], trials=1)
        assert stats["short_circuits"] > 0
        assert spy["short_circuits"] == stats["short_circuits"]


class TestCacheObject:
    def test_stats_shape(self):
        cache = PassLinkCache()
        stats = cache.stats()
        assert set(stats) == {
            "geometry_hits",
            "geometry_misses",
            "fading_hits",
            "fading_misses",
            "short_circuits",
        }
        assert all(v == 0 for v in stats.values())

    def test_counters_ride_on_each_pass_result(self):
        # Each pass reports its own counters, not a running total, and
        # the simulator keeps no copy of them.
        carrier = build_tag_plane(3.0)
        sim = _sim(single_antenna_portal())
        seeds = SeedSequence(20070625)
        first = sim.run_pass([carrier], seeds, 0).cache_stats
        sim.run_pass([carrier], seeds, 1)
        assert sim.run_pass([carrier], seeds, 0).cache_stats == first
        assert first["geometry_misses"] > 0
        assert not hasattr(sim, "_last_cache_stats")
