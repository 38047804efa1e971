"""One test per miss cause: each enum value has a reproducible recipe.

Every missed tag in a recorded pass carries *exactly one*
:class:`~repro.obs.records.MissCause`. These tests pin a deterministic
scenario for each value so the attribution precedence in
``PassRecording._attribute`` stays honest; the Hypothesis property
tests then randomize each recipe's regime (seeds, geometry, hardware
knobs) and assert the causes stay **mutually exclusive and
exhaustive** — every missed tag exactly one cause, every read tag
none — plus the consistency each cause promises (a COLLISION tag saw
collision slots, an UNDER_ENERGIZED margin sits inside the fading
head-room, ...).
"""

from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.calibration import PaperSetup
from repro.faults.plan import AntennaFault, FaultPlan
from repro.obs import MissCause, Recorder
from repro.protocol.epc import EpcFactory
from repro.rf.geometry import Vec3
from repro.sim.rng import SeedSequence
from repro.world.motion import StationaryPlacement
from repro.world.portal import single_antenna_portal
from repro.world.simulation import (
    MAX_FADING_HEADROOM_DB,
    CarrierGroup,
    PortalPassSimulator,
)
from repro.world.tags import Tag, TagOrientation

SETUP = PaperSetup()


def _tag(epc, y=1.0, z=0.0):
    return Tag(
        epc=epc,
        local_position=Vec3(0.0, y, z),
        orientation=TagOrientation.CASE_2_HORIZONTAL_FACING,
    )


def _stationary(tags, z, duration_s=0.5):
    return CarrierGroup(
        motion=StationaryPlacement(Vec3(0.0, 0.0, z), duration_s=duration_s),
        tags=tags,
    )


def _run(carrier, params=None, env=None, fault_plan=None, seed=11, trial=0):
    recorder = Recorder()
    sim = PortalPassSimulator(
        portal=single_antenna_portal(),
        env=env or SETUP.env,
        params=params or SETUP.params,
        recorder=recorder,
    )
    result = sim.run_pass(
        [carrier], SeedSequence(seed), trial, fault_plan=fault_plan
    )
    return result, result.obs


def _epcs(n):
    factory = EpcFactory()
    return [factory.next_epc().to_hex() for _ in range(n)]


def _assert_margin_explains_miss(outcome):
    """A tag no dwell energized is UNDER_ENERGIZED exactly when its best
    no-fade margin sits inside the fading head-room, and OUT_OF_ZONE
    exactly when it does not."""
    assert outcome.cause in (
        MissCause.UNDER_ENERGIZED,
        MissCause.OUT_OF_ZONE,
    )
    margin = outcome.best_no_fade_margin_db
    assert margin is not None and margin < 0.0
    within_headroom = margin + MAX_FADING_HEADROOM_DB >= 0.0
    if outcome.cause is MissCause.UNDER_ENERGIZED:
        assert within_headroom
        assert outcome.energized_dwells == 0
    else:
        assert not within_headroom


def test_collision():
    """One-slot frames + no capture: two in-zone tags collide forever."""
    params = replace(
        SETUP.params, q_initial=0, q_max=0, capture_probability=0.0
    )
    a, b = _epcs(2)
    carrier = _stationary([_tag(a), _tag(b, z=0.1)], z=0.5)
    result, obs = _run(carrier, params=params)
    assert not result.read_epcs
    causes = obs.miss_causes()
    assert causes[a] is MissCause.COLLISION
    assert causes[b] is MissCause.COLLISION
    for outcome in obs.tag_outcomes:
        assert outcome.collision_slots > 0


def test_not_inventoried():
    """Deaf reader: the tag energizes and replies, nothing decodes."""
    env = replace(SETUP.env, reader_sensitivity_dbm=-10.0)
    (epc,) = _epcs(1)
    result, obs = _run(_stationary([_tag(epc)], z=0.5), env=env)
    assert not result.read_epcs
    assert obs.miss_causes()[epc] is MissCause.NOT_INVENTORIED
    outcome = obs.outcome_for(epc)
    assert outcome.energized_dwells > 0
    assert outcome.solo_garbled_slots > 0


def test_fault_masked():
    """A silent antenna port masks every dwell of a readable tag."""
    plan = FaultPlan(
        antenna_faults=(AntennaFault("reader-0", "ant-0", start_s=0.0),)
    )
    (epc,) = _epcs(1)
    result, obs = _run(_stationary([_tag(epc)], z=0.5), fault_plan=plan)
    assert not result.read_epcs
    assert obs.miss_causes()[epc] is MissCause.FAULT_MASKED
    assert obs.masked_dwells
    assert all(m.reason == "antenna_silent" for m in obs.masked_dwells)


def test_under_energized():
    """Negative margin, but within fading head-room: an unlucky draw."""
    (epc,) = _epcs(1)
    result, obs = _run(_stationary([_tag(epc)], z=30.0))
    assert not result.read_epcs
    assert obs.miss_causes()[epc] is MissCause.UNDER_ENERGIZED
    outcome = obs.outcome_for(epc)
    assert outcome.energized_dwells == 0
    assert outcome.best_no_fade_margin_db is not None
    assert outcome.best_no_fade_margin_db < 0.0


def test_out_of_zone():
    """Far beyond the head-room: no draw could ever close the link."""
    (epc,) = _epcs(1)
    result, obs = _run(_stationary([_tag(epc)], z=100.0))
    assert not result.read_epcs
    assert obs.miss_causes()[epc] is MissCause.OUT_OF_ZONE


def test_every_miss_has_exactly_one_cause():
    """Read tags carry no cause; missed tags carry exactly one."""
    params = replace(
        SETUP.params, q_initial=0, q_max=0, capture_probability=0.0
    )
    a, b, c = _epcs(3)
    near = _stationary([_tag(a), _tag(b, z=0.1)], z=0.5)
    far = _stationary([_tag(c)], z=100.0)
    recorder = Recorder()
    sim = PortalPassSimulator(
        portal=single_antenna_portal(), env=SETUP.env, params=params,
        recorder=recorder,
    )
    result = sim.run_pass([near, far], SeedSequence(11), 0)
    obs = result.obs
    assert len(obs.tag_outcomes) == 3
    for outcome in obs.tag_outcomes:
        if outcome.read:
            assert outcome.cause is None
        else:
            assert isinstance(outcome.cause, MissCause)


# --------------------------------------------------------------------
# Hypothesis properties: one per MissCause, randomizing each recipe's
# regime while asserting mutual exclusion + exhaustiveness every time.
# --------------------------------------------------------------------

_seeds = st.integers(min_value=0, max_value=2**31 - 1)
_few_examples = settings(max_examples=10, deadline=None)


def _assert_partition(obs):
    """Causes partition the misses: read tags carry no cause, missed
    tags exactly one, and ``miss_causes()`` agrees with the outcomes."""
    causes = obs.miss_causes()
    missed = set()
    for outcome in obs.tag_outcomes:
        if outcome.read:
            assert outcome.cause is None
            assert outcome.epc not in causes
        else:
            missed.add(outcome.epc)
            assert isinstance(outcome.cause, MissCause)
            assert causes[outcome.epc] is outcome.cause
    assert set(causes) == missed
    assert all(isinstance(c, MissCause) for c in causes.values())


class TestMissCauseProperties:
    @given(seed=_seeds, offset=st.floats(0.05, 0.3), z=st.floats(0.4, 0.9))
    @_few_examples
    def test_collision(self, seed, offset, z):
        """One-slot frames, no capture: any miss is a COLLISION, and a
        COLLISION tag always saw at least one colliding slot."""
        params = replace(
            SETUP.params, q_initial=0, q_max=0, capture_probability=0.0
        )
        a, b = _epcs(2)
        carrier = _stationary([_tag(a), _tag(b, z=offset)], z=z)
        _, obs = _run(carrier, params=params, seed=seed)
        _assert_partition(obs)
        for outcome in obs.tag_outcomes:
            if outcome.cause is MissCause.COLLISION:
                assert outcome.collision_slots > 0

    @given(
        seed=_seeds,
        sensitivity=st.floats(-20.0, -5.0),
        z=st.floats(0.3, 0.9),
    )
    @_few_examples
    def test_not_inventoried(self, seed, sensitivity, z):
        """A deaf reader never demotes the miss below NOT_INVENTORIED:
        the tag energized, so energization causes cannot apply."""
        env = replace(SETUP.env, reader_sensitivity_dbm=sensitivity)
        (epc,) = _epcs(1)
        _, obs = _run(_stationary([_tag(epc)], z=z), env=env, seed=seed)
        _assert_partition(obs)
        for outcome in obs.tag_outcomes:
            if outcome.cause is MissCause.NOT_INVENTORIED:
                assert outcome.energized_dwells > 0

    @given(seed=_seeds, z=st.floats(0.3, 1.5), n_tags=st.integers(1, 3))
    @_few_examples
    def test_fault_masked(self, seed, z, n_tags):
        """A whole-pass silent antenna masks every dwell: all tags are
        missed, and FAULT_MASKED wins over every energization cause."""
        plan = FaultPlan(
            antenna_faults=(AntennaFault("reader-0", "ant-0", start_s=0.0),)
        )
        tags = [_tag(epc, z=0.1 * i) for i, epc in enumerate(_epcs(n_tags))]
        result, obs = _run(
            _stationary(tags, z=z), fault_plan=plan, seed=seed
        )
        _assert_partition(obs)
        assert not result.read_epcs
        causes = obs.miss_causes()
        assert len(causes) == n_tags
        assert set(causes.values()) == {MissCause.FAULT_MASKED}

    @given(seed=_seeds, z=st.floats(26.0, 34.0))
    @_few_examples
    def test_under_energized(self, seed, z):
        """Near the energization cliff, a miss is UNDER_ENERGIZED
        exactly when the best no-fade margin sits inside the fading
        head-room — and OUT_OF_ZONE exactly when it does not."""
        (epc,) = _epcs(1)
        _, obs = _run(_stationary([_tag(epc)], z=z), seed=seed)
        _assert_partition(obs)
        outcome = obs.outcome_for(epc)
        if outcome.cause is None:
            return  # a lucky fading draw closed the link
        _assert_margin_explains_miss(outcome)

    @given(seed=_seeds, z=st.floats(100.0, 200.0))
    @example(seed=807622668, z=100.0)
    @_few_examples
    def test_out_of_zone(self, seed, z):
        """Far from the portal no dwell energizes the tag, and it is
        OUT_OF_ZONE unless shadowing leaves its best no-fade margin
        inside the head-room (seed 807622668 at 100 m: -19.9 dB), where
        UNDER_ENERGIZED is right."""
        (epc,) = _epcs(1)
        result, obs = _run(_stationary([_tag(epc)], z=z), seed=seed)
        _assert_partition(obs)
        assert not result.read_epcs
        outcome = obs.outcome_for(epc)
        _assert_margin_explains_miss(outcome)
        assert outcome.energized_dwells == 0

    @given(seed=_seeds, near_z=st.floats(0.4, 0.8), far_z=st.floats(90.0, 150.0))
    @example(seed=48175206, near_z=0.4, far_z=90.0)
    @_few_examples
    def test_mixed_pass_is_exhaustive(self, seed, near_z, far_z):
        """A pass mixing colliding, readable, and unreachable tags still
        partitions cleanly: every tag either read or exactly one cause.
        The far tag is missed, but not always OUT_OF_ZONE: at 90 m some
        seeds leave its best no-fade margin inside the fading head-room
        (seed 48175206: -19.2 dB), where UNDER_ENERGIZED is right."""
        params = replace(
            SETUP.params, q_initial=0, q_max=0, capture_probability=0.0
        )
        a, b, c = _epcs(3)
        near = _stationary([_tag(a), _tag(b, z=0.1)], z=near_z)
        far = _stationary([_tag(c)], z=far_z)
        recorder = Recorder()
        sim = PortalPassSimulator(
            portal=single_antenna_portal(),
            env=SETUP.env,
            params=params,
            recorder=recorder,
        )
        result = sim.run_pass([near, far], SeedSequence(seed), 0)
        obs = result.obs
        _assert_partition(obs)
        assert len(obs.tag_outcomes) == 3
        _assert_margin_explains_miss(obs.outcome_for(c))
