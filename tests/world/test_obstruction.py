"""The occlusion ray-trace must equal the plain scalar loop, bit for bit.

:meth:`PortalPassSimulator._obstruction_db` reads occluder centres from
a per-round frame and skips the chord test wherever the ray-sphere
discriminant is not positive. :func:`reference_obstruction_db` below is
the loop it replaced: one motion query and one full
:func:`segment_sphere_chord_length` per (tag, occluder), then the
reflector test for every occluder the ray does not cross. The two must
return the same ``(loss_db, reflector_behind)`` on any scene, the
degenerate ones included.
"""

import math
from dataclasses import dataclass
from typing import Tuple

from hypothesis import example, given, strategies as st

from repro.rf.geometry import Vec3, segment_sphere_chord_length
from repro.rf.materials import BODY, CARDBOARD, LIQUID, METAL
from repro.world.motion import LinearPass, StationaryPlacement
from repro.world.portal import single_antenna_portal
from repro.world.simulation import (
    CarrierGroup,
    Occluder,
    PassLinkCache,
    PortalPassSimulator,
    SimulationParameters,
    occluder_frame,
)

PARAMS = SimulationParameters()
#: Without the cap, a metal chord would hide the sum behind it.
UNCAPPED = SimulationParameters(obstruction_cap_db=math.inf)


def reference_obstruction_db(params, carriers, antenna_pos, tag_pos, t):
    """The scalar occlusion loop: every occluder, every chord."""
    total = 0.0
    reflector_behind = False
    ray_dir = tag_pos - antenna_pos
    ray_len = ray_dir.norm()
    if ray_len < 1e-9:
        return 0.0, False
    ray_unit = ray_dir / ray_len
    for carrier in carriers:
        for occluder in carrier.occluders:
            centre = carrier.motion.position_at(t) + occluder.centre
            chord = segment_sphere_chord_length(
                antenna_pos, tag_pos, centre, occluder.radius_m
            )
            if chord > 0.0:
                total += occluder.material.through_loss_db(chord)
            elif occluder.reflective:
                # Is the occluder behind the tag along the ray?
                along = (centre - antenna_pos).dot(ray_unit)
                lateral = (
                    (centre - antenna_pos) - ray_unit * along
                ).norm()
                behind_by = along - ray_len
                if (
                    0.0 < behind_by <= params.reflection_range_m
                    and lateral <= occluder.radius_m + 0.3
                ):
                    reflector_behind = True
    return min(total, params.obstruction_cap_db), reflector_behind


@dataclass(frozen=True)
class Scene:
    carriers: Tuple[CarrierGroup, ...]
    antenna: Vec3
    tag: Vec3
    t: float


def _still(antenna, tag, *occluders):
    """One stationary carrier at the origin, so local centres are world."""
    carrier = CarrierGroup(
        motion=StationaryPlacement(Vec3(0.0, 0.0, 0.0)), occluders=list(occluders)
    )
    return Scene((carrier,), antenna, tag, 0.0)


def _ball(x, y, z, radius, material=METAL, reflective=False):
    return Occluder(Vec3(x, y, z), radius, material, reflective)


def _discriminant(antenna, tag, centre, radius):
    """``b*b - c`` exactly as :func:`segment_sphere_chord_length` forms it."""
    d = tag - antenna
    u = d / d.norm()
    oc = antenna - centre
    b = oc.dot(u)
    return b * b - (oc.dot(oc) - radius * radius)


ORIGIN = Vec3(0.0, 0.0, 0.0)
#: b*b - c == 0.0 exactly: the ray grazes the sphere at one point.
TANGENT = _still(ORIGIN, Vec3(4.0, 0.0, 0.0), _ball(2.0, 1.0, 0.0, 1.0))
TAG_INSIDE = _still(
    Vec3(-3.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), _ball(1.1, 0.0, 0.0, 0.5)
)
ANTENNA_INSIDE = _still(
    ORIGIN, Vec3(3.0, 0.0, 0.0), _ball(0.1, 0.1, 0.0, 0.5, LIQUID)
)
#: Shorter than the 1e-9 m cut-off, with an occluder around both ends.
ZERO_RAY = _still(
    Vec3(1.0, 1.0, 1.0),
    Vec3(1.0 + 1e-10, 1.0, 1.0),
    _ball(1.0, 1.0, 1.0, 0.5, reflective=True),
)
#: The ray's line crosses the sphere (disc > 0), the segment does not.
BEHIND_ANTENNA = _still(
    ORIGIN, Vec3(3.0, 0.0, 0.0), _ball(-2.0, 0.0, 0.0, 0.5, BODY, reflective=True)
)
#: behind_by == reflection_range_m exactly (1.7 - 0.5 == 1.2 in binary
#: too), with a lateral offset the discriminant rejects: only the
#: reflector test, run for a rejected occluder, reports it.
REFLECTOR_AT_RANGE = _still(
    ORIGIN, Vec3(0.5, 0.0, 0.0), _ball(1.7, 0.5, 0.0, 0.3, BODY, reflective=True)
)
#: Four metal spheres on the ray: far above obstruction_cap_db.
OVER_CAP = _still(
    ORIGIN,
    Vec3(5.0, 0.0, 0.0),
    *(_ball(float(x), 0.05 * x, 0.0, 0.3) for x in range(1, 5)),
)

MATERIALS = (METAL, LIQUID, CARDBOARD, BODY)
coords = st.floats(min_value=-3.0, max_value=3.0)
points = st.builds(Vec3, coords, coords, coords)
offsets = st.floats(min_value=-0.6, max_value=0.6)
jitters = st.builds(Vec3, offsets, offsets, offsets)
speeds = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def scenes(draw):
    antenna = draw(points)
    tag = draw(points)
    t = draw(st.floats(min_value=0.0, max_value=5.0))
    count = draw(st.integers(min_value=1, max_value=2))
    carriers = []
    for _ in range(count):
        if draw(st.booleans()):
            motion = LinearPass(
                start_position=draw(points),
                velocity=draw(st.builds(Vec3, speeds, speeds, speeds)),
                duration_s=draw(st.floats(min_value=0.5, max_value=6.0)),
            )
        else:
            motion = StationaryPlacement(draw(points))
        origin = motion.position_at(t)
        occluders = []
        for _ in range(draw(st.integers(min_value=0, max_value=12 // count))):
            # Centre near the ray's line, from before the antenna to
            # past the tag, so hits, grazes and misses all turn up.
            s = draw(st.floats(min_value=-0.5, max_value=1.5))
            world = antenna + (tag - antenna) * s + draw(jitters)
            occluders.append(
                Occluder(
                    centre=world - origin,
                    radius_m=draw(st.floats(min_value=0.05, max_value=1.0)),
                    material=draw(st.sampled_from(MATERIALS)),
                    reflective=draw(st.booleans()),
                )
            )
        carriers.append(CarrierGroup(motion=motion, occluders=occluders))
    return Scene(tuple(carriers), antenna, tag, t)


def _exact(result):
    loss_db, reflector = result
    return loss_db.hex(), reflector


class TestMatchesScalarReference:
    @given(scene=scenes())
    @example(scene=TANGENT)
    @example(scene=TAG_INSIDE)
    @example(scene=ANTENNA_INSIDE)
    @example(scene=ZERO_RAY)
    @example(scene=BEHIND_ANTENNA)
    @example(scene=REFLECTOR_AT_RANGE)
    @example(scene=OVER_CAP)
    def test_bit_equal(self, scene):
        args = (scene.carriers, scene.antenna, scene.tag, scene.t)
        frame = PassLinkCache().occluders_at(scene.carriers, scene.t)
        for params in (PARAMS, UNCAPPED):
            sim = PortalPassSimulator(portal=single_antenna_portal(), params=params)
            expected = _exact(reference_obstruction_db(params, *args))
            # Frame built inside, as the active-tag model calls it ...
            assert _exact(sim._obstruction_db(*args)) == expected
            # ... and the per-round frame the pass loop hands in.
            assert _exact(sim._obstruction_db(*args, frame)) == expected


class TestEdgeCaseExamples:
    """The @example scenes really sit on the edges they are named for."""

    def test_tangent_discriminant_is_exactly_zero(self):
        (occluder,) = TANGENT.carriers[0].occluders
        assert _discriminant(
            TANGENT.antenna, TANGENT.tag, occluder.centre, occluder.radius_m
        ) == 0.0

    def test_behind_antenna_crosses_the_line_but_not_the_segment(self):
        (occluder,) = BEHIND_ANTENNA.carriers[0].occluders
        args = (BEHIND_ANTENNA.antenna, BEHIND_ANTENNA.tag, occluder.centre)
        assert _discriminant(*args, occluder.radius_m) > 0.0
        assert segment_sphere_chord_length(*args, occluder.radius_m) == 0.0

    def test_reflector_sits_exactly_at_range_and_is_rejected(self):
        scene = REFLECTOR_AT_RANGE
        (occluder,) = scene.carriers[0].occluders
        assert occluder.centre.x - scene.tag.x == PARAMS.reflection_range_m
        assert _discriminant(
            scene.antenna, scene.tag, occluder.centre, occluder.radius_m
        ) <= 0.0
        assert reference_obstruction_db(
            PARAMS, scene.carriers, scene.antenna, scene.tag, 0.0
        ) == (0.0, True)

    def test_over_cap_is_capped(self):
        scene = OVER_CAP
        loss_db, _ = reference_obstruction_db(
            PARAMS, scene.carriers, scene.antenna, scene.tag, 0.0
        )
        assert loss_db == PARAMS.obstruction_cap_db


class _CountingMotion:
    """A stationary motion that counts its position queries."""

    duration_s = 1.0

    def __init__(self):
        self.calls = 0

    def position_at(self, t):
        self.calls += 1
        return Vec3(t, 0.0, 0.0)


class TestOccluderFrame:
    def test_no_occluders_builds_nothing(self):
        motion = _CountingMotion()
        assert occluder_frame([CarrierGroup(motion=motion)], 0.5) == ()
        assert motion.calls == 0

    def test_one_motion_query_per_carrier(self):
        motion = _CountingMotion()
        carrier = CarrierGroup(
            motion=motion,
            occluders=[_ball(0.0, 1.0, 0.0, 0.2), _ball(0.0, 2.0, 0.0, 0.3)],
        )
        frame = occluder_frame([carrier], 0.5)
        assert motion.calls == 1
        assert [(x, y, z, r_sq) for x, y, z, r_sq, _, _ in frame] == [
            (0.5, 1.0, 0.0, 0.2 * 0.2),
            (0.5, 2.0, 0.0, 0.3 * 0.3),
        ]

    def test_cache_builds_one_frame_per_round_time(self):
        motion = _CountingMotion()
        carriers = [CarrierGroup(motion=motion, occluders=[_ball(0, 0, 0, 0.1)])]
        cache = PassLinkCache()
        first = cache.occluders_at(carriers, 0.25)
        assert cache.occluders_at(carriers, 0.25) is first
        assert motion.calls == 1
        assert cache.occluders_at(carriers, 0.5)[0][0] == 0.5
        assert motion.calls == 2
