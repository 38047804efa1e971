"""Tests for motion profiles and portal construction."""

import pytest

from repro.rf.geometry import Vec3
from repro.world.motion import (
    PAPER_LANE_DISTANCE_M,
    PAPER_PASS_SPEED_MPS,
    LinearPass,
    StationaryPlacement,
)
from repro.world.portal import (
    AntennaInstallation,
    Portal,
    ReaderAssignment,
    dual_antenna_portal,
    dual_reader_portal,
    single_antenna_portal,
)


class TestLinearPass:
    def test_position_interpolates(self):
        walk = LinearPass(Vec3(0, 0, 1), Vec3(1, 0, 0), duration_s=4.0)
        assert walk.position_at(2.0).is_close(Vec3(2, 0, 1))

    def test_clamped_to_window(self):
        walk = LinearPass(Vec3(0, 0, 1), Vec3(1, 0, 0), duration_s=4.0)
        assert walk.position_at(-1.0).is_close(Vec3(0, 0, 1))
        assert walk.position_at(99.0).is_close(walk.end_position)

    def test_speed(self):
        walk = LinearPass(Vec3.zero(), Vec3(3, 0, 4), duration_s=1.0)
        assert walk.speed_mps == pytest.approx(5.0)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            LinearPass(Vec3.zero(), Vec3.unit_x(), duration_s=0.0)

    def test_centered_lane_pass_geometry(self):
        walk = LinearPass.centered_lane_pass(
            lane_distance_m=1.0, speed_mps=1.0, half_span_m=2.0, height_m=0.0
        )
        assert walk.duration_s == pytest.approx(4.0)
        assert walk.position_at(0.0).x == pytest.approx(-2.0)
        # Midpoint of the pass is abeam of the antenna (x=0).
        assert walk.position_at(2.0).x == pytest.approx(0.0)
        assert walk.position_at(2.0).z == pytest.approx(1.0)

    def test_centered_lane_pass_validation(self):
        with pytest.raises(ValueError):
            LinearPass.centered_lane_pass(lane_distance_m=0.0)
        with pytest.raises(ValueError):
            LinearPass.centered_lane_pass(speed_mps=-1.0)
        with pytest.raises(ValueError):
            LinearPass.centered_lane_pass(half_span_m=0.0)

    def test_faster_pass_shorter_duration(self):
        slow = LinearPass.centered_lane_pass(speed_mps=0.5)
        fast = LinearPass.centered_lane_pass(speed_mps=2.0)
        assert fast.duration_s < slow.duration_s


    def test_paper_defaults(self):
        # Section 3: carts and walkers pass at ~1 m/s, 1 m from the antenna.
        walk = LinearPass.centered_lane_pass()
        assert walk.speed_mps == pytest.approx(PAPER_PASS_SPEED_MPS) == 1.0
        assert walk.start_position.z == pytest.approx(PAPER_LANE_DISTANCE_M) == 1.0
        assert walk.duration_s == pytest.approx(4.0)

    def test_lane_distance_and_height_constant_along_pass(self):
        walk = LinearPass.centered_lane_pass(lane_distance_m=1.5, height_m=0.8)
        for t in (0.0, 1.0, 2.5, walk.duration_s):
            position = walk.position_at(t)
            assert (position.y, position.z) == pytest.approx((0.8, 1.5))

    def test_pass_ends_half_span_past_antenna(self):
        walk = LinearPass.centered_lane_pass(half_span_m=3.0, speed_mps=1.5)
        assert walk.end_position.x == pytest.approx(3.0)
        assert walk.duration_s == pytest.approx(4.0)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 4.0])
    def test_distance_travelled_is_speed_times_time(self, t):
        walk = LinearPass(Vec3(1, 2, 3), Vec3(0, 2, 0), duration_s=4.0)
        assert (walk.position_at(t) - walk.start_position).norm() == pytest.approx(
            2.0 * t
        )

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            LinearPass(Vec3.zero(), Vec3.unit_x(), duration_s=-1.0)


class TestStationary:
    def test_position_constant(self):
        placement = StationaryPlacement(Vec3(1, 2, 3), duration_s=1.0)
        assert placement.position_at(0.0).is_close(Vec3(1, 2, 3))
        assert placement.position_at(100.0).is_close(Vec3(1, 2, 3))


class TestPortals:
    def test_single_antenna(self):
        portal = single_antenna_portal()
        assert portal.antenna_count == 1
        assert portal.reader_count == 1
        assert portal.all_antennas[0].boresight.is_close(Vec3.unit_z())

    def test_dual_antenna_same_reader(self):
        portal = dual_antenna_portal(spacing_m=2.0)
        assert portal.antenna_count == 2
        assert portal.reader_count == 1
        a0, a1 = portal.all_antennas
        assert a0.position.distance_to(a1.position) == pytest.approx(2.0)

    def test_dual_reader(self):
        portal = dual_reader_portal()
        assert portal.reader_count == 2
        assert portal.antenna_count == 2
        assert not portal.readers[0].dense_reader_mode

    def test_dual_reader_with_drm(self):
        portal = dual_reader_portal(dense_reader_mode=True)
        assert all(r.dense_reader_mode for r in portal.readers)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            dual_antenna_portal(spacing_m=0.0)
        with pytest.raises(ValueError):
            dual_reader_portal(spacing_m=-1.0)

    def test_duplicate_reader_ids_rejected(self):
        antenna_a = AntennaInstallation("x0", Vec3(0, 1, 0), Vec3.unit_z())
        antenna_b = AntennaInstallation("x1", Vec3(1, 1, 0), Vec3.unit_z())
        with pytest.raises(ValueError):
            Portal(
                readers=(
                    ReaderAssignment("r", (antenna_a,)),
                    ReaderAssignment("r", (antenna_b,)),
                )
            )

    def test_duplicate_antenna_ids_rejected(self):
        antenna_a = AntennaInstallation("x", Vec3(0, 1, 0), Vec3.unit_z())
        antenna_b = AntennaInstallation("x", Vec3(1, 1, 0), Vec3.unit_z())
        with pytest.raises(ValueError):
            Portal(
                readers=(
                    ReaderAssignment("r0", (antenna_a,)),
                    ReaderAssignment("r1", (antenna_b,)),
                )
            )

    def test_reader_needs_antennas(self):
        with pytest.raises(ValueError):
            ReaderAssignment("r0", ())

    def test_power_bounds(self):
        antenna = AntennaInstallation("a", Vec3(0, 1, 0), Vec3.unit_z())
        with pytest.raises(ValueError):
            ReaderAssignment("r0", (antenna,), tx_power_dbm=50.0)

    def test_zero_boresight_rejected(self):
        with pytest.raises(ValueError):
            AntennaInstallation("a", Vec3(0, 1, 0), Vec3.zero())

    def test_empty_portal_rejected(self):
        with pytest.raises(ValueError):
            Portal(readers=())
