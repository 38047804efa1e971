"""Unit tests for dB/power conversions and RF constants."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.rf import units


class TestDbConversions:
    def test_db_to_linear_zero(self):
        assert units.db_to_linear(0.0) == pytest.approx(1.0)

    def test_db_to_linear_ten(self):
        assert units.db_to_linear(10.0) == pytest.approx(10.0)

    def test_db_to_linear_negative(self):
        assert units.db_to_linear(-3.0) == pytest.approx(0.5012, abs=1e-3)

    def test_linear_to_db_unity(self):
        assert units.linear_to_db(1.0) == pytest.approx(0.0)

    def test_linear_to_db_rejects_zero(self):
        with pytest.raises(ValueError):
            units.linear_to_db(0.0)

    def test_linear_to_db_rejects_negative(self):
        with pytest.raises(ValueError):
            units.linear_to_db(-1.0)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_round_trip_db(self, db):
        assert units.linear_to_db(units.db_to_linear(db)) == pytest.approx(
            db, abs=1e-9
        )


class TestPowerConversions:
    def test_dbm_to_watts_30dbm_is_1w(self):
        assert units.dbm_to_watts(30.0) == pytest.approx(1.0)

    def test_dbm_to_watts_0dbm_is_1mw(self):
        assert units.dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_watts_to_dbm_1w(self):
        assert units.watts_to_dbm(1.0) == pytest.approx(30.0)

    def test_watts_to_dbm_rejects_zero(self):
        with pytest.raises(ValueError):
            units.watts_to_dbm(0.0)

    def test_milliwatts_round_trip(self):
        assert units.dbm_to_milliwatts(
            units.milliwatts_to_dbm(250.0)
        ) == pytest.approx(250.0)

    def test_milliwatts_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.milliwatts_to_dbm(0.0)

    @given(st.floats(min_value=-80.0, max_value=50.0))
    def test_round_trip_dbm(self, dbm):
        assert units.watts_to_dbm(units.dbm_to_watts(dbm)) == pytest.approx(
            dbm, abs=1e-9
        )

    def test_paper_reader_power_is_one_watt(self):
        assert units.dbm_to_watts(units.PAPER_READER_POWER_DBM) == pytest.approx(
            1.0
        )


class TestWavelength:
    def test_uhf_wavelength(self):
        # 915 MHz -> ~32.8 cm
        assert units.wavelength(units.UHF_RFID_FREQ_HZ) == pytest.approx(
            0.3276, abs=1e-3
        )

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            units.wavelength(0.0)


class TestFriis:
    def test_loss_increases_with_distance(self):
        g1 = units.friis_path_gain_db(1.0)
        g2 = units.friis_path_gain_db(2.0)
        assert g2 < g1

    def test_inverse_square_slope(self):
        # Doubling distance costs exactly 6.02 dB in free space.
        g1 = units.friis_path_gain_db(2.0)
        g2 = units.friis_path_gain_db(4.0)
        assert g1 - g2 == pytest.approx(6.0206, abs=1e-3)

    def test_known_value_at_1m_915mhz(self):
        # FSPL at 1 m, 915 MHz is ~31.7 dB.
        assert units.friis_path_gain_db(1.0) == pytest.approx(-31.67, abs=0.05)

    def test_clamps_tiny_distance(self):
        # Friis is far-field; the helper must not return +inf at d=0.
        assert math.isfinite(units.friis_path_gain_db(0.0))


class TestSumPowers:
    def test_equal_powers_add_3db(self):
        assert units.sum_powers_dbm(10.0, 10.0) == pytest.approx(13.01, abs=0.01)

    def test_single_power_is_identity(self):
        assert units.sum_powers_dbm(-40.0) == pytest.approx(-40.0)

    def test_dominant_power_wins(self):
        total = units.sum_powers_dbm(0.0, -40.0)
        assert total == pytest.approx(0.0, abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            units.sum_powers_dbm()

    @given(
        st.lists(
            st.floats(min_value=-80.0, max_value=40.0), min_size=1, max_size=6
        )
    )
    def test_sum_at_least_max(self, levels):
        # Incoherent sum can never be below the strongest component.
        assert units.sum_powers_dbm(*levels) >= max(levels) - 1e-9


class TestKnownValues:
    @pytest.mark.parametrize(
        "dbm, watts",
        [(-30.0, 1e-6), (0.0, 1e-3), (20.0, 0.1), (36.0, 3.981), (-13.5, 4.467e-5)],
    )
    def test_dbm_to_watts_table(self, dbm, watts):
        # 36 dBm is the FCC 4 W EIRP cap; -13.5 dBm the calibrated
        # 2006-era tag sensitivity.
        assert units.dbm_to_watts(dbm) == pytest.approx(watts, rel=1e-3)

    @pytest.mark.parametrize(
        "freq_hz, wavelength_m",
        [(866e6, 0.3462), (902e6, 0.3324), (928e6, 0.3231), (2.45e9, 0.1224)],
    )
    def test_wavelength_table(self, freq_hz, wavelength_m):
        assert units.wavelength(freq_hz) == pytest.approx(wavelength_m, abs=1e-4)

    def test_friis_never_positive(self):
        # The lambda/10 clamp sits beyond lambda/(4 pi), where the gain
        # would reach 0 dB, so the ceiling is 20 log10(10 / 4 pi) dB.
        lam = units.wavelength(units.UHF_RFID_FREQ_HZ)
        ceiling = 20.0 * math.log10(10.0 / (4.0 * math.pi))
        assert units.friis_path_gain_db(lam / (4.0 * math.pi)) == pytest.approx(
            ceiling
        )
        assert ceiling < 0.0

    def test_friis_clamp_is_a_tenth_of_a_wavelength(self):
        lam = units.wavelength(units.UHF_RFID_FREQ_HZ)
        assert units.friis_path_gain_db(0.0) == units.friis_path_gain_db(lam / 10.0)
        assert units.friis_path_gain_db(lam / 20.0) == units.friis_path_gain_db(
            lam / 10.0
        )

    def test_friis_falls_20db_per_decade(self):
        assert units.friis_path_gain_db(1.0) - units.friis_path_gain_db(
            10.0
        ) == pytest.approx(20.0)

    def test_higher_frequency_loses_more(self):
        assert units.friis_path_gain_db(3.0, 2.45e9) < units.friis_path_gain_db(
            3.0, 915e6
        )

    @given(
        st.lists(st.floats(min_value=-80.0, max_value=40.0), min_size=2, max_size=6)
    )
    def test_sum_powers_order_invariant(self, levels):
        assert units.sum_powers_dbm(*levels) == pytest.approx(
            units.sum_powers_dbm(*reversed(levels)), abs=1e-9
        )
