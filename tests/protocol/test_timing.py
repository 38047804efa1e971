"""Tests for Gen 2 air-interface timing."""

import pytest

from repro.protocol.timing import (
    DEFAULT_TIMING,
    PAPER_SECONDS_PER_TAG,
    Gen2Timing,
)


class TestValidation:
    def test_default_is_valid(self):
        assert DEFAULT_TIMING.tari_s == 25e-6
        assert DEFAULT_TIMING.tag_encoding_symbols_per_bit == 4

    def test_bad_tari(self):
        with pytest.raises(ValueError):
            Gen2Timing(tari_s=0.0)

    def test_bad_blf(self):
        with pytest.raises(ValueError):
            Gen2Timing(blf_hz=-1.0)

    def test_bad_encoding(self):
        with pytest.raises(ValueError):
            Gen2Timing(tag_encoding_symbols_per_bit=3)


class TestDurations:
    def test_slot_ordering(self):
        # Success costs the most airtime, empties the least.
        t = DEFAULT_TIMING
        assert t.empty_slot_s < t.collision_slot_s < t.success_slot_s

    def test_all_durations_positive(self):
        t = DEFAULT_TIMING
        for value in (
            t.query_s,
            t.query_rep_s,
            t.ack_s,
            t.rn16_s,
            t.epc_reply_s,
            t.t1_s,
            t.t2_s,
        ):
            assert value > 0.0

    def test_epc_reply_longer_than_rn16(self):
        assert DEFAULT_TIMING.epc_reply_s > DEFAULT_TIMING.rn16_s

    def test_miller_slows_tag_replies(self):
        fm0 = Gen2Timing(tag_encoding_symbols_per_bit=1)
        miller4 = Gen2Timing(tag_encoding_symbols_per_bit=4)
        assert miller4.rn16_s > fm0.rn16_s

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMING.reader_command_s(-1)
        with pytest.raises(ValueError):
            DEFAULT_TIMING.tag_reply_s(-1)

    def test_success_slot_in_low_milliseconds(self):
        # A full Miller-4 singulation is on the order of 2-10 ms.
        assert 1e-3 < DEFAULT_TIMING.success_slot_s < 10e-3


class TestRoundDuration:
    def test_additive(self):
        t = DEFAULT_TIMING
        total = t.round_duration_s(empty=3, collisions=2, successes=1)
        expected = (
            t.query_s
            + 3 * t.empty_slot_s
            + 2 * t.collision_slot_s
            + 1 * t.success_slot_s
        )
        assert total == pytest.approx(expected)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMING.round_duration_s(-1, 0, 0)


class TestThroughput:
    def test_matches_paper_rule_of_thumb(self):
        """The paper budgets ~0.02 s per tag; the default timing profile
        must land in that neighbourhood (within 2x either way)."""
        rate = DEFAULT_TIMING.effective_read_rate_tags_per_s()
        seconds_per_tag = 1.0 / rate
        assert (
            PAPER_SECONDS_PER_TAG / 2.5
            <= seconds_per_tag
            <= PAPER_SECONDS_PER_TAG * 2.0
        )

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMING.effective_read_rate_tags_per_s(0.0)
        with pytest.raises(ValueError):
            DEFAULT_TIMING.effective_read_rate_tags_per_s(1.5)

    def test_higher_efficiency_higher_rate(self):
        low = DEFAULT_TIMING.effective_read_rate_tags_per_s(0.2)
        high = DEFAULT_TIMING.effective_read_rate_tags_per_s(0.4)
        assert high > low


class TestFirstPrinciples:
    FM0_256K = Gen2Timing(tari_s=25e-6, blf_hz=256e3, tag_encoding_symbols_per_bit=1)

    @pytest.mark.parametrize("symbols", [1, 2, 4, 8])
    def test_tag_bit_is_symbols_over_blf(self, symbols):
        timing = Gen2Timing(blf_hz=128e3, tag_encoding_symbols_per_bit=symbols)
        assert timing.tag_bit_s == pytest.approx(symbols / 128e3)

    def test_reader_bit_is_mean_of_data0_and_data1(self):
        assert self.FM0_256K.reader_bit_s == pytest.approx(1.375 * 25e-6)

    def test_query_airtime(self):
        # 12.5 Tari preamble plus 22 bits (command, parameters, CRC-5).
        expected = 12.5 * 25e-6 + 22 * 1.375 * 25e-6
        assert self.FM0_256K.query_s == pytest.approx(expected)

    def test_fm0_reply_has_six_bit_preamble(self):
        assert self.FM0_256K.rn16_s == pytest.approx((16 + 6) / 256e3)

    def test_miller_reply_has_ten_bit_preamble(self):
        assert DEFAULT_TIMING.rn16_s == pytest.approx((16 + 10) * 4 / 128e3)

    def test_epc_reply_is_128_bits(self):
        assert self.FM0_256K.epc_reply_s == pytest.approx((128 + 6) / 256e3)

    def test_t1_floor_at_fast_links(self):
        fast = Gen2Timing(blf_hz=640e3, tag_encoding_symbols_per_bit=1)
        assert 10.0 * fast.tag_bit_s < 25e-6
        assert fast.t1_s == pytest.approx(25e-6)

    def test_t1_scales_with_slow_links(self):
        assert DEFAULT_TIMING.t1_s == pytest.approx(10.0 * 4 / 128e3)

    def test_empty_round_is_one_query(self):
        assert DEFAULT_TIMING.round_duration_s(0, 0, 0) == DEFAULT_TIMING.query_s

    def test_default_singulation_fits_paper_budget(self):
        assert DEFAULT_TIMING.success_slot_s < PAPER_SECONDS_PER_TAG

    def test_full_efficiency_rate_is_one_success_per_slot(self):
        rate = DEFAULT_TIMING.effective_read_rate_tags_per_s(1.0)
        assert rate == pytest.approx(1.0 / DEFAULT_TIMING.success_slot_s)
