"""Tests for Gen 2 CRC-5/CRC-16 and bit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.protocol.crc import (
    CRC5_PRESET,
    CRC16_PRESET,
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    crc5,
    crc16,
    crc16_bytes,
    int_to_bits,
    verify_crc16,
)

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=200)


class TestBitHelpers:
    def test_bytes_to_bits(self):
        assert bytes_to_bits(b"\xa5") == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_bits_to_bytes(self):
        assert bits_to_bytes([1, 0, 1, 0, 0, 1, 0, 1]) == b"\xa5"

    def test_bits_to_bytes_needs_multiple_of_8(self):
        with pytest.raises(ValueError):
            bits_to_bytes([1, 0, 1])

    def test_int_to_bits(self):
        assert int_to_bits(5, 4) == [0, 1, 0, 1]

    def test_int_to_bits_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_int_to_bits_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_bits_to_int(self):
        assert bits_to_int([1, 0, 1, 1]) == 11

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2, 1])

    @given(st.binary(max_size=32))
    def test_bytes_round_trip(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_int_round_trip(self, value):
        assert bits_to_int(int_to_bits(value, 32)) == value


class TestCrc5:
    def test_deterministic(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        assert crc5(bits) == crc5(bits)

    def test_five_bit_output(self):
        for pattern in ([0] * 16, [1] * 16, [1, 0] * 8):
            assert 0 <= crc5(pattern) < 32

    def test_detects_single_bit_flip(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0]
        original = crc5(bits)
        for i in range(len(bits)):
            flipped = list(bits)
            flipped[i] ^= 1
            assert crc5(flipped) != original, f"missed flip at {i}"

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            crc5([0, 1, 2])


class TestCrc16:
    def test_sixteen_bit_output(self):
        assert 0 <= crc16(bytes_to_bits(b"hello")) <= 0xFFFF

    def test_known_epc_check_value(self):
        # CRC-16/GENIBUS (a.k.a. CRC-16/EPC, the Gen 2 variant:
        # MSB-first, preset 0xFFFF, complemented): check("123456789")
        # is 0xD64E.
        assert crc16_bytes(b"123456789") == 0xD64E

    def test_detects_single_bit_flip(self):
        bits = bytes_to_bits(b"\x30\x39\x60\x1e\xc4\x01")
        original = crc16(bits)
        for i in range(len(bits)):
            flipped = list(bits)
            flipped[i] ^= 1
            assert crc16(flipped) != original, f"missed flip at {i}"

    def test_verify_round_trip(self):
        bits = bytes_to_bits(b"\xde\xad\xbe\xef")
        assert verify_crc16(bits, crc16(bits))
        assert not verify_crc16(bits, crc16(bits) ^ 1)

    @given(bit_lists)
    def test_crc16_in_range(self, bits):
        assert 0 <= crc16(bits) <= 0xFFFF

    @given(st.binary(min_size=1, max_size=64))
    def test_flip_detection_property(self, data):
        bits = bytes_to_bits(data)
        original = crc16(bits)
        flipped = list(bits)
        flipped[0] ^= 1
        assert crc16(flipped) != original


def _crc16_genibus_table_driven(data):
    """Byte-wise table-driven CRC-16/GENIBUS, written independently of
    the bit-serial register in repro.protocol.crc."""
    table = []
    for byte in range(256):
        reg = byte << 8
        for _ in range(8):
            reg = ((reg << 1) ^ 0x1021) if reg & 0x8000 else (reg << 1)
        table.append(reg & 0xFFFF)
    reg = 0xFFFF
    for byte in data:
        reg = ((reg << 8) & 0xFFFF) ^ table[((reg >> 8) ^ byte) & 0xFF]
    return reg ^ 0xFFFF


class TestGen2ReceiverChecks:
    """Gen 2 Annex F: a receiver re-runs the CRC over data plus CRC.
    A good CRC-16 leaves the register at 0x1D0F (0xE2F0 once
    complemented); a good CRC-5 leaves it at 00000b."""

    @pytest.mark.parametrize(
        "data", [b"", b"\x30", b"123456789", b"\x30\x74\x25\x7b\xf7\x19\x4e\x40"]
    )
    def test_crc16_residue(self, data):
        bits = bytes_to_bits(data)
        assert crc16(bits + int_to_bits(crc16(bits), 16)) == 0x1D0F ^ 0xFFFF

    @given(bit_lists)
    def test_crc16_residue_property(self, bits):
        assert crc16(bits + int_to_bits(crc16(bits), 16)) == 0x1D0F ^ 0xFFFF

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=40))
    def test_crc5_residue_is_zero(self, bits):
        assert crc5(bits + int_to_bits(crc5(bits), 5)) == 0

    def test_empty_message_gives_preset(self):
        assert crc5([]) == CRC5_PRESET
        assert crc16([]) == CRC16_PRESET ^ 0xFFFF


class TestCrc16Reference:
    @pytest.mark.parametrize(
        "data",
        [b"\x00", b"\xff", b"123456789", b"hello world", bytes(range(32))],
    )
    def test_matches_table_driven_reference(self, data):
        assert crc16_bytes(data) == _crc16_genibus_table_driven(data)

    @given(st.binary(max_size=48))
    def test_matches_reference_property(self, data):
        assert crc16_bytes(data) == _crc16_genibus_table_driven(data)


class TestErrorDetection:
    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
            )
        )
    )
    def test_crcs_are_affine(self, pair):
        # crc(a ^ b) == crc(a) ^ crc(b) ^ crc(0...0) for equal lengths.
        a, b = pair
        xor = [x ^ y for x, y in zip(a, b)]
        zeros = [0] * len(a)
        assert crc16(xor) == crc16(a) ^ crc16(b) ^ crc16(zeros)
        assert crc5(xor) == crc5(a) ^ crc5(b) ^ crc5(zeros)

    def test_crc5_catches_every_burst_up_to_five_bits(self):
        # A degree-5 generator detects every burst of length <= 5; the
        # Query command carries 17 bits under its CRC-5.
        message = [1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0]
        original = crc5(message)
        for length in range(1, 6):
            for inner in range(1 << max(length - 2, 0)):
                if length == 1:
                    burst = [1]
                else:
                    burst = [1] + int_to_bits(inner, length - 2) + [1]
                for start in range(len(message) - length + 1):
                    corrupted = list(message)
                    for offset, bit in enumerate(burst):
                        corrupted[start + offset] ^= bit
                    assert crc5(corrupted) != original, (length, start)

    def test_crc16_catches_every_double_bit_error_in_pc_epc(self):
        # x^16+x^12+x^5+1 = (x+1) * primitive(15) detects every two-bit
        # error in frames far longer than the 112-bit PC+EPC payload.
        payload = bytes_to_bits(bytes.fromhex("3000") + bytes.fromhex("3074257BF7194E4000001A85"))
        original = crc16(payload)
        for i in range(len(payload)):
            for j in range(i + 1, len(payload)):
                corrupted = list(payload)
                corrupted[i] ^= 1
                corrupted[j] ^= 1
                assert crc16(corrupted) != original, (i, j)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=111), min_size=3, max_size=9, unique=True
        ).filter(lambda flips: len(flips) % 2 == 1)
    )
    def test_crc16_catches_odd_weight_errors(self, flips):
        # The (x+1) factor makes every odd number of flipped bits visible.
        payload = bytes_to_bits(bytes(range(14)))
        corrupted = list(payload)
        for i in flips:
            corrupted[i] ^= 1
        assert crc16(corrupted) != crc16(payload)
