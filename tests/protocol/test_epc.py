"""Tests for SGTIN-96 EPC encode/decode."""

import pytest
from hypothesis import given, strategies as st

from repro.protocol.epc import MAX_SERIAL, EpcError, EpcFactory, Sgtin96


def _epc(**overrides):
    defaults = dict(
        filter_value=1,
        partition=5,
        company_prefix=614141,
        item_reference=812345,
        serial=42,
    )
    defaults.update(overrides)
    return Sgtin96(**defaults)


class TestValidation:
    def test_valid_epc(self):
        epc = _epc()
        assert epc.serial == 42

    def test_filter_out_of_range(self):
        with pytest.raises(EpcError):
            _epc(filter_value=8)

    def test_partition_out_of_range(self):
        with pytest.raises(EpcError):
            _epc(partition=7)

    def test_company_prefix_too_wide(self):
        # Partition 6 gives the company prefix only 20 bits.
        with pytest.raises(EpcError):
            _epc(partition=6, company_prefix=1 << 20, item_reference=0)

    def test_item_reference_too_wide(self):
        # Partition 0 gives the item reference only 4 bits.
        with pytest.raises(EpcError):
            _epc(partition=0, company_prefix=0, item_reference=16)

    def test_serial_too_wide(self):
        with pytest.raises(EpcError):
            _epc(serial=MAX_SERIAL + 1)


class TestEncoding:
    def test_bits_length(self):
        assert len(_epc().to_bits()) == 96

    def test_hex_length_and_header(self):
        text = _epc().to_hex()
        assert len(text) == 24
        assert text.startswith("30")

    def test_uri_format(self):
        uri = _epc().to_uri()
        assert uri == "urn:epc:id:sgtin:0614141.812345.42"

    def test_bits_round_trip(self):
        epc = _epc()
        assert Sgtin96.from_bits(epc.to_bits()) == epc

    def test_hex_round_trip(self):
        epc = _epc(serial=123456789)
        assert Sgtin96.from_hex(epc.to_hex()) == epc

    def test_from_bits_wrong_length(self):
        with pytest.raises(EpcError):
            Sgtin96.from_bits([0] * 95)

    def test_from_bits_wrong_header(self):
        bits = _epc().to_bits()
        bits[0] ^= 1
        with pytest.raises(EpcError):
            Sgtin96.from_bits(bits)

    def test_from_hex_wrong_length(self):
        with pytest.raises(EpcError):
            Sgtin96.from_hex("30abc")

    def test_from_hex_invalid_digits(self):
        with pytest.raises(EpcError):
            Sgtin96.from_hex("zz" * 12)

    @given(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=MAX_SERIAL),
    )
    def test_round_trip_property(self, filter_value, partition, serial):
        epc = Sgtin96(
            filter_value=filter_value,
            partition=partition,
            company_prefix=1,
            item_reference=1,
            serial=serial,
        )
        assert Sgtin96.from_hex(epc.to_hex()) == epc


class TestFactory:
    def test_sequential_serials(self):
        factory = EpcFactory()
        a = factory.next_epc()
        b = factory.next_epc()
        assert b.serial == a.serial + 1

    def test_uniqueness(self):
        factory = EpcFactory()
        batch = factory.batch(500)
        assert len({e.to_hex() for e in batch}) == 500

    def test_batch_negative(self):
        with pytest.raises(EpcError):
            EpcFactory().batch(-1)

    def test_hex_is_valid_tag_epc(self):
        # The world model requires 24-hex-digit EPCs.
        text = EpcFactory().next_epc().to_hex()
        int(text, 16)
        assert len(text) == 24


#: EPC Tag Data Standard SGTIN-96 partition table: partition ->
#: (company prefix bits, digits, item reference bits, digits).
TDS_PARTITIONS = {
    0: (40, 12, 4, 1),
    1: (37, 11, 7, 2),
    2: (34, 10, 10, 3),
    3: (30, 9, 14, 4),
    4: (27, 8, 17, 5),
    5: (24, 7, 20, 6),
    6: (20, 6, 24, 7),
}


class TestTagDataStandardExample:
    # The worked SGTIN-96 example of the EPC Tag Data Standard.
    HEX = "3074257BF7194E4000001A85"

    def test_encodes_to_standard_hex(self):
        epc = _epc(filter_value=3, partition=5, serial=6789)
        assert epc.to_hex() == self.HEX

    def test_standard_uri(self):
        epc = _epc(filter_value=3, partition=5, serial=6789)
        assert epc.to_uri() == "urn:epc:id:sgtin:0614141.812345.6789"

    def test_decodes_standard_hex(self):
        assert Sgtin96.from_hex(self.HEX) == _epc(
            filter_value=3, partition=5, serial=6789
        )

    def test_hex_decoding_ignores_case_and_surrounding_space(self):
        assert Sgtin96.from_hex(f"  {self.HEX.lower()}\n") == Sgtin96.from_hex(
            self.HEX
        )


class TestPartitionTable:
    @pytest.mark.parametrize("partition", sorted(TDS_PARTITIONS))
    def test_field_widths(self, partition):
        cp_bits, _, ir_bits, _ = TDS_PARTITIONS[partition]
        widest = _epc(
            partition=partition,
            company_prefix=(1 << cp_bits) - 1,
            item_reference=(1 << ir_bits) - 1,
            serial=MAX_SERIAL,
        )
        assert Sgtin96.from_bits(widest.to_bits()) == widest
        with pytest.raises(EpcError):
            _epc(partition=partition, company_prefix=1 << cp_bits, item_reference=0)
        with pytest.raises(EpcError):
            _epc(partition=partition, company_prefix=0, item_reference=1 << ir_bits)

    @pytest.mark.parametrize("partition", sorted(TDS_PARTITIONS))
    def test_uri_digit_counts(self, partition):
        _, cp_digits, _, ir_digits = TDS_PARTITIONS[partition]
        # GS1 company prefix plus item reference is always 13 digits.
        assert cp_digits + ir_digits == 13
        uri = _epc(partition=partition, company_prefix=1, item_reference=2).to_uri()
        company, item, serial = uri.rsplit(":", 1)[1].split(".")
        assert (len(company), len(item), serial) == (cp_digits, ir_digits, "42")

    def test_partition_seven_is_rejected_on_decode(self):
        bits = _epc().to_bits()
        bits[11:14] = [1, 1, 1]
        with pytest.raises(EpcError):
            Sgtin96.from_bits(bits)


class TestFactoryBatch:
    def test_empty_batch(self):
        assert EpcFactory().batch(0) == []

    def test_batches_continue_the_sequence(self):
        factory = EpcFactory()
        first = factory.batch(2)
        second = factory.batch(2)
        assert [e.serial for e in first + second] == [0, 1, 2, 3]
