"""Tests for the timestamped event types shared by the reader stack."""

import dataclasses

import pytest

from repro.sim import SlotOutcome, TagReadEvent


def _read(epc="epc-1", reader="reader-0", antenna="ant-0", t=0.5, rssi=-60.0):
    return TagReadEvent(t, epc, reader, antenna, rssi_dbm=rssi)


class TestTagReadEvent:
    def test_key_is_epc_reader_antenna(self):
        assert _read().key() == ("epc-1", "reader-0", "ant-0")

    def test_key_ignores_time_and_rssi(self):
        # Duplicate elimination treats repeated sightings of the same tag
        # by the same antenna as one identity.
        assert _read(t=0.1, rssi=-50.0).key() == _read(t=2.0, rssi=-70.0).key()

    @pytest.mark.parametrize(
        "other",
        [
            {"epc": "epc-2"},
            {"reader": "reader-1"},
            {"antenna": "ant-1"},
        ],
    )
    def test_key_distinguishes_each_identity_field(self, other):
        assert _read().key() != _read(**other).key()

    def test_frozen(self):
        event = _read()
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.epc = "other"

    def test_equal_events_hash_equal(self):
        assert len({_read(), _read()}) == 1


class TestSlotOutcome:
    @pytest.mark.parametrize(
        "responders, epc, kind",
        [
            (0, None, "empty"),
            (1, "epc-1", "success"),
            (1, None, "collision"),
            (3, None, "collision"),
            (3, "epc-1", "success"),
        ],
    )
    def test_kind(self, responders, epc, kind):
        # A slot with several responders still succeeds when capture
        # lets the reader decode one EPC.
        outcome = SlotOutcome(time=0.0, slot_index=0, responders=responders, epc=epc)
        assert outcome.kind == kind

    def test_epc_defaults_to_none(self):
        assert SlotOutcome(time=1.0, slot_index=4, responders=0).epc is None
