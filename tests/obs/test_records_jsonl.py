"""Round-trip tests for typed records, JSONL files, and manifests."""

import json
import os

import pytest

from repro.obs.jsonl import (
    dump_records,
    parse_records,
    read_events_jsonl,
    write_events_jsonl,
)
from repro.obs.manifest import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    RunManifest,
    config_hash,
    events_path,
    manifest_path,
    read_manifest,
    write_manifest,
)
from repro.obs.records import (
    DwellLinkRecord,
    MaskedDwellRecord,
    MissCause,
    RngStreamRecord,
    SlotRecord,
    SupervisorRecord,
    TagOutcomeRecord,
    record_from_dict,
)


def _one_of_each():
    return [
        DwellLinkRecord(
            time=0.5, trial=3, reader_id="reader-0", antenna_id="ant-0",
            epc="E1", tx_power_dbm=30.0, cable_loss_db=1.0,
            reader_gain_dbi=6.0, path_gain_db=-35.5, shadowing_db=-2.25,
            tag_gain_dbi=1.0, polarization_loss_db=3.0, obstruction_db=0.0,
            detuning_db=0.5, coupling_db=0.0, fault_loss_db=0.0,
            fading_db=1.125, interference_dbm=None,
            forward_power_dbm=-3.125, forward_margin_db=8.875,
            reverse_power_dbm=-41.0, reverse_margin_db=34.0,
            energized=True, short_circuited=False,
        ),
        DwellLinkRecord(
            time=0.6, trial=3, reader_id="reader-0", antenna_id="ant-0",
            epc="E2", tx_power_dbm=30.0, cable_loss_db=1.0,
            reader_gain_dbi=6.0, path_gain_db=-80.0, shadowing_db=-5.0,
            tag_gain_dbi=1.0, polarization_loss_db=3.0, obstruction_db=10.0,
            detuning_db=0.5, coupling_db=0.0, fault_loss_db=0.0,
            fading_db=None, interference_dbm=None,
            forward_power_dbm=None, forward_margin_db=None,
            reverse_power_dbm=None, reverse_margin_db=None,
            energized=False, short_circuited=True,
        ),
        SlotRecord(
            time=0.7, trial=3, reader_id="reader-0", antenna_id="ant-0",
            slot_index=2, responders=("E1", "E2"), outcome="collision",
            winner=None,
        ),
        TagOutcomeRecord(
            trial=3, epc="E2", read=False, cause=MissCause.OUT_OF_ZONE,
            first_read_time=None, reads=0, dwells_evaluated=12,
            energized_dwells=0, collision_slots=0, solo_garbled_slots=0,
            best_no_fade_margin_db=-31.5, best_unfaulted_margin_db=-31.5,
        ),
        TagOutcomeRecord(
            trial=3, epc="E1", read=True, cause=None,
            first_read_time=0.75, reads=4, dwells_evaluated=12,
            energized_dwells=9, collision_slots=1, solo_garbled_slots=0,
            best_no_fade_margin_db=8.0, best_unfaulted_margin_db=8.0,
        ),
        MaskedDwellRecord(
            time=1.0, trial=3, reader_id="reader-0", antenna_id=None,
            reason="reader_down",
        ),
        SupervisorRecord(
            time=1.2, trial=3, reader_id="reader-0", kind="health",
            old="healthy", new="degraded", reason="missed poll",
        ),
        RngStreamRecord(trial=3, name="fading#trial=3", seed=12345),
    ]


class TestRecordRoundTrip:
    @pytest.mark.parametrize("record", _one_of_each(), ids=lambda r: type(r).__name__)
    def test_dict_round_trip_is_lossless(self, record):
        assert record_from_dict(record.to_dict()) == record

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown record type"):
            record_from_dict({"type": "nope"})

    def test_every_declared_cause_survives_round_trip(self):
        for cause in MissCause:
            record = TagOutcomeRecord(
                trial=0, epc="E", read=False, cause=cause,
                first_read_time=None, reads=0, dwells_evaluated=1,
                energized_dwells=0, collision_slots=0, solo_garbled_slots=0,
                best_no_fade_margin_db=None, best_unfaulted_margin_db=None,
            )
            assert record_from_dict(record.to_dict()).cause is cause


class TestJsonl:
    def test_lines_are_valid_json(self):
        for line in dump_records(_one_of_each()):
            assert json.loads(line)["type"]

    def test_parse_inverts_dump(self):
        records = _one_of_each()
        assert list(parse_records(dump_records(records))) == records

    def test_blank_lines_skipped(self):
        lines = list(dump_records(_one_of_each()[:2]))
        assert len(list(parse_records(["", lines[0], "  ", lines[1]]))) == 2

    def test_file_round_trip(self, tmp_path):
        records = _one_of_each()
        path = str(tmp_path / "sub" / "events.jsonl")
        assert write_events_jsonl(path, records) == len(records)
        assert read_events_jsonl(path) == records


class TestManifest:
    def test_config_hash_is_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_create_stamps_provenance(self):
        manifest = RunManifest.create(
            command="table1", seed=7, config={"reps": 3}, wall_time_s=1.5,
            workers=2,
        )
        from repro import __version__

        assert manifest.version == __version__
        assert manifest.config_sha256 == config_hash({"reps": 3})
        assert manifest.workers == 2

    def test_write_read_round_trip(self, tmp_path):
        directory = str(tmp_path / "run")
        manifest = RunManifest.create(
            command="faults", seed=11, config={"reps": 2}, wall_time_s=0.25,
        )
        path = write_manifest(directory, manifest)
        assert os.path.basename(path) == MANIFEST_FILENAME
        assert read_manifest(directory) == manifest
        assert read_manifest(path) == manifest

    def test_paths(self, tmp_path):
        directory = str(tmp_path)
        assert manifest_path(directory).endswith(MANIFEST_FILENAME)
        assert events_path(directory).endswith(EVENTS_FILENAME)

    def test_config_hash_is_sha256_hex(self):
        digest = config_hash({"reps": 3})
        assert len(digest) == 64
        int(digest, 16)

    def test_config_hash_ignores_whitespace_and_nesting_order(self):
        a = {"portal": {"antennas": 2, "power_dbm": 30.0}, "reps": 3}
        b = {"reps": 3, "portal": {"power_dbm": 30.0, "antennas": 2}}
        assert config_hash(a) == config_hash(b)

    def test_config_hash_stringifies_non_json_values(self):
        assert config_hash({"path": _Unjsonable()}) == config_hash({"path": "u"})

    def test_injected_start_stamp_is_kept(self):
        stamp = "2007-06-25T00:00:00+00:00"
        manifest = RunManifest.create(
            command="table1", seed=1, config={}, wall_time_s=0.0, started_at=stamp
        )
        assert manifest.started_at == stamp

    def test_same_inputs_give_equal_manifests(self):
        kwargs = dict(
            command="table1", seed=1, config={"reps": 2}, wall_time_s=0.5,
            started_at="2007-06-25T00:00:00+00:00",
        )
        assert RunManifest.create(**kwargs) == RunManifest.create(**kwargs)

    def test_config_is_copied(self):
        config = {"reps": 2}
        manifest = RunManifest.create(
            command="table1", seed=1, config=config, wall_time_s=0.5
        )
        config["reps"] = 99
        assert manifest.config == {"reps": 2}

    def test_manifest_file_is_indented_json(self, tmp_path):
        manifest = RunManifest.create(
            command="faults", seed=11, config={}, wall_time_s=0.25
        )
        path = write_manifest(str(tmp_path / "a" / "b"), manifest)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text.endswith("}\n")
        assert json.loads(text)["workers"] is None
        assert '\n  "command": "faults"' in text


class _Unjsonable:
    def __str__(self):
        return "u"


class TestJsonlFiles:
    def test_empty_file_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        assert write_events_jsonl(path, []) == 0
        assert read_events_jsonl(path) == []

    def test_one_line_per_record_with_sorted_keys(self, tmp_path):
        records = _one_of_each()
        path = str(tmp_path / "events.jsonl")
        write_events_jsonl(path, records)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == len(records)
        for line in lines:
            keys = list(json.loads(line))
            assert keys == sorted(keys)

    def test_write_in_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert write_events_jsonl("events.jsonl", _one_of_each()[:1]) == 1
        assert len(read_events_jsonl("events.jsonl")) == 1
