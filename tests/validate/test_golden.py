"""The golden-trace pillar: pinned documents match the tree, the digest
is sensitive to a *single flipped slot outcome*, and the bless flow
round-trips.

The single-flip test is the acceptance contract for the whole pillar:
a golden suite that cannot see one slot changing from "success" to
"collision" cannot see a protocol regression either.
"""

import json
import os

import pytest

import repro.validate.golden as golden_mod
from repro.obs.jsonl import dump_records
from repro.obs.recorder import Recorder
from repro.sim.rng import SeedSequence
from repro.validate.golden import (
    GOLDEN_SCENARIOS,
    bless_golden,
    check_golden,
    compute_golden_doc,
    diff_golden_docs,
    golden_path,
    records_digest,
)

#: The smallest pinned scenario — the cheapest one to recompute in tests.
SMALL = "tag-plane-3m"


def _scenario_record_lines(scenario):
    """The exact canonical JSONL lines ``compute_golden_doc`` digests."""
    recorder = Recorder(
        capture_link_budget=True, capture_slots=True, capture_rng=True
    )
    sim, carriers, fault_plan = scenario.build()
    sim.recorder = recorder
    lines = []
    for trial in range(scenario.trials):
        result = sim.run_pass(
            list(carriers),
            SeedSequence(scenario.seed),
            trial,
            fault_plan=fault_plan,
        )
        lines.extend(dump_records(result.obs.records()))
    return lines


class TestPinnedDocuments:
    def test_every_scenario_has_a_pinned_file(self):
        for name in GOLDEN_SCENARIOS:
            assert os.path.exists(golden_path(name)), name

    def test_no_orphan_documents(self):
        on_disk = {
            os.path.splitext(entry)[0]
            for entry in os.listdir(golden_mod.GOLDEN_DIR)
            if entry.endswith(".json")
        }
        assert on_disk == set(GOLDEN_SCENARIOS)

    def test_small_scenario_matches_its_pin(self):
        (result,) = check_golden(names=[SMALL])
        assert result.passed, result.detail
        with open(golden_path(SMALL), encoding="utf-8") as handle:
            pinned = json.load(handle)
        assert result.metrics["records_sha256"] == pinned["records_sha256"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_scenario_matches_its_pin(self, name):
        # Every pin, so a simulator refactor that drifts any trace fails
        # here and not only under `python -m repro validate`.
        (result,) = check_golden(names=[name])
        assert result.passed, result.detail


class TestRecordsDigest:
    def test_deterministic(self):
        lines = ['{"a": 1}', '{"b": 2}']
        assert records_digest(lines) == records_digest(list(lines))

    def test_order_sensitive(self):
        assert records_digest(["x", "y"]) != records_digest(["y", "x"])

    def test_single_character_sensitive(self):
        assert records_digest(['{"a": 1}']) != records_digest(['{"a": 2}'])


class TestSingleFlippedSlotOutcomeDetected:
    def test_one_flip_changes_digest_and_fails_the_diff(self):
        """Flip exactly one slot record's outcome in the canonical event
        stream: the digest must change and the diff must name it."""
        scenario = GOLDEN_SCENARIOS[SMALL]
        lines = _scenario_record_lines(scenario)
        with open(golden_path(SMALL), encoding="utf-8") as handle:
            pinned = json.load(handle)
        # The freshly computed stream still matches the pin...
        assert records_digest(lines) == pinned["records_sha256"]
        assert len(lines) == pinned["record_count"]

        flip_at = next(
            i
            for i, line in enumerate(lines)
            if json.loads(line).get("type") == "slot"
            and json.loads(line)["outcome"] == "success"
        )
        record = json.loads(lines[flip_at])
        record["outcome"] = "collision"
        tampered = list(lines)
        tampered[flip_at] = json.dumps(record, sort_keys=True)
        assert tampered[flip_at] != lines[flip_at]

        # ...but one flipped slot outcome drifts the digest,
        tampered_digest = records_digest(tampered)
        assert tampered_digest != pinned["records_sha256"]

        # and the document diff pinpoints the drifted field.
        drifted = dict(pinned)
        drifted["records_sha256"] = tampered_digest
        diffs = diff_golden_docs(pinned, drifted)
        assert any("records_sha256" in diff for diff in diffs)

    def test_summary_drift_is_also_named(self):
        with open(golden_path(SMALL), encoding="utf-8") as handle:
            pinned = json.load(handle)
        drifted = json.loads(json.dumps(pinned))
        drifted["summary"]["slot_outcomes"]["success"] += 1
        diffs = diff_golden_docs(pinned, drifted)
        assert len(diffs) == 1
        assert diffs[0].startswith("summary.slot_outcomes")

    def test_identical_documents_diff_clean(self):
        with open(golden_path(SMALL), encoding="utf-8") as handle:
            pinned = json.load(handle)
        assert diff_golden_docs(pinned, json.loads(json.dumps(pinned))) == []


class TestCheckGolden:
    def test_unknown_scenario_fails_not_raises(self):
        (result,) = check_golden(names=["no-such-trace"])
        assert not result.passed
        assert "unknown golden scenario" in result.detail

    def test_missing_document_points_at_bless(self, tmp_path, monkeypatch):
        monkeypatch.setattr(golden_mod, "GOLDEN_DIR", str(tmp_path))
        (result,) = check_golden(names=[SMALL])
        assert not result.passed
        assert "--bless" in result.detail

    def test_tampered_pin_fails_the_check(self, tmp_path, monkeypatch):
        with open(golden_path(SMALL), encoding="utf-8") as handle:
            pinned = json.load(handle)
        pinned["records_sha256"] = "0" * 64
        monkeypatch.setattr(golden_mod, "GOLDEN_DIR", str(tmp_path))
        with open(golden_path(SMALL), "w", encoding="utf-8") as handle:
            json.dump(pinned, handle)
        (result,) = check_golden(names=[SMALL])
        assert not result.passed
        assert "records_sha256" in result.detail


class TestBless:
    def test_bless_then_check_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(golden_mod, "GOLDEN_DIR", str(tmp_path))
        (path,) = bless_golden(names=[SMALL])
        assert os.path.dirname(path) == str(tmp_path)
        (result,) = check_golden(names=[SMALL])
        assert result.passed, result.detail

    def test_bless_unknown_scenario_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(golden_mod, "GOLDEN_DIR", str(tmp_path))
        with pytest.raises(ValueError):
            bless_golden(names=["no-such-trace"])

    def test_blessed_file_is_canonical_json(self):
        with open(golden_path(SMALL), encoding="utf-8") as handle:
            raw = handle.read()
        doc = json.loads(raw)
        assert raw == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_golden_seed_ignores_cli_seed(self):
        doc = compute_golden_doc(GOLDEN_SCENARIOS[SMALL])
        assert doc["seed"] == golden_mod.GOLDEN_SEED
