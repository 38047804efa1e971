"""Golden-trace regression: canonical recorded runs pinned as digests.

One golden scenario is a fully instrumented recorded run — every link
waterfall, slot, RNG derivation, and tag outcome — reduced to a digest
document under ``tests/golden/``. The document stores the SHA-256 of
the canonical JSONL event stream plus a human-readable summary (reads,
rounds, miss causes, slot outcomes), so a regression report says *what*
drifted, not just that something did.

Because every record is a pure function of ``(seed, trial)`` and the
JSONL form is canonical (sorted keys, shortest-form float repr), the
digest is bit-stable across runs, platforms, and Python versions; any
change — a single flipped slot outcome included — changes the digest
and fails the check. Intentional physics changes re-pin the documents
with ``python -m repro validate --bless``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.jsonl import dump_records
from ..obs.recorder import Recorder
from ..sim.rng import SeedSequence
from .result import CheckResult, failed, ok

PILLAR = "golden"

#: ``tests/golden/`` at the repository root (this file lives in
#: ``src/repro/validate/``).
GOLDEN_DIR = os.path.join(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ),
    "tests",
    "golden",
)

#: Golden runs pin their own seed; they must not drift when the CLI is
#: invoked with a different ``--seed`` (that would defeat regression
#: pinning), so this is deliberately NOT the CLI seed.
GOLDEN_SEED = 20070625


@dataclass(frozen=True)
class GoldenScenario:
    """One canonical workload pinned under ``tests/golden/``."""

    name: str
    description: str
    #: Returns ``(simulator, carriers, fault_plan-or-None)``.
    build: Callable[[], Tuple[Any, List[Any], Any]]
    trials: int = 2
    seed: int = GOLDEN_SEED


def _build_cart_front() -> Tuple[Any, List[Any], Any]:
    from ..world.objects import BoxFace
    from ..world.portal import single_antenna_portal
    from ..world.scenarios.object_tracking import (
        _make_simulator,
        build_box_cart,
    )

    sim = _make_simulator(single_antenna_portal())
    carrier, _ = build_box_cart([BoxFace.FRONT])
    return sim, [carrier], None


def _build_cart_front_back() -> Tuple[Any, List[Any], Any]:
    from ..world.objects import BoxFace
    from ..world.portal import single_antenna_portal
    from ..world.scenarios.object_tracking import (
        _make_simulator,
        build_box_cart,
    )

    sim = _make_simulator(single_antenna_portal())
    carrier, _ = build_box_cart([BoxFace.FRONT, BoxFace.BACK])
    return sim, [carrier], None


def _build_walk_front() -> Tuple[Any, List[Any], Any]:
    from ..world.humans import HumanTagPlacement
    from ..world.portal import single_antenna_portal
    from ..world.scenarios.human_tracking import _make_simulator, build_walk

    sim = _make_simulator(single_antenna_portal())
    carrier, _ = build_walk(1, [HumanTagPlacement.FRONT])
    return sim, [carrier], None


def _build_tag_plane_3m() -> Tuple[Any, List[Any], Any]:
    from ..core.calibration import PaperSetup
    from ..world.portal import single_antenna_portal
    from ..world.scenarios.read_range import build_tag_plane
    from ..world.simulation import PortalPassSimulator

    setup = PaperSetup()
    sim = PortalPassSimulator(
        portal=single_antenna_portal(tx_power_dbm=setup.tx_power_dbm),
        env=setup.env,
        params=setup.params,
    )
    return sim, [build_tag_plane(3.0)], None


def _build_cart_collisions() -> Tuple[Any, List[Any], Any]:
    """The cart with one-slot frames pinned: every round collides, so
    this trace is dense in collision slots — the workload that catches
    a flipped slot outcome."""
    sim, carriers, _ = _build_cart_front()
    sim.params = dataclasses.replace(sim.params, q_initial=0, q_max=0)
    return sim, carriers, None


def _build_cart_antenna_fault() -> Tuple[Any, List[Any], Any]:
    from ..faults.plan import AntennaFault, FaultPlan

    sim, carriers, _ = _build_cart_front()
    plan = FaultPlan(
        antenna_faults=(
            AntennaFault(
                reader_id="reader-0",
                antenna_id="ant-0",
                start_s=1.0,
            ),
        )
    )
    return sim, carriers, plan


def _build_walk_two_subjects() -> Tuple[Any, List[Any], Any]:
    from ..world.humans import HumanTagPlacement
    from ..world.portal import single_antenna_portal
    from ..world.scenarios.human_tracking import _make_simulator, build_walk

    sim = _make_simulator(single_antenna_portal())
    carrier, _ = build_walk(
        2, [HumanTagPlacement.FRONT, HumanTagPlacement.BACK]
    )
    return sim, [carrier], None


def _build_walk_dual_reader() -> Tuple[Any, List[Any], Any]:
    from ..world.humans import HumanTagPlacement
    from ..world.portal import dual_reader_portal
    from ..world.scenarios.human_tracking import _make_simulator, build_walk

    sim = _make_simulator(dual_reader_portal(dense_reader_mode=False))
    carrier, _ = build_walk(1, [HumanTagPlacement.FRONT])
    return sim, [carrier], None


def _build_walk_failover_crash() -> Tuple[Any, List[Any], Any]:
    from ..faults.plan import FaultPlan, ReaderCrash
    from ..world.humans import HumanTagPlacement
    from ..world.portal import failover_portal
    from ..world.scenarios.human_tracking import _make_simulator, build_walk

    sim = _make_simulator(failover_portal())
    carrier, _ = build_walk(1, [HumanTagPlacement.FRONT])
    duration = carrier.motion.duration_s
    plan = FaultPlan(crashes=(ReaderCrash("reader-0", 0.05 * duration, None),))
    return sim, [carrier], plan


#: The pinned scenario families, one per experiment axis: baseline
#: object cart, tag redundancy, human tracking (one subject, two
#: subjects whose torsos reflect), the Figure 2 tag plane, a
#: collision-saturated protocol trace, a faulted pass, the Section 4
#: interfering reader pair, and the RF-mux takeover after a crash.
GOLDEN_SCENARIOS: Dict[str, GoldenScenario] = {
    "cart-front": GoldenScenario(
        "cart-front",
        "Table 1 box cart, front tags, single antenna",
        _build_cart_front,
    ),
    "cart-front-back": GoldenScenario(
        "cart-front-back",
        "Box cart with redundant front+back tags",
        _build_cart_front_back,
    ),
    "walk-front": GoldenScenario(
        "walk-front",
        "Table 2 walking subject, front tag",
        _build_walk_front,
    ),
    "tag-plane-3m": GoldenScenario(
        "tag-plane-3m",
        "Figure 2 twenty-tag plane at 3 m, single poll",
        _build_tag_plane_3m,
    ),
    "cart-collisions": GoldenScenario(
        "cart-collisions",
        "Box cart with one-slot frames (collision-saturated)",
        _build_cart_collisions,
        trials=1,
    ),
    "cart-antenna-fault": GoldenScenario(
        "cart-antenna-fault",
        "Box cart with the antenna going silent at t=1s",
        _build_cart_antenna_fault,
        trials=1,
    ),
    "walk-two-subjects": GoldenScenario(
        "walk-two-subjects",
        "Table 2 two subjects abreast, front+back tags, single antenna",
        _build_walk_two_subjects,
    ),
    "walk-dual-reader": GoldenScenario(
        "walk-dual-reader",
        "Walking subject past two readers without dense-reader mode",
        _build_walk_dual_reader,
    ),
    "walk-failover-crash": GoldenScenario(
        "walk-failover-crash",
        "Walking subject past the failover pair, primary crashes early",
        _build_walk_failover_crash,
    ),
}


def records_digest(lines: Iterable[str]) -> str:
    """SHA-256 over canonical JSONL lines (newline-joined)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def compute_golden_doc(scenario: GoldenScenario) -> Dict[str, Any]:
    """Run a golden scenario fully instrumented and reduce it to its
    digest document."""
    recorder = Recorder(
        capture_link_budget=True, capture_slots=True, capture_rng=True
    )
    sim, carriers, fault_plan = scenario.build()
    sim.recorder = recorder
    lines: List[str] = []
    tags_read: List[int] = []
    rounds: List[int] = []
    durations: List[float] = []
    slot_outcomes: Dict[str, int] = {}
    miss_causes: Dict[str, int] = {}
    for trial in range(scenario.trials):
        result = sim.run_pass(
            list(carriers),
            SeedSequence(scenario.seed),
            trial,
            fault_plan=fault_plan,
        )
        observation = result.obs
        lines.extend(dump_records(observation.records()))
        tags_read.append(
            sum(1 for out in observation.tag_outcomes if out.read)
        )
        rounds.append(result.rounds)
        durations.append(result.duration_s)
        for slot in observation.slot_records:
            slot_outcomes[slot.outcome] = slot_outcomes.get(slot.outcome, 0) + 1
        for out in observation.tag_outcomes:
            if not out.read and out.cause is not None:
                miss_causes[out.cause.value] = (
                    miss_causes.get(out.cause.value, 0) + 1
                )
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "seed": scenario.seed,
        "trials": scenario.trials,
        "record_count": len(lines),
        "records_sha256": records_digest(lines),
        "summary": {
            "tags_read": tags_read,
            "rounds": rounds,
            "duration_s": durations,
            "slot_outcomes": dict(sorted(slot_outcomes.items())),
            "miss_causes": dict(sorted(miss_causes.items())),
        },
    }


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def diff_golden_docs(
    expected: Dict[str, Any], actual: Dict[str, Any]
) -> List[str]:
    """Human-readable field-level differences (empty = identical)."""
    diffs: List[str] = []
    for key in ("seed", "trials", "record_count", "records_sha256"):
        if expected.get(key) != actual.get(key):
            diffs.append(
                f"{key}: pinned {expected.get(key)!r} != measured "
                f"{actual.get(key)!r}"
            )
    pinned_summary = expected.get("summary", {})
    measured_summary = actual.get("summary", {})
    for key in sorted(set(pinned_summary) | set(measured_summary)):
        if pinned_summary.get(key) != measured_summary.get(key):
            diffs.append(
                f"summary.{key}: pinned {pinned_summary.get(key)!r} != "
                f"measured {measured_summary.get(key)!r}"
            )
    return diffs


def check_golden(
    names: Optional[Iterable[str]] = None, deep: bool = False
) -> List[CheckResult]:
    """Recompute every pinned scenario and compare against its document.

    ``deep`` is accepted for runner uniformity; golden runs are already
    exact, so there is no deeper profile to widen into.
    """
    results: List[CheckResult] = []
    selected = list(names) if names is not None else list(GOLDEN_SCENARIOS)
    for name in selected:
        scenario = GOLDEN_SCENARIOS.get(name)
        check_name = f"golden:{name}"
        if scenario is None:
            results.append(
                failed(
                    check_name,
                    PILLAR,
                    f"unknown golden scenario {name!r}; known: "
                    + ", ".join(sorted(GOLDEN_SCENARIOS)),
                )
            )
            continue
        path = golden_path(name)
        if not os.path.exists(path):
            results.append(
                failed(
                    check_name,
                    PILLAR,
                    f"no pinned document at {path}; run "
                    f"`python -m repro validate --bless` to create it",
                    path=path,
                )
            )
            continue
        with open(path, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        actual = compute_golden_doc(scenario)
        diffs = diff_golden_docs(expected, actual)
        if diffs:
            results.append(
                failed(
                    check_name,
                    PILLAR,
                    "trace drifted from pinned document: " + "; ".join(diffs),
                    diffs=diffs,
                    path=path,
                )
            )
        else:
            results.append(
                ok(
                    check_name,
                    PILLAR,
                    f"{actual['record_count']} records match digest "
                    f"{actual['records_sha256'][:12]}…",
                    record_count=actual["record_count"],
                    records_sha256=actual["records_sha256"],
                )
            )
    return results


def bless_golden(names: Optional[Iterable[str]] = None) -> List[str]:
    """(Re)compute and write the pinned documents; returns the paths.

    This is the *intentional drift* flow: after a deliberate physics or
    protocol change, re-pin and commit the new documents alongside it.
    """
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    selected = list(names) if names is not None else list(GOLDEN_SCENARIOS)
    paths: List[str] = []
    for name in selected:
        scenario = GOLDEN_SCENARIOS.get(name)
        if scenario is None:
            raise ValueError(
                f"unknown golden scenario {name!r}; known: "
                + ", ".join(sorted(GOLDEN_SCENARIOS))
            )
        doc = compute_golden_doc(scenario)
        path = golden_path(name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths
