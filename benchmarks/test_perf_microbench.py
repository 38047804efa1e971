"""Performance micro-benchmarks of the library's hot paths.

Unlike the experiment benchmarks (one pedantic round each), these use
pytest-benchmark's real timing loops: they exist to catch performance
regressions in the code the experiment harness calls millions of times.
"""

import pytest

from repro.core.calibration import PaperSetup
from repro.core.experiment import run_trials
from repro.core.parallel import PassTrialTask
from repro.core.redundancy import combined_reliability
from repro.protocol.crc import bytes_to_bits, crc16
from repro.protocol.epc import EpcFactory
from repro.protocol.gen2 import QAlgorithm, TagChannel, run_inventory_round
from repro.rf.geometry import Vec3
from repro.rf.link import (
    LinkGeometry,
    compose_link,
    compute_link_terms,
    evaluate_link,
    free_space_read_range_m,
)
from repro.sim.rng import RandomStream, SeedSequence
from repro.world.motion import LinearPass
from repro.world.portal import single_antenna_portal
from repro.world.simulation import CarrierGroup, PortalPassSimulator
from repro.world.tags import Tag

SETUP = PaperSetup()


@pytest.mark.benchmark(group="perf")
def test_perf_link_budget(benchmark):
    """One full link-budget evaluation (the innermost hot path)."""
    geometry = LinkGeometry(
        antenna_position=Vec3(0, 1, 0),
        antenna_boresight=Vec3.unit_z(),
        tag_position=Vec3(0.3, 1.1, 1.0),
        tag_axis=Vec3.unit_x(),
    )
    result = benchmark(
        evaluate_link,
        SETUP.env,
        30.0,
        geometry,
        5.0,   # obstruction
        3.0,   # detuning
        0.0,   # coupling
        -1.5,  # shadowing
        0.8,   # fading
    )
    assert result.forward_power_dbm < 30.0


@pytest.mark.benchmark(group="perf")
def test_perf_link_compose_cached_terms(benchmark):
    """Link composition when the geometry terms are already cached.

    This is the per-draw cost inside a pass once the per-pass cache
    has resolved the static (tag, antenna) terms — the difference from
    ``test_perf_link_budget`` is what the cache saves.
    """
    geometry = LinkGeometry(
        antenna_position=Vec3(0, 1, 0),
        antenna_boresight=Vec3.unit_z(),
        tag_position=Vec3(0.3, 1.1, 1.0),
        tag_axis=Vec3.unit_x(),
    )
    terms = compute_link_terms(SETUP.env, geometry)
    result = benchmark(
        compose_link,
        SETUP.env,
        30.0,
        terms,
        5.0,   # obstruction
        3.0,   # detuning
        0.0,   # coupling
        -1.5,  # shadowing
        0.8,   # fading
    )
    assert result.forward_power_dbm < 30.0


@pytest.mark.benchmark(group="perf")
def test_perf_read_range_search(benchmark):
    """The envelope-bisect read-range search at calibration resolution."""
    value = benchmark(free_space_read_range_m, SETUP.env, 30.0)
    assert 2.0 < value < 15.0


@pytest.mark.benchmark(group="perf")
def test_perf_inventory_round(benchmark):
    """One 16-slot Gen 2 round over 12 tags."""
    population = [e.to_hex() for e in EpcFactory().batch(12)]

    def channel(epc):
        return TagChannel(energized=True, reply_decode_p=0.9)

    def run():
        return run_inventory_round(
            population, channel, RandomStream(7), QAlgorithm(q_initial=4)
        )

    result = benchmark(run)
    assert result.rounds == 1


@pytest.mark.benchmark(group="perf")
def test_perf_crc16(benchmark):
    """CRC-16 over a PC+EPC payload (112 bits)."""
    bits = bytes_to_bits(b"\x30\x00" + b"\xab" * 12)
    value = benchmark(crc16, bits)
    assert 0 <= value <= 0xFFFF


@pytest.mark.benchmark(group="perf")
def test_perf_combined_reliability(benchmark):
    """The R_C fold over eight opportunities."""
    ps = [0.87, 0.83, 0.63, 0.29] * 2
    value = benchmark(combined_reliability, ps)
    assert 0.99 < value <= 1.0


@pytest.mark.benchmark(group="perf")
def test_perf_full_pass(benchmark):
    """A complete single-tag portal pass (the experiment unit of work).

    Kept to a handful of rounds via pedantic mode — this is the
    coarse-grained sanity number (~tens of ms), not a tight loop.
    """
    simulator = PortalPassSimulator(
        portal=single_antenna_portal(), env=SETUP.env, params=SETUP.params
    )
    carrier = CarrierGroup(
        motion=LinearPass.centered_lane_pass(
            lane_distance_m=1.0, speed_mps=1.0, half_span_m=1.5, height_m=0.0
        ),
        tags=[
            Tag(
                epc=EpcFactory().next_epc().to_hex(),
                local_position=Vec3(0, 1, 0),
            )
        ],
    )
    seeds = SeedSequence(1)
    result = benchmark.pedantic(
        lambda: simulator.run_pass([carrier], seeds, 0),
        rounds=5,
        iterations=1,
    )
    assert result.duration_s > 0


def _cart_pass_fixture():
    """A 12-box cart pass — the workload the per-pass cache targets."""
    from repro.world.objects import BoxFace
    from repro.world.scenarios.object_tracking import build_box_cart

    simulator = PortalPassSimulator(
        portal=single_antenna_portal(),
        env=SETUP.env,
        params=SETUP.params,
    )
    carrier, _ = build_box_cart([BoxFace.FRONT])
    return simulator, carrier


@pytest.mark.benchmark(group="perf")
def test_perf_cart_pass(benchmark):
    """The Table 1 cart pass through the per-pass link cache."""
    simulator, carrier = _cart_pass_fixture()
    seeds = SeedSequence(1)
    result = benchmark.pedantic(
        lambda: simulator.run_pass([carrier], seeds, 0),
        rounds=3,
        iterations=1,
    )
    assert result.duration_s > 0


@pytest.mark.benchmark(group="perf")
def test_perf_parallel_engine_dispatch(benchmark):
    """Process-pool dispatch overhead for a short trial batch.

    Uses the real :class:`PassTrialTask` over a single-tag pass so the
    number covers pickling, pool spawn, and result gathering — the
    fixed cost a parallel run must amortise.
    """
    simulator, carrier = _cart_pass_fixture()
    task = PassTrialTask(simulator=simulator, carriers=(carrier,))
    result = benchmark.pedantic(
        lambda: run_trials("bench:dispatch", task, 2, seed=1, workers=2),
        rounds=2,
        iterations=1,
    )
    assert len(result.outcomes) == 2
