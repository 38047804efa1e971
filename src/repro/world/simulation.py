"""Portal pass simulation: physics + protocol, end to end.

This module replaces the paper's lab: it takes a :class:`Portal`
(antennas + readers), one or more :class:`CarrierGroup` objects (tags
riding a motion profile together with their occluding geometry), and a
calibrated :class:`SimulationParameters`, and produces the
:class:`~repro.sim.trace.ReadTrace` a real reader would have reported.

Per trial:

1. shadowing is sampled once per (tag, antenna) link — trials differ
   the way physical repetitions differ;
2. the carrier moves along its motion profile while each reader runs
   Gen 2 inventory rounds, TDMA-cycling its antennas;
3. for every round, each candidate tag's link budget is evaluated at
   the carrier's current position — occlusion chords through box
   contents and bodies, mount detuning, inter-tag coupling, polarization
   and pattern losses, plus a fresh small-scale fading draw — yielding
   the tag's energization and decode probability for that round;
4. with multiple readers and no dense-reader mode, each reader's
   receive floor is raised by the other readers' coupled carriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids a cycle
    from ..faults.plan import CoverageReport, FaultPlan

from ..obs.recorder import (
    PassObservation,
    PassRecording,
    Recorder,
    TracingSeedSequence,
)
from ..obs.records import DwellLinkRecord
from ..protocol.dense_reader import (
    CO_CHANNEL_DWELL_PROBABILITY,
    ReaderRadio,
    interference_at_receiver_dbm,
)
from ..protocol.gen2 import (
    InventorySession,
    QAlgorithm,
    TagChannel,
    run_inventory_round,
)
from ..protocol.timing import DEFAULT_TIMING, Gen2Timing
from ..rf.coupling import CouplingModel
from ..rf.geometry import Vec3, segment_sphere_chord_length
from ..rf.units import linear_to_db, sum_powers_dbm
from ..rf.link import (
    LinkEnvironment,
    LinkGeometry,
    LinkResult,
    LinkTerms,
    compose_link,
    compute_link_terms,
)
from ..rf.materials import Material
from ..sim.events import TagReadEvent
from ..sim.rng import SeedSequence
from ..sim.trace import ReadTrace
from .motion import LinearPass, StationaryPlacement
from .portal import AntennaInstallation, Portal, ReaderAssignment
from .tags import Tag

Motion = Union[LinearPass, StationaryPlacement]

#: Head-room the forward-link short-circuit allows for small-scale
#: fading before declaring a tag un-energizable. A +20 dB fade is a
#: linear power gain of 100; for any Rician K the unit-mean envelope
#: needs a >14-sigma Gaussian pair to reach it, which a seeded PRNG
#: will not produce in the lifetime of the universe. When even this
#: head-room cannot close the forward budget, the fading draw and the
#: full link composition are skipped for the round.
MAX_FADING_HEADROOM_DB = 20.0


class PassLinkCache:
    """Per-pass memo of the link-budget terms that do not change per round.

    ``_run_reader_timeline`` consults the link budget for every
    (candidate tag, inventory round) pair — hundreds of evaluations per
    pass, most of which recompute values that are pinned for the whole
    pass or for the current dwell geometry:

    * **geometry** — antenna pattern gain, tag pattern gain,
      polarization loss, deterministic path gain, and occluder chords,
      keyed by ``(antenna_id, epc, tag world position)``. Exact float
      positions are used (not quantized), so a hit replays terms that
      are *bit-identical* to recomputation; stationary placements hit on
      every round after the first, moving passes hit whenever two rounds
      sample the same position.
    * **fading normals** — the standard-normal pair behind each Rician
      draw, keyed by ``(reader_id, antenna_id, epc, coherence cell)``.
      The draw's seeded stream is named by exactly that tuple, so
      within one coherence cell it yields the same pair of normals
      every round; caching them skips the sha256-based stream
      construction while the K-factor penalty is still applied per
      round (obstruction may vary).
    * **occluder frame** — :func:`occluder_frame` at the current round's
      ``t``. A round's channel queries share one ``t``, and a pass one
      carrier sequence, so ``t`` alone keys it.

    One cache covers one :meth:`PortalPassSimulator.run_pass` call (all
    readers — geometry terms are reader-independent, so a mux takeover
    re-uses the owning reader's entries). Its counters come back as
    :attr:`PassResult.cache_stats`.
    """

    __slots__ = (
        "geometry",
        "fading_normals",
        "frame",
        "frame_t",
        "geometry_hits",
        "geometry_misses",
        "fading_hits",
        "fading_misses",
        "short_circuits",
    )

    def __init__(self) -> None:
        self.geometry: Dict[
            Tuple[str, str, float, float, float],
            Tuple[LinkTerms, float, bool],
        ] = {}
        self.fading_normals: Dict[
            Tuple[str, str, str, int, int, int], Tuple[float, float]
        ] = {}
        self.frame: OccluderFrame = ()
        self.frame_t: Optional[float] = None
        self.geometry_hits = 0
        self.geometry_misses = 0
        self.fading_hits = 0
        self.fading_misses = 0
        self.short_circuits = 0

    def occluders_at(
        self, carriers: Sequence["CarrierGroup"], t: float
    ) -> "OccluderFrame":
        """The occluder frame at ``t``, built once per inventory round."""
        if t != self.frame_t:
            self.frame = occluder_frame(carriers, t)
            self.frame_t = t
        return self.frame

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (plain dict, safe to pickle/serialise)."""
        return {
            "geometry_hits": self.geometry_hits,
            "geometry_misses": self.geometry_misses,
            "fading_hits": self.fading_hits,
            "fading_misses": self.fading_misses,
            "short_circuits": self.short_circuits,
        }


@dataclass(frozen=True)
class Occluder:
    """A blocking blob riding with a carrier (box content, torso)."""

    centre: Vec3
    radius_m: float
    material: Material
    reflective: bool = False

    def __post_init__(self) -> None:
        if self.radius_m <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius_m!r}")


@dataclass
class CarrierGroup:
    """Tags plus occluders sharing one motion profile.

    ``tags`` and ``occluders`` positions are in the carrier frame;
    world positions at time ``t`` add ``motion.position_at(t)``.

    ``clutter_sigma_db`` models *carrier-local* multipath: scatterers
    that ride along with the tags (the other metal boxes on the cart,
    the carrier's own body). Because they move with the tag, the fade
    they cause is frozen for the whole pass — one draw per (tag,
    antenna, trial) — unlike the motion-decorrelated small-scale fading
    of the fixed environment. This static component is what makes a
    badly placed tag miss an *entire* pass rather than flicker.
    """

    motion: Motion
    tags: List[Tag] = field(default_factory=list)
    occluders: List[Occluder] = field(default_factory=list)
    clutter_sigma_db: float = 0.0

    def tag_world_position(self, tag: Tag, t: float) -> Vec3:
        return self.motion.position_at(t) + tag.local_position


#: Occluder world centres at one instant: ``(x, y, z, radius², centre,
#: occluder)`` per occluder, in carrier then occluder order.
OccluderFrame = Tuple[Tuple[float, float, float, float, Vec3, Occluder], ...]


def occluder_frame(carriers: Sequence[CarrierGroup], t: float) -> OccluderFrame:
    """Every carrier's occluder world centres at ``t``, as plain floats.

    A centre depends only on ``t``, so one frame serves every tag of an
    inventory round. Carriers without occluders are never moved.
    """
    frame = []
    for carrier in carriers:
        if carrier.occluders:
            origin = carrier.motion.position_at(t)
            for occluder in carrier.occluders:
                c = origin + occluder.centre
                r = occluder.radius_m
                frame.append((c.x, c.y, c.z, r * r, c, occluder))
    return tuple(frame)


@dataclass(frozen=True)
class SimulationParameters:
    """Calibration knobs of the pass simulator.

    Values are set by :mod:`repro.core.calibration` to land the
    single-opportunity reliabilities near the paper's Section 3
    measurements; see that module for the rationale behind each number.
    """

    #: Cap on total through-material loss: energy diffracts around
    #: obstacles, so even a router stack is not a perfect screen.
    obstruction_cap_db: float = 25.0
    #: Rician K-factor penalty per dB of obstruction loss (a
    #: dimensionless dB/dB ratio): blocked paths lose their
    #: line-of-sight component and fade harder.
    k_penalty_per_obstruction: float = 0.5
    #: Logistic slope (dB) mapping reverse-link margin to decode
    #: probability; models coding/BER softness around the threshold.
    decode_slope_db: float = 1.5
    #: Receiver capture probability for 2-way collisions.
    capture_probability: float = 0.1
    #: TDMA dwell per antenna before the reader switches.
    tdma_slot_s: float = 0.10
    #: Chance per dwell that two non-DRM readers land co-channel.
    co_channel_probability: float = CO_CHANNEL_DWELL_PROBABILITY
    #: Inter-tag near-field coupling model.
    coupling: CouplingModel = field(default_factory=CouplingModel)
    #: Reflection bonus (dB) when a reflective occluder backs the tag.
    reflection_gain_db: float = 4.0
    #: How far behind the tag (m) a reflector still helps.
    reflection_range_m: float = 1.2
    #: Spatial coherence of small-scale fading: the channel decorrelates
    #: only when the tag *moves* about half a wavelength (0.164 m at
    #: 915 MHz). Stationary tags keep one fading realisation for a whole
    #: trial; a 1 m/s cart sees a fresh one roughly every 0.16 s.
    fading_coherence_m: float = 0.164
    #: How long an orphaned antenna stays dark before the portal's RF
    #: multiplexer hands it to a backup reader (see
    #: :attr:`~repro.world.portal.ReaderAssignment.backup_antennas`).
    #: The mux fails over on early evidence — a single missed 0.25 s
    #: poll, the same event that makes the supervisor flag the reader
    #: degraded — since rerouting a passive port to the standby is
    #: cheap and instantly reversible if the owner answers again.
    mux_takeover_delay_s: float = 0.25
    #: Gen 2 Q-algorithm bounds for each reader's inventory rounds. The
    #: defaults match :class:`~repro.protocol.gen2.QAlgorithm`; the
    #: knobs exist so experiments (and the miss-cause tests) can pin the
    #: frame size — ``q_initial=0, q_max=0`` forces one-slot frames,
    #: which makes any 2-tag population collide every round.
    q_initial: int = 4
    q_min: int = 0
    q_max: int = 15


@dataclass
class PassResult:
    """Everything observed during one portal pass (one trial)."""

    trace: ReadTrace
    duration_s: float
    rounds: int
    #: Infrastructure liveness during this pass; ``None`` for a
    #: fault-free run (full coverage implied). Downstream tracking
    #: decisions consume this to avoid conflating "tag absent" with
    #: "reader blind".
    coverage: Optional["CoverageReport"] = None
    #: Frozen observability payload when the simulator held a live
    #: :class:`~repro.obs.recorder.Recorder`; ``None`` otherwise. Rides
    #: through pickling, which is how parallel workers ship their
    #: observations back to the parent with the results.
    obs: Optional[PassObservation] = None
    #: :meth:`PassLinkCache.stats` counters of the pass; ``None`` for a
    #: pass that ran without a link cache. Rides back from workers too.
    cache_stats: Optional[Dict[str, int]] = None

    @property
    def read_epcs(self) -> Set[str]:
        return set(e.epc for e in self.trace)

    def tags_read(self, epcs: Sequence[str]) -> int:
        """How many of ``epcs`` were read at least once."""
        seen = self.read_epcs
        return sum(1 for epc in epcs if epc in seen)


class PortalPassSimulator:
    """Runs seeded portal passes for a fixed portal and link environment."""

    def __init__(
        self,
        portal: Portal,
        env: Optional[LinkEnvironment] = None,
        params: Optional[SimulationParameters] = None,
        timing: Gen2Timing = DEFAULT_TIMING,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.portal = portal
        self.env = env if env is not None else LinkEnvironment()
        self.params = params if params is not None else SimulationParameters()
        self.timing = timing
        #: Observability sink; ``None`` (the default) keeps every hook
        #: site down to a single identity test — no records, no
        #: allocation, bit-identical results.
        self.recorder = recorder

    # -- physics ---------------------------------------------------------

    def _obstruction_db(
        self,
        carriers: Sequence[CarrierGroup],
        antenna_pos: Vec3,
        tag_pos: Vec3,
        t: float,
        frame: Optional[OccluderFrame] = None,
    ) -> Tuple[float, bool]:
        """Total through-material loss on the antenna->tag path, capped.

        Returns (loss_db, reflector_behind): the second element reports
        whether a reflective occluder sits behind the tag (for the body
        reflection bonus). ``frame`` is :func:`occluder_frame` at ``t``,
        built here when not given.
        """
        if frame is None:
            frame = occluder_frame(carriers, t)
        ax, ay, az = antenna_pos.x, antenna_pos.y, antenna_pos.z
        dx = tag_pos.x - ax
        dy = tag_pos.y - ay
        dz = tag_pos.z - az
        ray_len = math.sqrt(dx * dx + dy * dy + dz * dz)
        if ray_len < 1e-9:
            return 0.0, False
        ux = dx / ray_len
        uy = dy / ray_len
        uz = dz / ray_len
        total = 0.0
        reflector_behind = False
        for cx, cy, cz, radius_sq, centre, occluder in frame:
            # The discriminant of segment_sphere_chord_length, operation
            # for operation: where it is <= 0 that chord is exactly 0.0.
            ox = ax - cx
            oy = ay - cy
            oz = az - cz
            b = ox * ux + oy * uy + oz * uz
            if b * b - ((ox * ox + oy * oy + oz * oz) - radius_sq) > 0.0:
                chord = segment_sphere_chord_length(
                    antenna_pos, tag_pos, centre, occluder.radius_m
                )
                if chord > 0.0:
                    total += occluder.material.through_loss_db(chord)
                    continue
            if occluder.reflective:
                # Is the occluder behind the tag along the ray?
                ray_unit = Vec3(ux, uy, uz)
                along = (centre - antenna_pos).dot(ray_unit)
                lateral = ((centre - antenna_pos) - ray_unit * along).norm()
                behind_by = along - ray_len
                if (
                    0.0 < behind_by <= self.params.reflection_range_m
                    and lateral <= occluder.radius_m + 0.3
                ):
                    reflector_behind = True
        return min(total, self.params.obstruction_cap_db), reflector_behind

    def _coupling_db(
        self, carriers: Sequence[CarrierGroup], carrier: CarrierGroup, tag: Tag
    ) -> float:
        """Near-field coupling penalty from this carrier's other tags.

        Carrier-local tag geometry is static, so distances at t=0 hold
        for the whole pass.
        """
        positions = [t.local_position for t in carrier.tags]
        axes = [t.world_dipole_axis() for t in carrier.tags]
        index = next(
            i for i, t in enumerate(carrier.tags) if t.epc == tag.epc
        )
        penalty = self.params.coupling.total_penalty_db(index, positions, axes)
        return tag.coupling_factor() * penalty

    def _evaluate_tag(
        self,
        cache: PassLinkCache,
        carriers: Sequence[CarrierGroup],
        carrier: CarrierGroup,
        tag: Tag,
        antenna: AntennaInstallation,
        reader: ReaderAssignment,
        t: float,
        shadowing_db: float,
        detuning_db: float,
        coupling_db: float,
        interference_dbm: Optional[float],
        fault_loss_db: float,
        seeds: SeedSequence,
        trial: int,
        rec: Optional[PassRecording] = None,
    ) -> Optional[LinkResult]:
        """One link-budget evaluation for a read attempt at time ``t``.

        Geometry terms and fading normals are memoised in ``cache`` (see
        :class:`PassLinkCache`). Fading is seeded per (trial, radio,
        antenna, coherence cell): a static geometry keeps its channel,
        and two radios driving one port hop on different channels.
        ``fault_loss_db`` is a port-level fault-plan impairment; applied
        at the reader port, it attenuates both links.

        Returns ``None`` when the forward link cannot close under any
        plausible fading draw (see :data:`MAX_FADING_HEADROOM_DB`), so the
        caller reports a dead :class:`~repro.protocol.gen2.TagChannel`
        without drawing fading or composing the budget. Otherwise the
        result equals :func:`~repro.rf.link.evaluate_link` on the same
        inputs, bit for bit.
        """
        tag_pos = carrier.tag_world_position(tag, t)
        geo_key = (antenna.antenna_id, tag.epc, tag_pos.x, tag_pos.y, tag_pos.z)
        entry = cache.geometry.get(geo_key)
        if entry is None:
            cache.geometry_misses += 1
            obstruction_db, reflector = self._obstruction_db(
                carriers, antenna.position, tag_pos, t, cache.occluders_at(carriers, t)
            )
            geometry = LinkGeometry(
                antenna_position=antenna.position,
                antenna_boresight=antenna.boresight,
                tag_position=tag_pos,
                tag_axis=tag.world_dipole_axis(),
            )
            tag_gain_override = None
            if tag.design is not None:
                # Alternative inlay: its own pattern replaces the stock
                # dipole (the arriving-wave direction is -direction).
                tag_gain_override = tag.pattern_gain_dbi(-geometry.direction)
            terms = compute_link_terms(self.env, geometry, tag_gain_override)
            entry = (terms, obstruction_db, reflector)
            cache.geometry[geo_key] = entry
        else:
            cache.geometry_hits += 1
        terms, obstruction_db, reflector = entry
        gain_bonus = self.params.reflection_gain_db if reflector else 0.0
        tx_power = reader.tx_power_dbm + gain_bonus - fault_loss_db
        # Forward budget with the fading term left out: if even a +20 dB
        # fade cannot wake the chip, skip the draw and the composition.
        forward_no_fade = (
            tx_power
            - self.env.cable_loss_db
            + terms.reader_gain_dbi
            + (terms.path_gain_db + shadowing_db)
            + terms.tag_gain_dbi
            - terms.polarization_loss_db
            - (obstruction_db + detuning_db + coupling_db)
        )
        result: Optional[LinkResult] = None
        fading_db: Optional[float] = None
        if forward_no_fade + MAX_FADING_HEADROOM_DB < self.env.tag_sensitivity_dbm:
            cache.short_circuits += 1
            no_fade_margin_db = forward_no_fade - self.env.tag_sensitivity_dbm
        else:
            cell = self.params.fading_coherence_m
            bins = (
                int(tag_pos.x // cell), int(tag_pos.y // cell), int(tag_pos.z // cell)
            )
            fading_key = (reader.reader_id, antenna.antenna_id, tag.epc) + bins
            normals = cache.fading_normals.get(fading_key)
            if normals is None:
                cache.fading_misses += 1
                fading_rng = seeds.trial_stream(
                    f"fading:{reader.reader_id}:{antenna.antenna_id}:{tag.epc}:"
                    f"{bins[0]}:{bins[1]}:{bins[2]}",
                    trial,
                )
                normals = (fading_rng.gauss(0.0, 1.0), fading_rng.gauss(0.0, 1.0))
                cache.fading_normals[fading_key] = normals
            else:
                cache.fading_hits += 1
            fading_gain = self.env.channel.fading.degraded(
                obstruction_db * self.params.k_penalty_per_obstruction
            ).power_gain_from_normals(normals[0], normals[1])
            result = compose_link(
                self.env,
                tx_power,
                terms,
                obstruction_loss_db=obstruction_db,
                tag_detuning_db=detuning_db,
                coupling_penalty_db=coupling_db,
                shadowing_db=shadowing_db,
                fading_power_gain=fading_gain,
                interference_dbm=interference_dbm,
            )
            if rec is not None:
                fading_db = linear_to_db(max(fading_gain, 1e-300))
                no_fade_margin_db = result.forward_margin_db - fading_db
        if rec is not None:
            rec.link(
                self._link_record(
                    terms, tag, antenna, reader, t, trial, gain_bonus,
                    shadowing_db, obstruction_db, detuning_db, coupling_db,
                    fault_loss_db, interference_dbm, fading_db=fading_db,
                    result=result,
                ),
                no_fade_margin_db=no_fade_margin_db,
            )
        return result

    def _link_record(
        self,
        terms: LinkTerms,
        tag: Tag,
        antenna: AntennaInstallation,
        reader: ReaderAssignment,
        t: float,
        trial: int,
        gain_bonus: float,
        shadowing_db: float,
        obstruction_db: float,
        detuning_db: float,
        coupling_db: float,
        fault_loss_db: float,
        interference_dbm: Optional[float],
        fading_db: Optional[float],
        result: Optional[LinkResult],
    ) -> DwellLinkRecord:
        """Build the waterfall record for one evaluation (recording only).

        ``result=None`` means the evaluation short-circuited before the
        fading draw; the composed-budget fields stay ``None``. Summing
        the record's terms (gains minus losses, fault loss and cable
        loss included) reproduces ``forward_power_dbm`` exactly.
        """
        return DwellLinkRecord(
            time=t,
            trial=trial,
            reader_id=reader.reader_id,
            antenna_id=antenna.antenna_id,
            epc=tag.epc,
            tx_power_dbm=reader.tx_power_dbm + gain_bonus,
            cable_loss_db=self.env.cable_loss_db,
            reader_gain_dbi=terms.reader_gain_dbi,
            path_gain_db=terms.path_gain_db,
            shadowing_db=shadowing_db,
            tag_gain_dbi=terms.tag_gain_dbi,
            polarization_loss_db=terms.polarization_loss_db,
            obstruction_db=obstruction_db,
            detuning_db=detuning_db,
            coupling_db=coupling_db,
            fault_loss_db=fault_loss_db,
            fading_db=fading_db,
            interference_dbm=interference_dbm,
            forward_power_dbm=None if result is None else result.forward_power_dbm,
            forward_margin_db=None if result is None else result.forward_margin_db,
            reverse_power_dbm=None if result is None else result.reverse_power_dbm,
            reverse_margin_db=None if result is None else result.reverse_margin_db,
            energized=result.activated if result is not None else False,
            short_circuited=result is None,
        )

    def _decode_probability(self, result: LinkResult) -> float:
        """Map the reverse margin to a per-reply decode probability."""
        if not result.activated:
            return 0.0
        slope = self.params.decode_slope_db
        margin = result.reverse_margin_db
        # Logistic centred at 0 margin; slope in dB per e-fold.
        return 1.0 / (1.0 + math.exp(-margin / slope))

    # -- the pass loop ----------------------------------------------------

    def run_pass(
        self,
        carriers: Sequence[CarrierGroup],
        seeds: SeedSequence,
        trial: int,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> PassResult:
        """Simulate one complete pass (one physical repetition).

        Parameters
        ----------
        carriers:
            Everything moving through the portal together.
        seeds:
            Root seed container; all randomness below derives from it.
        trial:
            Repetition index; distinct trials get independent shadowing
            and fading but share the deterministic geometry.
        fault_plan:
            Optional component-fault schedule
            (:class:`~repro.faults.plan.FaultPlan`). Physical faults are
            honoured here — a crashed or hung reader runs no inventory
            rounds, a silent antenna port reads nothing, a detuned port
            reads weaker, interference bursts raise every receive floor
            — and the resulting :class:`PassResult` carries a coverage
            report of what the infrastructure actually watched.
            Transport-level faults (poll drops, XML corruption) live at
            the wire layer instead; see
            :class:`~repro.faults.injectors.FaultyTransport`.
        """
        all_tags: List[Tuple[CarrierGroup, Tag]] = [
            (carrier, tag) for carrier in carriers for tag in carrier.tags
        ]
        if not all_tags:
            raise ValueError("no tags in any carrier group")
        epc_index: Dict[str, Tuple[CarrierGroup, Tag]] = {}
        for carrier, tag in all_tags:
            if tag.epc in epc_index:
                raise ValueError(f"duplicate EPC in pass: {tag.epc}")
            epc_index[tag.epc] = (carrier, tag)
        population = list(epc_index.keys())
        duration = max(c.motion.duration_s for c in carriers)

        rec: Optional[PassRecording] = None
        if self.recorder is not None and self.recorder.enabled:
            rec = self.recorder.begin_pass(trial)
            if self.recorder.capture_rng:
                # Same derivations, same seeds — just logged. The traced
                # wrapper never perturbs a draw.
                seeds = TracingSeedSequence(seeds.root_seed, rec)

        # Static per-tag coupling and mount-detuning penalties.
        coupling_db: Dict[str, float] = {
            tag.epc: self._coupling_db(carriers, carrier, tag)
            for carrier, tag in all_tags
        }
        detuning_db: Dict[str, float] = {
            tag.epc: tag.detuning_db() for _, tag in all_tags
        }
        # Per-trial static fade per (tag, antenna) link: environment
        # shadowing (independent per antenna — different sight lines
        # through the fixed environment) plus carrier-local clutter,
        # which is a property of how the tag sits among its co-moving
        # scatterers and is therefore COMMON to every antenna. The
        # shared component is why antenna-level redundancy underperforms
        # the independence model (paper Table 3: measured 86% vs
        # calculated 96%) while tag-level redundancy matches it.
        clutter: Dict[str, float] = {}
        for carrier, tag in all_tags:
            if carrier.clutter_sigma_db > 0.0:
                stream = seeds.trial_stream(f"clutter:{tag.epc}", trial)
                clutter[tag.epc] = stream.gauss(0.0, carrier.clutter_sigma_db)
            else:
                clutter[tag.epc] = 0.0
        shadowing: Dict[Tuple[str, str], float] = {}
        for antenna in self.portal.all_antennas:
            for carrier, tag in all_tags:
                stream = seeds.trial_stream(
                    f"shadow:{tag.epc}:{antenna.antenna_id}", trial
                )
                shadowing[(tag.epc, antenna.antenna_id)] = (
                    self.env.channel.shadowing.sample_db(stream)
                    + clutter[tag.epc]
                )

        trace = ReadTrace()
        total_rounds = 0
        interference_rng = seeds.trial_stream("interference", trial)
        cache = PassLinkCache()

        # Each reader runs its own inventory timeline; simultaneous
        # readers interfere but do not share airtime. Traces merge at
        # the end (the back-end sees the union).
        reader_traces: List[List[TagReadEvent]] = []
        for reader in self.portal.readers:
            events, rounds = self._run_reader_timeline(
                reader, carriers, epc_index, population, coupling_db,
                detuning_db, shadowing, seeds, trial, duration,
                interference_rng, fault_plan, cache, rec,
            )
            reader_traces.append(events)
            total_rounds += rounds

        merged = sorted(
            (e for events in reader_traces for e in events), key=lambda e: e.time
        )
        for event in merged:
            trace.record(event)
        coverage = None
        if fault_plan is not None and not fault_plan.is_empty:
            coverage = fault_plan.coverage_report(
                [
                    (r.reader_id, a.antenna_id)
                    for r in self.portal.readers
                    for a in r.antennas
                ],
                duration,
            )
        observation = None
        if rec is not None:
            observation = rec.finalize(
                population=tuple(population),
                read_epcs=trace.epcs_seen(),
                first_read_times={
                    epc: trace.first_read_time(epc) for epc in trace.epcs_seen()
                },
                read_counts=trace.read_counts(),
                headroom_db=MAX_FADING_HEADROOM_DB,
                had_fault_plan=fault_plan is not None and not fault_plan.is_empty,
            )
        return PassResult(
            trace=trace,
            duration_s=duration,
            rounds=total_rounds,
            coverage=coverage,
            obs=observation,
            cache_stats=cache.stats(),
        )

    def _run_reader_timeline(
        self,
        reader: ReaderAssignment,
        carriers: Sequence[CarrierGroup],
        epc_index: Dict[str, Tuple[CarrierGroup, Tag]],
        population: List[str],
        coupling_db: Dict[str, float],
        detuning_db: Dict[str, float],
        shadowing: Dict[Tuple[str, str], float],
        seeds: SeedSequence,
        trial: int,
        duration: float,
        interference_rng,
        fault_plan: Optional["FaultPlan"],
        cache: PassLinkCache,
        rec: Optional[PassRecording],
    ) -> Tuple[List[TagReadEvent], int]:
        """One reader's full pass: TDMA over its antennas, round after round."""
        protocol_rng = seeds.trial_stream(f"protocol:{reader.reader_id}", trial)
        session = InventorySession()
        q_algo = QAlgorithm(
            q_initial=self.params.q_initial,
            q_min=self.params.q_min,
            q_max=self.params.q_max,
        )
        events: List[TagReadEvent] = []
        rounds = 0
        t = 0.0
        antennas = tuple(reader.antennas)
        other_radios = self._other_radios(reader)
        restarts = (
            [] if fault_plan is None
            else [c.down_until for c in fault_plan.crash_restarts(reader.reader_id)]
        )
        restart_cursor = 0
        # RF-mux takeover windows: [start + detection delay, end) slices
        # of another reader's outage during which its orphaned antennas
        # are rerouted to this reader.
        owner_of_antenna = {
            a.antenna_id: r.reader_id
            for r in self.portal.readers
            for a in r.antennas
        }
        takeovers: List[Tuple[AntennaInstallation, float, float]] = []
        if fault_plan is not None and reader.backup_antennas:
            delay = self.params.mux_takeover_delay_s
            for backup in reader.backup_antennas:
                owner = owner_of_antenna[backup.antenna_id]
                for start, end in fault_plan.reader_outages(owner):
                    if start + delay < end:
                        takeovers.append((backup, start + delay, end))

        # Takeover windows open and close a handful of times per pass at
        # most, so the active-antenna tuple is rebuilt only when the
        # liveness mask changes instead of being re-allocated per dwell.
        takeover_mask: Optional[Tuple[bool, ...]] = None
        active: Tuple[AntennaInstallation, ...] = antennas

        while t < duration:
            # A power-cycled reader comes back with a fresh inventory
            # session: its carrier dropped, so the tags' S0 flags (and,
            # over a seconds-long reboot, S1 persistence) lapse, and
            # previously read tags answer again.
            while restart_cursor < len(restarts) and t >= restarts[restart_cursor]:
                session.reset()
                restart_cursor += 1
            if fault_plan is not None and fault_plan.reader_down(
                reader.reader_id, t
            ):
                # Crashed or hung: no inventory, no airtime, no reads.
                if rec is not None:
                    rec.masked_dwell(t, reader.reader_id, None, "reader_down")
                t += self.params.tdma_slot_s
                continue
            if takeovers:
                mask = tuple(start <= t < end for (_, start, end) in takeovers)
                if mask != takeover_mask:
                    takeover_mask = mask
                    inherited = tuple(
                        a for (a, _, _), live in zip(takeovers, mask) if live
                    )
                    active = antennas + inherited if inherited else antennas
            antenna = active[
                int(t / self.params.tdma_slot_s) % len(active)
            ]
            fault_loss_db = 0.0
            if fault_plan is not None:
                silent, fault_loss_db = fault_plan.antenna_state(
                    reader.reader_id, antenna.antenna_id, t
                )
                if silent:
                    # Cable cut: the dwell happens but nothing radiates.
                    if rec is not None:
                        rec.masked_dwell(
                            t,
                            reader.reader_id,
                            antenna.antenna_id,
                            "antenna_silent",
                        )
                    t += self.params.tdma_slot_s
                    continue
            # A crashed neighbour radiates nothing: drop it from the
            # aggressor list for dwells inside its outage.
            live_radios = other_radios
            if fault_plan is not None and other_radios:
                live_radios = [
                    radio
                    for radio in other_radios
                    if not fault_plan.reader_down(radio.reader_id, t)
                ]
            interference = self._interference_for(
                reader, antenna, live_radios, interference_rng
            )
            if fault_plan is not None:
                burst = fault_plan.interference_dbm_at(t)
                if burst is not None:
                    interference = (
                        burst
                        if interference is None
                        else sum_powers_dbm(interference, burst)
                    )
            last_result: Dict[str, LinkResult] = {}

            def channel(epc: str) -> TagChannel:
                carrier, tag = epc_index[epc]
                result = self._evaluate_tag(
                    cache, carriers, carrier, tag, antenna, reader, t,
                    shadowing[(epc, antenna.antenna_id)], detuning_db[epc],
                    coupling_db[epc], interference, fault_loss_db, seeds,
                    trial, rec,
                )
                if result is None:
                    # Forward link provably cannot close this round; an
                    # un-energized tag never replies, so nothing
                    # downstream consumes a LinkResult for it.
                    return TagChannel(energized=False, reply_decode_p=0.0)
                last_result[epc] = result
                return TagChannel(
                    energized=result.activated,
                    reply_decode_p=self._decode_probability(result),
                )

            slot_observer = None
            if rec is not None:
                def slot_observer(
                    outcome,
                    responders,
                    _rec=rec,
                    _reader_id=reader.reader_id,
                    _antenna_id=antenna.antenna_id,
                ):
                    _rec.slot(
                        outcome.time,
                        _reader_id,
                        _antenna_id,
                        outcome.slot_index,
                        responders,
                        outcome.kind,
                        outcome.epc,
                    )

            round_result = run_inventory_round(
                population,
                channel,
                protocol_rng,
                q_algo,
                session=session,
                timing=self.timing,
                start_time=t,
                time_budget_s=duration - t,
                capture_probability=self.params.capture_probability,
                slot_observer=slot_observer,
            )
            rounds += 1
            if rec is not None:
                rec.round_complete()
            for epc in round_result.read_epcs:
                result = last_result.get(epc)
                rssi = result.reverse_power_dbm if result else -99.0
                events.append(
                    TagReadEvent(
                        time=round_result.read_times[epc],
                        epc=epc,
                        reader_id=reader.reader_id,
                        antenna_id=antenna.antenna_id,
                        rssi_dbm=rssi,
                    )
                )
            # Advance by the airtime the round consumed (at least one
            # Query even if the field was empty).
            t += max(round_result.duration_s, self.timing.query_s)
        return events, rounds

    def _other_radios(self, reader: ReaderAssignment) -> List[ReaderRadio]:
        """Radios of every *other* reader in the portal (the aggressors)."""
        radios = []
        for other in self.portal.readers:
            if other.reader_id == reader.reader_id:
                continue
            for antenna in other.antennas:
                radios.append(
                    ReaderRadio(
                        reader_id=other.reader_id,
                        position=antenna.position,
                        tx_power_dbm=other.tx_power_dbm,
                        antenna_gain_dbi=self.env.reader_antenna.boresight_gain_dbi,
                        dense_reader_mode=other.dense_reader_mode,
                    )
                )
        return radios

    def _interference_for(
        self,
        reader: ReaderAssignment,
        antenna: AntennaInstallation,
        aggressors: List[ReaderRadio],
        rng,
    ) -> Optional[float]:
        """In-band interference at this reader's receiver for one dwell."""
        if not aggressors:
            return None
        victim = ReaderRadio(
            reader_id=reader.reader_id,
            position=antenna.position,
            tx_power_dbm=reader.tx_power_dbm,
            antenna_gain_dbi=self.env.reader_antenna.boresight_gain_dbi,
            dense_reader_mode=reader.dense_reader_mode,
        )
        co_channel = rng.bernoulli(self.params.co_channel_probability)
        return interference_at_receiver_dbm(victim, aggressors, co_channel)
