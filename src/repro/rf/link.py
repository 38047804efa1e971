"""Forward/reverse link budget for passive UHF backscatter links.

A passive tag read succeeds only when **both** directions close:

* **forward link** — enough reader power reaches the tag chip to
  activate it (threshold around -12 dBm for early Gen 2 silicon). For
  30 dBm readers and passive tags this is almost always the limiting
  direction, which is why read range tops out at a few metres exactly
  as the paper's Figure 2 shows.
* **reverse link** — the backscattered reply must exceed the reader's
  receive sensitivity *and* clear any co-channel interference (other
  readers transmitting CW in band). Reader-to-reader interference
  desensitizes the receiver, which is the mechanism behind the paper's
  finding that two readers per portal without dense-reader mode
  *reduce* reliability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .antenna import DipoleAntenna, PatchAntenna, polarization_loss_db
from .geometry import Vec3
from .propagation import ChannelModel
from .units import linear_to_db


@dataclass(frozen=True)
class LinkEnvironment:
    """All hardware constants and channel models for a reader-tag link.

    Parameters
    ----------
    channel:
        Propagation stack (path loss + shadowing + fading).
    reader_antenna, tag_antenna:
        Gain patterns.
    tag_sensitivity_dbm:
        Minimum incident power that wakes the tag chip. -12 dBm matches
        2006-era Gen 2 silicon (modern chips reach -20 dBm).
    reader_sensitivity_dbm:
        Minimum backscatter power the reader can decode in a clean
        channel.
    backscatter_loss_db:
        Modulation/conversion loss of the tag's reflection (typically
        about 5 dB below the incident power, plus the return path).
    cable_loss_db:
        Coax loss between reader port and antenna, applied in both
        directions.
    required_sinr_db:
        Margin the backscatter signal needs over in-band interference.
    """

    channel: ChannelModel = field(default_factory=ChannelModel)
    reader_antenna: PatchAntenna = field(default_factory=PatchAntenna)
    tag_antenna: DipoleAntenna = field(default_factory=DipoleAntenna)
    tag_sensitivity_dbm: float = -12.0
    reader_sensitivity_dbm: float = -75.0
    backscatter_loss_db: float = 5.0
    cable_loss_db: float = 1.0
    required_sinr_db: float = 10.0


@dataclass(frozen=True)
class LinkGeometry:
    """World-frame geometry of one reader-antenna-to-tag link."""

    antenna_position: Vec3
    antenna_boresight: Vec3
    tag_position: Vec3
    tag_axis: Vec3

    @property
    def distance_m(self) -> float:
        return self.antenna_position.distance_to(self.tag_position)

    @property
    def direction(self) -> Vec3:
        """Unit vector from antenna to tag."""
        return (self.tag_position - self.antenna_position).normalized()


@dataclass(frozen=True)
class LinkTerms:
    """The geometry-determined terms of one link budget.

    Everything here depends only on the (antenna, tag) geometry and the
    hardware constants — not on the trial's shadowing/fading draws, the
    dwell's interference, or material losses. The pass simulator
    computes these once per distinct geometry and replays them through
    :func:`compose_link` for every read attempt sharing that geometry;
    :func:`evaluate_link` is exactly ``compose_link(compute_link_terms)``,
    so a replayed evaluation is bit-identical to a fresh one.
    """

    reader_gain_dbi: float
    tag_gain_dbi: float
    polarization_loss_db: float
    #: Deterministic path gain (no shadowing; that is added by
    #: :func:`compose_link` exactly as ``large_scale_gain_db`` would).
    path_gain_db: float


def compute_link_terms(
    env: LinkEnvironment,
    geometry: LinkGeometry,
    tag_gain_override_dbi: Optional[float] = None,
) -> LinkTerms:
    """Evaluate the geometry-dependent antenna/path terms of a link."""
    distance = geometry.distance_m
    direction = geometry.direction
    reader_gain = env.reader_antenna.gain_dbi(direction, geometry.antenna_boresight)
    # Tag sees the wave arriving from -direction; dipole pattern is
    # symmetric so the sign does not matter, but keep it explicit.
    if tag_gain_override_dbi is not None:
        tag_gain = tag_gain_override_dbi
    else:
        tag_gain = env.tag_antenna.gain_dbi(-direction, geometry.tag_axis)
    pol_loss = polarization_loss_db(
        env.reader_antenna.circular, geometry.tag_axis, direction
    )
    path_gain = env.channel.path_loss.path_gain_db(
        distance,
        tx_height_m=geometry.antenna_position.y,
        rx_height_m=geometry.tag_position.y,
    )
    return LinkTerms(
        reader_gain_dbi=reader_gain,
        tag_gain_dbi=tag_gain,
        polarization_loss_db=pol_loss,
        path_gain_db=path_gain,
    )


@dataclass(frozen=True)
class LinkResult:
    """Full accounting of one link-budget evaluation."""

    forward_power_dbm: float
    reverse_power_dbm: float
    activated: bool
    decodable: bool
    forward_margin_db: float
    reverse_margin_db: float

    @property
    def readable(self) -> bool:
        """True when the physical layer supports a read attempt."""
        return self.activated and self.decodable


def evaluate_link(
    env: LinkEnvironment,
    tx_power_dbm: float,
    geometry: LinkGeometry,
    obstruction_loss_db: float = 0.0,
    tag_detuning_db: float = 0.0,
    coupling_penalty_db: float = 0.0,
    shadowing_db: float = 0.0,
    fading_power_gain: float = 1.0,
    interference_dbm: Optional[float] = None,
    tag_gain_override_dbi: Optional[float] = None,
) -> LinkResult:
    """Evaluate a single read attempt's physical feasibility.

    Parameters
    ----------
    env:
        Hardware and channel constants.
    tx_power_dbm:
        Conducted power at the reader port.
    geometry:
        Positions and orientations, world frame.
    obstruction_loss_db:
        One-way through-material loss on the path (metal contents,
        bodies, packaging), applied to both directions.
    tag_detuning_db:
        Penalty from mounting material proximity (grounding-plate effect).
    coupling_penalty_db:
        Penalty from near-field coupling with neighbouring tags.
    shadowing_db:
        Large-scale shadowing realisation for this trial (zero-mean, dB).
    fading_power_gain:
        Small-scale fading realisation (linear, unit mean) for this
        attempt. Forward and reverse share it — backscatter channels are
        reciprocal within a coherence time.
    interference_dbm:
        In-band interference power at the reader's receiver, if any.
    tag_gain_override_dbi:
        When given, use this tag antenna gain instead of evaluating
        ``env.tag_antenna``'s dipole pattern — the hook through which
        alternative inlay designs (dual dipole, metal mount, ...)
        replace the stock pattern.

    Returns
    -------
    LinkResult
        Power levels and pass/fail for both directions.
    """
    terms = compute_link_terms(env, geometry, tag_gain_override_dbi)
    return compose_link(
        env,
        tx_power_dbm,
        terms,
        obstruction_loss_db=obstruction_loss_db,
        tag_detuning_db=tag_detuning_db,
        coupling_penalty_db=coupling_penalty_db,
        shadowing_db=shadowing_db,
        fading_power_gain=fading_power_gain,
        interference_dbm=interference_dbm,
    )


def compose_link(
    env: LinkEnvironment,
    tx_power_dbm: float,
    terms: LinkTerms,
    obstruction_loss_db: float = 0.0,
    tag_detuning_db: float = 0.0,
    coupling_penalty_db: float = 0.0,
    shadowing_db: float = 0.0,
    fading_power_gain: float = 1.0,
    interference_dbm: Optional[float] = None,
) -> LinkResult:
    """Assemble a :class:`LinkResult` from precomputed geometry terms.

    This is the arithmetic half of :func:`evaluate_link` — same
    operations in the same order, so results are bit-identical whether
    the terms come fresh from :func:`compute_link_terms` or from a
    per-pass cache.
    """
    if fading_power_gain < 0.0:
        raise ValueError(
            f"fading power gain must be non-negative, got {fading_power_gain!r}"
        )
    reader_gain = terms.reader_gain_dbi
    tag_gain = terms.tag_gain_dbi
    pol_loss = terms.polarization_loss_db
    # Shadowing joins the deterministic path gain exactly as
    # ``ChannelModel.large_scale_gain_db`` adds it.
    path_gain = terms.path_gain_db + shadowing_db
    fading_db = linear_to_db(max(fading_power_gain, 1e-12))
    one_way_losses = obstruction_loss_db + tag_detuning_db + coupling_penalty_db

    forward_power = (
        tx_power_dbm
        - env.cable_loss_db
        + reader_gain
        + path_gain
        + tag_gain
        - pol_loss
        - one_way_losses
        + fading_db
    )
    forward_margin = forward_power - env.tag_sensitivity_dbm
    activated = forward_margin >= 0.0

    # Reverse link: the tag re-radiates a fraction of the incident power
    # back over the same (reciprocal) channel.
    reverse_power = (
        forward_power
        - env.backscatter_loss_db
        + tag_gain
        + path_gain
        + reader_gain
        - pol_loss
        - one_way_losses
        - env.cable_loss_db
        + fading_db
    )
    effective_floor = env.reader_sensitivity_dbm
    if interference_dbm is not None:
        # Interference desensitizes the receiver: the backscatter signal
        # must now clear interference + required SINR, not just thermal
        # sensitivity.
        effective_floor = max(
            effective_floor, interference_dbm + env.required_sinr_db
        )
    reverse_margin = reverse_power - effective_floor
    decodable = reverse_margin >= 0.0

    return LinkResult(
        forward_power_dbm=forward_power,
        reverse_power_dbm=reverse_power,
        activated=activated,
        decodable=decodable,
        forward_margin_db=forward_margin,
        reverse_margin_db=reverse_margin,
    )


def forward_waterfall(
    tx_power_dbm: float,
    cable_loss_db: float,
    reader_gain_dbi: float,
    path_gain_db: float,
    shadowing_db: float,
    tag_gain_dbi: float,
    polarization_loss_db: float,
    obstruction_db: float,
    detuning_db: float,
    coupling_db: float,
    fault_loss_db: float = 0.0,
    fading_db: float = 0.0,
) -> List[Tuple[str, float]]:
    """Ordered signed contributions of one forward link budget, in dB.

    Each entry is ``(term name, contribution)`` with losses already
    negated, so summing the contributions in list order reproduces the
    forward power at the tag — the waterfall
    ``python -m repro explain`` prints. The argument names match the
    fields of :class:`repro.obs.records.DwellLinkRecord`, which is the
    record this renders.
    """
    return [
        ("tx power (dBm)", tx_power_dbm),
        ("port fault loss", -fault_loss_db),
        ("cable loss", -cable_loss_db),
        ("reader antenna gain", reader_gain_dbi),
        ("path gain", path_gain_db),
        ("shadowing", shadowing_db),
        ("tag antenna gain", tag_gain_dbi),
        ("polarization loss", -polarization_loss_db),
        ("obstruction loss", -obstruction_db),
        ("tag detuning", -detuning_db),
        ("tag coupling", -coupling_db),
        ("small-scale fading", fading_db),
    ]


def _boresight_geometry(distance_m: float) -> LinkGeometry:
    """The canonical planning geometry: tag on boresight, broadside."""
    return LinkGeometry(
        antenna_position=Vec3(0.0, 1.0, 0.0),
        antenna_boresight=Vec3.unit_z(),
        tag_position=Vec3(0.0, 1.0, distance_m),
        tag_axis=Vec3.unit_x(),
    )


def _readable_at(env: LinkEnvironment, tx_power_dbm: float, d: float) -> bool:
    """Deterministic (no shadowing/fading) readability at distance ``d``."""
    return evaluate_link(env, tx_power_dbm, _boresight_geometry(d)).readable


def _forward_closes_upper_bound(
    env: LinkEnvironment, tx_power_dbm: float, d: float
) -> bool:
    """Could the forward link possibly close at ``d``?

    Uses the monotone constructive-maximum path-gain envelope, so this
    predicate is true-then-false over increasing distance even where
    the exact two-ray gain ripples. A ``False`` here proves no link
    (forward, hence readable) closes at ``d`` or beyond.
    """
    geometry = _boresight_geometry(d)
    terms = compute_link_terms(env, geometry)
    path_ub = env.channel.path_loss.path_gain_upper_bound_db(
        geometry.distance_m,
        tx_height_m=geometry.antenna_position.y,
        rx_height_m=geometry.tag_position.y,
    )
    forward_ub = (
        tx_power_dbm
        - env.cable_loss_db
        + terms.reader_gain_dbi
        + path_ub
        + terms.tag_gain_dbi
        - terms.polarization_loss_db
    )
    return forward_ub >= env.tag_sensitivity_dbm


def _linear_scan_read_range_m(
    env: LinkEnvironment,
    tx_power_dbm: float,
    step_m: float = 0.01,
    max_range_m: float = 30.0,
) -> float:
    """Reference implementation: exhaustive scan of the distance grid.

    Kept as the oracle the fast search is regression-tested against.
    """
    if step_m <= 0.0:
        raise ValueError(f"step must be positive, got {step_m!r}")
    best = 0.0
    for k in range(1, int(max_range_m / step_m) + 1):
        d = k * step_m
        if _readable_at(env, tx_power_dbm, d):
            best = d
    return best


def free_space_read_range_m(
    env: LinkEnvironment,
    tx_power_dbm: float,
    step_m: float = 0.01,
    max_range_m: float = 30.0,
) -> float:
    """Largest boresight distance at which the link still closes.

    A deterministic (no shadowing/fading) search used for sanity checks
    and planning; the stochastic read probability around this range is
    what the experiments measure.

    The two-ray ripple makes readability non-monotone, so a plain
    bisection could land on a local dropout. Instead the search runs in
    two stages, returning exactly what the exhaustive grid scan would:

    1. **coarse bracket** — bisect the *monotone* constructive-maximum
       envelope (:meth:`~repro.rf.propagation.PathLossModel.path_gain_upper_bound_db`)
       to find the farthest grid point at which any link could possibly
       close; beyond it the forward budget provably fails;
    2. **refine** — walk the fine grid downward from that bracket to
       the first actually readable point.

    The envelope sits only a few dB above the exact gain, so stage 2
    touches a small slice of the grid and the whole search costs a few
    dozen link evaluations instead of thousands.
    """
    if step_m <= 0.0:
        raise ValueError(f"step must be positive, got {step_m!r}")
    n = int(max_range_m / step_m)
    if n < 1:
        return 0.0
    if not _forward_closes_upper_bound(env, tx_power_dbm, 1 * step_m):
        return 0.0
    # Largest grid index where the envelope still closes (monotone
    # true -> false over k).
    lo, hi = 1, n
    if _forward_closes_upper_bound(env, tx_power_dbm, n * step_m):
        lo = n
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _forward_closes_upper_bound(env, tx_power_dbm, mid * step_m):
                lo = mid
            else:
                hi = mid
    for k in range(lo, 0, -1):
        if _readable_at(env, tx_power_dbm, k * step_m):
            return k * step_m
    # The envelope admitted a bracket, but the *exact* link closes
    # nowhere on the grid — not even at the minimum distance (the
    # envelope sits above the true two-ray gain, so this is a real
    # case, not dead code). Report "no read range" rather than the
    # stale envelope bracket ``lo * step_m``.
    return 0.0
