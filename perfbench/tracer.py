"""Layer tracing for the portal-pass benchmark, installed from outside the program.

The tracer replaces public functions of each layer *where the pass
simulator and the reader stack look them up* — a module global such as
``repro.world.simulation.segment_sphere_chord_length`` or a class
attribute such as ``PortalPassSimulator.run_pass`` — with timing
wrappers, and puts every original back on :meth:`Tracer.uninstall`.
Nothing under ``src/`` changes.

Bookkeeping:

* every wrapper keeps a frame on one stack; on exit it adds its
  duration to the parent's child time, so a span's *self* time is its
  duration minus its children's, and the self times inside a pass add
  up to the pass's duration;
* pass, round, channel-callback, ``run_pass`` and ``run_trials`` calls
  are stored as individual spans (name, start, end, parent span, pass
  id) in flat arrays;
* every call — chord tests alone run to hundreds of thousands a pass —
  is aggregated into count, total and self time per ``(name, parent
  name)``; only the spans above are kept one by one, so memory stays
  bounded.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Names whose calls are kept as individual spans.
SPAN_NAMES = (
    "pass",
    "core.harness",
    "world.run_pass",
    "protocol.round",
    "world.channel",
)

#: PassRecording and Recorder methods the simulator calls when recording.
_RECORDING_HOOKS = (
    "link",
    "slot",
    "masked_dwell",
    "round_complete",
    "supervisor_event",
    "rng_stream",
    "finalize",
)

#: FaultPlan queries the simulator, the transport and the scenario make.
_PLAN_QUERIES = (
    "reader_down",
    "reader_outages",
    "crash_restarts",
    "antenna_state",
    "interference_dbm_at",
    "poll_fault_for",
    "wire_corruption_for",
    "coverage_report",
)


class Tracer:
    """Span stack, aggregates and the patch table of one traced run."""

    def __init__(self) -> None:
        # frame: [child_seconds, name, span_index]
        self._stack: List[list] = [[0.0, "<root>", -1]]
        #: name -> parent name -> [count, total_s, self_s, hits]
        self.aggregates: Dict[str, Dict[str, list]] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.pass_id = -1
        #: Sum of self times inside the current pass (checks bookkeeping).
        self.pass_self_s = 0.0
        #: Summed self time of each finished pass, in pass order.
        self.pass_self: List[float] = []
        #: Per-round protocol results: slots, useful slots, reads.
        self.slots = 0
        self.useful_slots = 0
        self.reads = 0
        self._epoch = _perf()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        hit: Optional[Callable[[Any], bool]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``; ``hit`` counts qualifying results."""
        stack = self._stack
        by_parent = self.aggregates.setdefault(name, {})
        keep = name in SPAN_NAMES
        name_id = SPAN_NAMES.index(name) if keep else -1
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = -1
            if keep:
                span = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent[2])
                tracer.span_pass.append(tracer.pass_id)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            frame = [0.0, name, span]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                parent[0] += duration
                tracer.pass_self_s += own
                entry = by_parent.get(parent[1])
                if entry is None:
                    entry = by_parent[parent[1]] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                if keep:
                    tracer.span_start[span] = start - tracer._epoch
                    tracer.span_end[span] = end - tracer._epoch
            if hit is not None and hit(result):
                entry[3] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_pass(self, fn: Callable) -> Callable:
        """Root span of one portal pass; each call opens a new pass id."""
        inner = self.wrap("pass", fn)

        def traced_pass(*args, **kwargs):
            self.pass_id += 1
            self.pass_self_s = 0.0
            try:
                return inner(*args, **kwargs)
            finally:
                self.pass_self.append(self.pass_self_s)

        return traced_pass

    def _wrap_round(self, fn: Callable) -> Callable:
        """``run_inventory_round`` plus its ``channel`` argument.

        The channel callback is where the protocol calls back into the
        world model, so it gets its own span per call.
        """
        wrap = self.wrap

        def round_with_channel(population, channel, *args, **kwargs):
            result = fn(population, wrap("world.channel", channel), *args, **kwargs)
            self.slots += len(result.slots)
            self.useful_slots += result.successes
            self.reads += len(result.read_epcs)
            return result

        return self.wrap("protocol.round", round_with_channel)

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_function(self, owner: Any, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self.wrap(name, vars(owner)[attr], **kw))

    def install(self) -> None:
        """Wrap every traced lookup site; :meth:`uninstall` undoes it."""
        from repro.core import experiment
        from repro.faults import injectors
        from repro.faults.plan import FaultPlan
        from repro.obs.recorder import PassRecording, Recorder, TracingSeedSequence
        from repro.reader import supervisor, wire
        from repro.reader.backend import TrackingBackend
        from repro.sim.rng import SeedSequence
        from repro.world import motion, simulation

        sim = simulation
        pps = sim.PortalPassSimulator
        fn = self._patch_function
        # core
        fn(experiment, "run_trials", "core.harness")
        # world
        fn(pps, "run_pass", "world.run_pass")
        fn(pps, "_obstruction_db", "world.obstruction")
        fn(motion.LinearPass, "position_at", "world.motion")
        fn(motion.StationaryPlacement, "position_at", "world.motion")
        # rf, as the simulator looks it up
        fn(sim, "segment_sphere_chord_length", "rf.chord", hit=_positive)
        fn(sim, "compute_link_terms", "rf.link_terms")
        fn(sim, "compose_link", "rf.compose")
        # sim
        fn(SeedSequence, "trial_stream", "sim.stream")
        # protocol
        self._patch(sim, "run_inventory_round", self._wrap_round(sim.run_inventory_round))
        fn(sim, "interference_at_receiver_dbm", "protocol.interference")
        # obs
        for hook in _RECORDING_HOOKS:
            fn(PassRecording, hook, f"obs.{hook}")
        fn(Recorder, "begin_pass", "obs.begin_pass")
        fn(Recorder, "absorb_trial_set", "obs.absorb_trial_set")
        fn(TracingSeedSequence, "trial_stream", "obs.rng_trace")
        fn(pps, "_link_record", "obs.link_record")
        # reader
        fn(supervisor.ReaderFailoverGroup, "poll", "reader.poll")
        fn(wire.PolledInterface, "poll", "reader.wire")
        fn(supervisor, "parse_tag_list", "reader.wire")
        fn(injectors, "parse_tag_list", "reader.wire")
        fn(injectors, "render_tag_list", "reader.wire")
        fn(TrackingBackend, "ingest", "reader.backend")
        fn(TrackingBackend, "decide", "reader.backend")
        # faults
        for query in _PLAN_QUERIES:
            fn(FaultPlan, query, "faults.plan")
        is_empty = vars(FaultPlan)["is_empty"]
        self._patch(
            FaultPlan, "is_empty", property(self.wrap("faults.plan", is_empty.fget))
        )

    def uninstall(self) -> List[str]:
        """Restore every patched attribute; return those not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        return self.unrestored()

    def unrestored(self) -> List[str]:
        """Patched attributes that do not hold their original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        return list(self._patches)

    # -- output ------------------------------------------------------------

    def aggregate_rows(self) -> List[list]:
        """``[name, parent, count, total_s, self_s, hits]`` rows, sorted."""
        return sorted(
            [name, parent, *entry]
            for name, by_parent in self.aggregates.items()
            for parent, entry in by_parent.items()
        )

    def write_spans(self, path: str) -> None:
        """Save the kept spans as compressed arrays (``numpy.load`` reads them).

        ``name`` indexes ``names`` (:data:`SPAN_NAMES`); ``parent`` is
        the index of the enclosing kept span (-1 at the top); times are
        seconds since the tracer was created.
        """
        import numpy

        with open(path, "wb") as handle:
            numpy.savez_compressed(
                handle,
                names=numpy.array(SPAN_NAMES),
                name=numpy.frombuffer(self.span_name, dtype=numpy.int32),
                parent=numpy.frombuffer(self.span_parent, dtype=numpy.int32),
                pass_id=numpy.frombuffer(self.span_pass, dtype=numpy.int32),
                start_s=numpy.frombuffer(self.span_start, dtype=numpy.float64),
                end_s=numpy.frombuffer(self.span_end, dtype=numpy.float64),
            )


def _positive(value: float) -> bool:
    return value > 0.0


def _noop() -> None:
    return None


def wrapper_cost_ns(calls: int = 200_000, repeats: int = 5) -> float:
    """Median extra cost of one aggregated wrapper call on a no-op, in ns.

    Measured inside an open span, as the real leaf wrappers run, minus
    the same loop calling the bare no-op.
    """
    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("noop", _noop)
        bare = _noop
        start = _perf()
        for _ in range(calls):
            bare()
        mid = _perf()
        for _ in range(calls):
            wrapped()
        end = _perf()
        costs.append(((end - mid) - (mid - start)) / calls * 1e9)
    costs.sort()
    return costs[len(costs) // 2]
