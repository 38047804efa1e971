"""Deterministic simulation substrate: events, seeded RNG streams, traces."""

from .events import SlotOutcome, TagReadEvent
from .rng import RandomStream, SeedSequence
from .trace import ReadTrace

__all__ = [
    "SlotOutcome",
    "TagReadEvent",
    "RandomStream",
    "SeedSequence",
    "ReadTrace",
]
