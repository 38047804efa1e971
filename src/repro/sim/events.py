"""Timestamped simulation events.

The classes here give the protocol and reader layers a shared
vocabulary of timestamped happenings so traces can be analysed
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TagReadEvent:
    """A successful tag singulation observed by a reader.

    Attributes mirror what the Matrics AR400's XML tag list reports:
    which antenna saw which EPC, when, and with what signal strength.
    """

    time: float
    epc: str
    reader_id: str
    antenna_id: str
    rssi_dbm: float

    def key(self) -> tuple:
        """Identity used for duplicate elimination in the middleware."""
        return (self.epc, self.reader_id, self.antenna_id)


@dataclass(frozen=True)
class SlotOutcome:
    """Result of one ALOHA slot during an inventory round."""

    time: float
    slot_index: int
    responders: int
    epc: Optional[str] = None

    @property
    def kind(self) -> str:
        """One of ``"empty"``, ``"success"``, ``"collision"``."""
        if self.responders == 0:
            return "empty"
        if self.epc is not None:
            return "success"
        return "collision"
