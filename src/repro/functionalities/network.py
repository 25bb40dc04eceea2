"""Synchronous authenticated point-to-point channels.

The paper's base communication model (Section 2.1): synchronous
point-to-point communication, messages sent in round ``r`` are delivered
at the start of round ``r+1``.  The adversary is *rushing*: it observes
every send immediately (leak) and may, for corrupted senders, inject
messages of its own.  Channels are authenticated — the recipient learns
the true sender identity — which is the standard PKI-backed assumption
Dolev–Strong builds on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session


class SyncNetwork(Functionality):
    """Round-synchronous authenticated channels with next-round delivery.

    Queued messages live in the session's
    :class:`~repro.runtime.scheduler.BatchScheduler` under this
    functionality's fid; the round-advance hook drains them as one batch
    in global FIFO order, under every backend.
    """

    def __init__(self, session: "Session", fid: str = "Net") -> None:
        super().__init__(session, fid)

    # -- sending -----------------------------------------------------------

    def send(self, party: Party, recipient: str, payload: Any) -> None:
        """Send ``payload`` to ``recipient``, delivered next round."""
        self._enqueue(party.pid, recipient, payload)

    def send_all(self, party: Party, payload: Any) -> None:
        """Send ``payload`` to every party (including self, for uniformity)."""
        for pid in self.session.parties:
            self._enqueue(party.pid, pid, payload)

    def adv_send(self, pid: str, recipient: str, payload: Any) -> None:
        """Inject a message from corrupted sender ``pid``."""
        self.require_corrupted(pid)
        self._enqueue(pid, recipient, payload)

    def _enqueue(self, sender: str, recipient: str, payload: Any) -> None:
        self.session.scheduler.enqueue(self.fid, recipient, (sender, payload))
        self.session.metrics.count_message("p2p")
        # Rushing adversary: sees traffic *metadata* the moment it is sent.
        # Channels are secure (authenticated + private): content reaches
        # the adversary only for corrupted recipients, via delivery.
        self.leak(("Sent", sender, recipient))

    # -- queries ------------------------------------------------------------

    def pending(self) -> int:
        """Messages queued for delivery at the next round advance."""
        return self.session.scheduler.pending(self.fid)

    # -- delivery ------------------------------------------------------------

    def on_round_advanced(self, new_time: int) -> None:
        """Deliver last round's queue in one batch (global FIFO order)."""
        parties = self.session.parties
        for recipient, (sender, payload) in self.session.scheduler.drain(self.fid):
            party = parties.get(recipient)
            if party is None:
                continue
            self.deliver(party, ("P2P", payload, sender))
