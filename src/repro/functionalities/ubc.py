"""The unfair broadcast functionality ``FUBC`` (paper Figure 8).

Multiple senders, many messages per round.  *Unfair* because the adversary
(a) sees each honest sender's message before delivery, and (b) if it
manages to corrupt the sender before the sender's ``Advance_Clock``, it may
replace the message via ``Allow``.  Agreement still holds: whatever is
delivered is delivered to everyone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session


class UnfairBroadcast(Functionality):
    """``FUBC``: concurrent multi-sender unfair broadcast."""

    def __init__(self, session: "Session", fid: str = "FUBC") -> None:
        super().__init__(session, fid)
        # tag -> (message, sender pid), insertion-ordered
        self._pending: Dict[bytes, Tuple[Any, str]] = {}

    # -- honest interface ----------------------------------------------------

    def broadcast(self, party: Party, message: Any) -> bytes:
        """``Broadcast`` request from honest ``party``; returns the tag.

        The full message is leaked to the adversary immediately — this is
        the defining unfairness of the layer.
        """
        if party.corrupted:
            raise ValueError("honest interface used by corrupted party")
        tag = self.session.fresh_tag()
        self._pending[tag] = (message, party.pid)
        self.leak(("Broadcast", tag, message, party.pid))
        return tag

    # -- adversarial interface ---------------------------------------------------

    def adv_broadcast(self, pid: str, message: Any) -> None:
        """Broadcast on behalf of corrupted ``pid``: immediate delivery."""
        self.require_corrupted(pid)
        self._deliver(message, pid)

    def adv_allow(self, tag: bytes, message: Any) -> None:
        """Replace the pending message under ``tag`` (sender now corrupted).

        Silently ignored unless the tag is pending *and* its sender is
        corrupted — the functionality never lets the adversary touch a
        still-honest sender's pending message.
        """
        entry = self._pending.get(tag)
        if entry is None:
            return
        _, sender = entry
        if not self.session.is_corrupted(sender):
            return
        del self._pending[tag]
        self._deliver(message, sender)

    # -- clock ----------------------------------------------------------------

    def on_party_tick(self, party: Party) -> None:
        """Flush the ticking party's pending messages to everyone."""
        if not self._pending:
            return
        flush = [
            (tag, message)
            for tag, (message, sender) in self._pending.items()
            if sender == party.pid
        ]
        for tag, message in flush:
            del self._pending[tag]
            self._deliver(message, party.pid)

    # -- queries ----------------------------------------------------------------

    def pending_of(self, pid: str) -> List[Any]:
        """Messages currently pending for sender ``pid`` (test helper)."""
        return [m for m, sender in self._pending.values() if sender == pid]

    # -- internals -----------------------------------------------------------------

    def _deliver(self, message: Any, sender: str) -> None:
        self.record("ubc_deliver", (sender, message))
        self.leak(("Delivered", message, sender))
        self.deliver_all(("Broadcast", message, sender))
