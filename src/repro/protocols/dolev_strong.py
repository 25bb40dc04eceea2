"""The Dolev–Strong broadcast protocol ΠRBC (realizing ``FRBC``, Fact 1).

Classic authenticated broadcast [DS82]: the sender signs its value and
sends it to everyone; in relay round ``k`` a party accepts a value carried
by a chain of ``k`` valid signatures (the sender's first, all signers
distinct), appends its own signature and forwards.  After ``t+1`` relay
rounds a party outputs the unique accepted value, or ``⊥`` if it accepted
zero or several — with ``t+1`` rounds, any value accepted by one honest
party is accepted by all, which gives *agreement* for any ``t < n``.

Validity is the *relaxed* kind of [GKKZ11]: only a sender that remains
honest is guaranteed to have its value delivered unmodified; an adaptively
corrupted sender's signature key is the adversary's, so equivocation
becomes possible and parties may output ``⊥`` or an adversarial value —
but never *disagree*.

Every signature of a run covers ``(sid, tag, sender, value)``, binding a
chain to one session, run and sender.  :class:`DolevStrongRun` holds one
run with every party's machine folded in; :class:`DolevStrongParty` (one
single-shot instance) and :class:`~repro.protocols.ds_ubc.DolevStrongUBCAdapter`
(one run per ΠUBC request) are its two entry points.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.functionalities.certification import Certification
from repro.functionalities.network import SyncNetwork
from repro.uc.encoding import encode
from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

#: Output symbol when agreement on a single value failed.
BOTTOM = "Bottom"

#: A signature chain: ((pid, signature), ...), sender's signature first.
Chain = Tuple[Tuple[str, bytes], ...]


def wire_tag(payload: Any) -> Optional[Hashable]:
    """The run tag of a well-formed wire message ``(tag, value, chain)``, else ``None``.

    The receive path's one shape check: a hashable tag and a tuple chain of
    ``(str, bytes)`` pairs, so a corrupted party's junk cannot crash a round.
    """
    if not (isinstance(payload, tuple) and len(payload) == 3):
        return None
    tag, _value, chain = payload
    if not isinstance(chain, tuple) or not all(
        isinstance(link, tuple) and len(link) == 2
        and isinstance(link[0], str) and isinstance(link[1], bytes)
        for link in chain
    ):
        return None
    try:
        hash(tag)
    except TypeError:
        return None
    return tag


class DolevStrongRun:
    """One Dolev–Strong run, every party's machine folded into one object.

    Args:
        session: Owning session.
        network: The synchronous point-to-point network.
        certs: Map pid -> ``Fcert`` instance of that signer.
        sender: The designated sender's pid.
        t: Corruption bound; the run takes ``t + 1`` relay rounds.
        tag: Names the run on the wire and in every signed payload.
        start_time: The run's relay round 0 (``None`` until armed).
    """

    def __init__(
        self, session: "Session", network: SyncNetwork, certs: Dict[str, Certification],
        sender: str, t: int, tag: Hashable, start_time: Optional[int] = None,
    ) -> None:
        self.session = session
        self.network = network
        self.certs = certs
        self.sender = sender
        self.t = t
        self.tag = tag
        self.start_time = start_time
        #: Per party: values accepted so far, in order (two mean ⊥).
        self.accepted: Dict[str, List[Any]] = {}
        self.inbox: Dict[str, List[Tuple[Any, Chain]]] = {}
        self.outbox: Dict[str, List[Tuple[Any, Chain]]] = {}
        self.decided: Set[str] = set()

    def payload(self, value: Any) -> bytes:
        """The bytes every signature on ``value`` in this run covers."""
        return encode((self.session.sid, self.tag, self.sender, value))

    def input(self, value: Any) -> None:
        """The sender's input: accept, sign and queue the first send."""
        self._accept(self.sender, value, (), relay=True)

    def receive(self, pid: str, payload: Tuple[Any, Any, Chain]) -> None:
        """Queue a message whose :func:`wire_tag` named this run for ``pid``."""
        if pid not in self.decided:
            _tag, value, chain = payload
            self.inbox.setdefault(pid, []).append((value, chain))

    def step(self, pid: str) -> bool:
        """``pid``'s round work; True the one round it decides (``k = t+1``)."""
        if self.start_time is None or pid in self.decided:
            return False
        k = self.session.clock.time - self.start_time  # relative relay round
        if k >= 1:
            relay = k <= self.t and not self.session.is_corrupted(pid)
            accepted = self.accepted.setdefault(pid, [])
            for value, chain in self.inbox.pop(pid, ()):
                if len(accepted) >= 2:
                    break  # already certain of disagreement: ⊥ regardless
                if value not in accepted and self.valid_chain(value, chain, k):
                    self._accept(pid, value, chain, relay)
        self.flush(pid)
        if k <= self.t:
            return False
        self.decided.add(pid)
        return True

    def decision(self, pid: str) -> Any:
        """``pid``'s output: its one accepted value, else ``⊥``."""
        accepted = self.accepted.get(pid, ())
        return accepted[0] if len(accepted) == 1 else BOTTOM

    def valid_chain(self, value: Any, chain: Chain, k: int) -> bool:
        """At least ``k`` links, sender first, signers distinct, all verify."""
        if len(chain) < max(k, 1) or chain[0][0] != self.sender or len({p for p, _ in chain}) != len(chain):
            return False
        try:
            payload = self.payload(value)
        except TypeError:  # an unencodable value carries no signature
            return False
        return all(pid in self.certs and self.certs[pid].verify(payload, signature) for pid, signature in chain)

    def flush(self, pid: str) -> None:
        """Send ``pid``'s queue to every party (as the adversary if corrupted)."""
        session = self.session
        for value, chain in self.outbox.pop(pid, ()):
            message = (self.tag, value, chain)
            if session.is_corrupted(pid):
                for recipient in session.parties:
                    self.network.adv_send(pid, recipient, message)
            else:
                self.network.send_all(session.parties[pid], message)

    def _accept(self, pid: str, value: Any, chain: Chain, relay: bool) -> None:
        self.accepted.setdefault(pid, []).append(value)
        if relay:
            signature = self.certs[pid].sign(pid, self.payload(value))
            self.outbox.setdefault(pid, []).append((value, chain + ((pid, signature),)))


class DolevStrongParty(Party):
    """One party of a single-shot instance: a thin ``Party`` over its shared run.

    Outputs ``("Broadcast", value | BOTTOM, sender)`` at relative round ``t + 1``.
    """

    def __init__(self, session: "Session", pid: str, run: DolevStrongRun) -> None:
        super().__init__(session, pid)
        self.run = run
        self._sent = False

    @property
    def decided(self) -> bool:
        """Whether this party has output its decision."""
        return self.pid in self.run.decided

    def broadcast(self, message: Any) -> None:
        """Sender input: sign and queue the initial send (this round)."""
        if self.pid != self.run.sender:
            raise ValueError(f"{self.pid} is not the designated sender")
        if self._sent:
            return
        self._sent = True
        self.arm()
        self.run.input(message)

    def arm(self, start_time: Optional[int] = None) -> None:
        """Fix the instance's start round (part of the session setup), once.

        Call it on every party when the sender gets its input, or when the
        adversary starts a corrupted-sender run.
        """
        if self.run.start_time is None:
            self.run.start_time = self.time if start_time is None else start_time

    def on_deliver(self, message: Any, source: Functionality) -> None:
        kind, payload, _sender = message
        if kind == "P2P" and wire_tag(payload) == self.run.tag:
            self.run.receive(self.pid, payload)

    def end_of_round(self) -> None:
        run = self.run
        if run.step(self.pid):
            self.output(("Broadcast", run.decision(self.pid), run.sender))


def make_dolev_strong_instance(
    session: "Session",
    pids: Sequence[str],
    sender: str,
    t: int,
    instance: str = "ds0",
    network: Optional[SyncNetwork] = None,
    certs: Optional[Dict[str, Certification]] = None,
) -> Dict[str, DolevStrongParty]:
    """Wire up one instance, its run tagged ``("DS", instance)``; returns pid -> party."""
    network = network or SyncNetwork(session, fid=f"Net:{instance}")
    certs = certs or {
        pid: Certification(session, signer=pid, fid=f"Fcert:{instance}:{pid}")
        for pid in pids
    }
    run = DolevStrongRun(session, network, certs, sender, t, tag=("DS", instance))
    return {pid: DolevStrongParty(session, pid, run) for pid in pids}
