"""Unfair broadcast realized by Dolev–Strong runs (FRBC made concrete).

``ΠUBC`` (Figure 9) composes per-message ``FRBC`` instances; Fact 1 says
each is realizable by Dolev–Strong over ``Fcert``.  Here every broadcast
request starts a :class:`~repro.protocols.dolev_strong.DolevStrongRun`
over authenticated point-to-point channels, so :class:`DolevStrongUBCAdapter`
is an unfair broadcast whose agreement rests on *signatures*.

The price is latency: a run with corruption bound ``t`` delivers after
``t + 1`` relay rounds instead of within the sender's round.  Protocols
above must budget for it — ΠSBC over this layer needs its release delay
``Δ`` to exceed the Dolev–Strong latency so that ciphertext broadcasts
started before ``t_end`` still land before ``τ_rel`` (exercised in
``tests/test_ds_ubc.py`` and the E1b ablation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.functionalities.certification import Certification
from repro.functionalities.network import SyncNetwork
from repro.protocols.dolev_strong import BOTTOM, DolevStrongRun, wire_tag
from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session


class DolevStrongUBCAdapter(Functionality):
    """ΠUBC with each FRBC instance realized by Dolev–Strong.

    Drop-in for :class:`~repro.functionalities.ubc.UnfairBroadcast`
    (modulo latency).  Unfairness is faithful: the initial signed sends
    traverse the rushing network, so the adversary sees each message the
    round it is sent and a corrupted sender's key signs whatever the
    adversary likes.  A run whose decision is ``⊥`` delivers nothing.

    Args:
        session: Owning session.
        pids: The fixed party set of the broadcast network.
        t: Corruption bound (runs last ``t + 1`` relay rounds).
        fid: Functionality id; run ``i`` is tagged ``(fid, i)``.
    """

    def __init__(self, session: "Session", pids: List[str], t: int, fid: str = "DSUBC") -> None:
        super().__init__(session, fid)
        self.t = t
        self.latency = t + 2  # t+1 relays + the decision round
        self.network = SyncNetwork(session, fid=f"Net:{fid}")
        self.certs = {pid: Certification(session, signer=pid, fid=f"Fcert:{fid}:{pid}") for pid in pids}
        #: Every run started, by tag ``(fid, index)``.
        self.runs: Dict[Tuple[str, int], DolevStrongRun] = {}
        #: Per attached party: the runs it has not decided yet, oldest first.
        self._open: Dict[str, List[DolevStrongRun]] = {}

    def attach(self, party: Party) -> None:
        """Route the network to this adapter and join the clock chain."""
        party.route[self.network.fid] = lambda message, source: self._on_net(party, message)
        self._open.setdefault(party.pid, [])
        if self not in party.clock_recipients:
            party.clock_recipients.append(self)

    def broadcast(self, party: Party, message: Any) -> None:
        """Start a Dolev–Strong run with ``party`` as sender."""
        if party.corrupted:
            raise ValueError("honest interface used by corrupted party")
        self._start_run(party.pid, message)

    def adv_broadcast(self, pid: str, message: Any) -> None:
        """Corrupted sender: the adversary signs and starts a run."""
        self.require_corrupted(pid)
        self._start_run(pid, message)

    def _start_run(self, sender: str, message: Any) -> None:
        tag = (self.fid, len(self.runs))
        run = self.runs[tag] = DolevStrongRun(
            self.session, self.network, self.certs, sender, self.t, tag,
            start_time=self.time,
        )
        run.input(message)
        for open_runs in self._open.values():
            open_runs.append(run)
        # The initial sends leave now: the rushing adversary sees their
        # metadata at once, their content on delivery to corrupted parties.
        run.flush(sender)

    def _on_net(self, party: Party, message: Any) -> None:
        kind, payload, _wire_sender = message
        if kind == "P2P":
            run = self.runs.get(wire_tag(payload))
            if run is not None:
                run.receive(party.pid, payload)

    def on_party_tick(self, party: Party) -> None:
        """Step ``party``'s open runs; deliver each non-⊥ decision once.

        A second tick in a round (ΠSBC forwards its ticks here too) is a no-op.
        """
        open_runs = self._open[party.pid]
        for run in list(open_runs):
            if run.step(party.pid):
                open_runs.remove(run)
                value = run.decision(party.pid)
                if value != BOTTOM:
                    self.deliver(party, ("Broadcast", value, run.sender))
