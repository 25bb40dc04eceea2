"""Base classes for UC entities: parties and ideal functionalities.

A *party* is a protocol machine driven by the environment.  A
*functionality* is an incorruptible trusted machine that parties (and the
adversary, on behalf of corrupted parties) interact with via direct method
calls; method calls model the instantaneous message exchange of the UC
model.

The crucial modelling point for this paper is the **leak** mechanism:
functionalities inform the adversary of honest activity *synchronously*
(:meth:`Functionality.leak`).  Because the callback runs before control
returns to the functionality, the adversary can corrupt the sender at that
exact moment — corruption "in the middle of a round", the strong non-atomic
model of [HZ10] under which plain broadcast is unachievable and which the
paper's TLE-based stack is designed to survive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from repro.uc.errors import CorruptionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session


class Entity:
    """Anything registered in a session: has an id and helpers."""

    def __init__(self, session: "Session", entity_id: str) -> None:
        self.session = session
        self.entity_id = entity_id

    @property
    def time(self) -> int:
        """Current global round (a ``Read_Clock`` to ``Gclock``)."""
        return self.session.clock.time

    def record(self, kind: str, detail: Any = None) -> None:
        """Append an event to the session trace, attributed to this entity.

        A light session's log keeps nothing, so it is neither called nor
        handed the clock.
        """
        session = self.session
        log = session.log
        if log.keeps:
            log.record(session.clock.time, kind, self.entity_id, detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.entity_id}>"


class Party(Entity):
    """A protocol machine.

    Subclasses implement the protocol logic by overriding:

    * input methods (named per protocol, e.g. ``broadcast``) — invoked by
      the environment to hand the party an input from Z;
    * :meth:`on_deliver` — a functionality delivered a message to us;
    * :meth:`end_of_round` — the work this protocol performs upon the
      environment's ``Advance_Clock`` (most of the paper's protocol logic
      lives here, cf. Figures 9, 11, 12, 14, 16).

    Outputs destined for the environment Z are collected in
    :attr:`outputs`.
    """

    def __init__(self, session: "Session", pid: str) -> None:
        super().__init__(session, pid)
        self.pid = pid
        self.outputs: List[Any] = []
        #: Functionalities to notify (in order) when this party ticks; each
        #: receives ``on_party_tick`` — the paper's "Upon receiving
        #: Advance_Clock from P" clause.
        self.clock_recipients: List["Functionality"] = []
        #: Delivery routing table: source fid -> handler(message, source).
        #: The default :meth:`on_deliver` dispatches through it, so stacked
        #: protocols can claim the deliveries of the layer below them.
        self.route: dict = {}
        session.register_party(self)

    # -- state ----------------------------------------------------------

    @property
    def corrupted(self) -> bool:
        """Whether this party is currently corrupted."""
        return self.pid in self.session.corrupted

    def output(self, value: Any) -> None:
        """Return ``value`` to the environment Z."""
        self.outputs.append(value)
        self.record("output", value)

    # -- hooks ----------------------------------------------------------

    def on_deliver(self, message: Any, source: "Functionality") -> None:
        """A functionality delivered ``message`` to this party.

        The default dispatches through :attr:`route`; unrouted deliveries
        are silently dropped (subclasses either register routes or
        override this method wholesale).  :meth:`Functionality.deliver`
        does the same lookup itself for a party that keeps this default.
        """
        handler = self.route.get(source.fid)
        if handler is not None:
            handler(message, source)

    def end_of_round(self) -> None:
        """Round work performed upon ``Advance_Clock`` (override).

        :meth:`advance_clock` skips this base no-op: it calls only a
        subclass override or an instance-assigned hook.
        """

    # -- the Advance_Clock template --------------------------------------

    def advance_clock(self) -> None:
        """Process the environment's ``Advance_Clock`` command.

        Follows the structure shared by all the paper's protocols: perform
        the end-of-round work, forward ``Advance_Clock`` down the hybrid
        functionality chain, then tick ``Gclock``.

        Raises:
            CorruptionError: if the environment drives a corrupted party
                (corrupted parties are the adversary's to drive).
        """
        session = self.session
        pid = self.pid
        if pid in session.corrupted:
            raise CorruptionError(f"{pid} is corrupted; Z cannot drive it")
        clock = session.clock
        if pid in clock.ticked:
            # Paper: "if this is the first time P has received
            # Advance_Clock during round Cl" — duplicates are ignored.
            return
        # The base hook is a no-op: call only a subclass override or an
        # instance-assigned hook, checked against the live base method.
        if "end_of_round" in self.__dict__ or self.__class__.end_of_round is not Party.end_of_round:
            self.end_of_round()
        for functionality in self.clock_recipients:
            functionality.on_party_tick(self)
        clock.tick(pid)


class Functionality(Entity):
    """An ideal (incorruptible) functionality.

    Subclasses implement the command interfaces of the paper's figures as
    plain methods.  Shared plumbing:

    * :meth:`leak` — hand information to the adversary synchronously;
    * :meth:`deliver` — output a message to a party;
    * :meth:`deliver_all` — output to every party (e.g. broadcast);
    * :meth:`on_party_tick` — per-party ``Advance_Clock`` clause;
    * :meth:`on_round_advanced` — the global round advanced.
    """

    def __init__(self, session: "Session", fid: str) -> None:
        super().__init__(session, fid)
        self.fid = fid
        session.register_functionality(self)

    # -- adversary interaction -------------------------------------------

    def leak(self, detail: Any) -> None:
        """Send ``detail`` to the adversary (synchronously).

        The adversary's :meth:`~repro.uc.adversary.Adversary.on_leak` hook
        runs *now*; it may corrupt parties or invoke adversarial interfaces
        of this functionality before control returns.
        """
        session = self.session
        log = session.log
        if log.keeps:
            log.record(session.clock.time, "leak", self.entity_id, detail)
        session.adversary.on_leak(self, detail)

    def require_corrupted(self, pid: str) -> None:
        """Guard for adversarial interfaces acting on behalf of a party.

        Raises:
            CorruptionError: if ``pid`` is honest.
        """
        if not self.session.is_corrupted(pid):
            raise CorruptionError(
                f"{self.fid}: adversary acted on behalf of honest party {pid!r}"
            )

    # -- party interaction ------------------------------------------------

    def deliver(self, party: Party, message: Any) -> None:
        """Output ``message`` to ``party``.

        Deliveries to corrupted parties route to the adversary (a corrupted
        machine is the adversary's puppet; its inbox is the adversary's).
        A party that keeps the base :meth:`Party.on_deliver` (checked
        against the live base method) has its :attr:`Party.route` handler
        called here directly.
        """
        session = self.session
        log = session.log
        pid = party.pid
        if log.keeps:
            log.record(session.clock.time, "deliver", self.entity_id, (pid, message))
        session.metrics.count_message(self.fid)
        if pid in session.corrupted:
            session.adversary.on_leak(self, ("Deliver", pid, message))
        elif "on_deliver" in party.__dict__ or party.__class__.on_deliver is not Party.on_deliver:
            party.on_deliver(message, self)
        else:
            handler = party.route.get(self.fid)
            if handler is not None:
                handler(message, self)

    def deliver_all(self, message: Any, exclude: Optional[Sequence[str]] = None) -> None:
        """Output ``message`` to every registered party (optionally excluding some)."""
        excluded = set(exclude or ())
        for party in list(self.session.parties.values()):
            if party.pid not in excluded:
                self.deliver(party, message)

    # -- wiring -------------------------------------------------------------

    def attach(self, party: Party) -> None:
        """Wire ``party`` into this functionality, once, at construction.

        Ideal functionalities keep no per-party wiring, so the base does
        nothing.  Protocol adapters override it to create the party's
        state, its delivery routes and its clock-chain entry; their hot
        paths then assume every party that reaches them has attached.
        """

    # -- clock hooks --------------------------------------------------------

    def on_party_tick(self, party: Party) -> None:
        """``Advance_Clock`` received from ``party`` (override as needed)."""

    def on_round_advanced(self, new_time: int) -> None:
        """The global clock advanced to ``new_time`` (override as needed).

        ``Gclock`` calls only functionalities that replace this base
        no-op, by subclass override or by an instance attribute set
        before the first advance after registration
        (:attr:`~repro.uc.session.Session.round_listeners`).
        """
