"""ΠSBC — simultaneous broadcast over UBC + TLE (Figure 14, Theorem 2).

The first sender of the session wakes everyone up with a special
``Wake_Up`` message over UBC; by UBC agreement all honest parties fix the
same broadcast period ``[t_awake, t_end = t_awake + Φ)`` and time-lock
release time ``τ_rel = t_end + ∆``.  To broadcast ``M``, a sender
time-locks a fresh ``ρ`` for ``τ_rel`` via ``FTLE``, masks
``y = M ⊕ FRO(ρ)``, and UBC-broadcasts ``(c, τ_rel, y)``.  Until
``τ_rel``, the semantic security of the TLE ciphertexts keeps every
honest message hidden — *simultaneity*: corrupted senders must commit
their own ciphertexts with no information about honest plaintexts.  At
``τ_rel``, everyone decrypts everything and outputs the sorted batch —
*liveness* without full participation.

Theorem 2: for ``Φ > delay`` and ``∆ > max(leak(Cl) − Cl)`` this realizes
``F^{Φ,∆,α}_SBC`` with ``α = max(leak(Cl) − Cl) + 1``, against adaptive
corruption of up to ``t < n`` parties.

Like the layers below, the per-party machines are folded into one
:class:`SBCProtocolAdapter` exposing the ideal
:class:`~repro.functionalities.sbc.SimultaneousBroadcast` interface;
:class:`SBCParty` is a thin top-of-stack party for direct use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.crypto.hashing import DIGEST_SIZE, xor_bytes
from repro.functionalities.random_oracle import RandomOracle
from repro.protocols.common import DEFAULT_MSG_LEN, pad_message, unpad_message
from repro.uc.encoding import sort_key
from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

WAKE_UP = "Wake_Up"

#: Dec responses that mean "no plaintext" (sentinel strings of FTLE).
_DEC_FAILURES = {None, "Bottom", "More_Time", "Invalid_Time"}


@dataclass
class _SBCState:
    pending: List[Tuple[bytes, Any]] = field(default_factory=list)  # (ρ, M)
    received: List[Tuple[Any, bytes]] = field(default_factory=list)  # (c, y)
    t_awake: Optional[int] = None
    t_end: Optional[int] = None
    tau_rel: Optional[int] = None
    #: Inputs received before the session woke up.  The figure stores a
    #: single ``firstP``; we queue all of them so honest inputs are never
    #: silently dropped (matching FSBC, which records every request made
    #: within the period — see DESIGN.md, deviations).
    pre_wake: List[Any] = field(default_factory=list)
    masked: set = field(default_factory=set)
    last_tick: int = -1
    delivered: bool = False


class SBCProtocolAdapter(Functionality):
    """ΠSBC: drop-in replacement for the ideal ``FΦ,∆,α_SBC``.

    Args:
        session: Owning session.
        ubc: Unfair broadcast below (ideal ``FUBC`` or ΠUBC adapter).
        tle: Time-lock service (ideal ``FTLE`` or ΠTLE adapter); must
            expose ``delay``, ``leak_fn`` and the Enc/Retrieve/Dec
            interface.
        oracle: Equivocation oracle with ``digest_size == msg_len``.
        phi: Broadcast period length Φ (requires ``Φ > tle.delay``).
        delta: Release delay ∆ (requires ``∆ > max(leak(Cl) − Cl)``).
        msg_len: Fixed wire size of masked messages.
    """

    def __init__(
        self,
        session: "Session",
        ubc: Functionality,
        tle: Functionality,
        oracle: RandomOracle,
        phi: int,
        delta: int,
        msg_len: int = DEFAULT_MSG_LEN,
        fid: str = "PiSBC",
    ) -> None:
        if oracle.digest_size != msg_len:
            raise ValueError("oracle digest size must equal msg_len")
        if phi <= tle.delay:
            raise ValueError("Theorem 2 requires phi > delay of FTLE")
        advantage = tle.leak_fn(0)  # max(leak(Cl) − Cl): constant here
        if delta <= advantage:
            raise ValueError("Theorem 2 requires delta > max(leak(Cl) − Cl)")
        super().__init__(session, fid)
        self.ubc = ubc
        self.tle = tle
        self.oracle = oracle
        self.phi = phi
        self.delta = delta
        self.alpha = advantage + 1  # Theorem 2's simulator advantage
        self.msg_len = msg_len
        self._state: Dict[str, _SBCState] = {}

    # -- wiring --------------------------------------------------------------

    def attach(self, party: Party) -> None:
        """Wire ``party`` into this SBC instance (routes + clock chain)."""
        party.route[self.ubc.fid] = lambda message, source: self._on_ubc(
            party, message
        )
        if hasattr(self.tle, "attach"):
            self.tle.attach(party)
        if self not in party.clock_recipients:
            party.clock_recipients.append(self)

    def _st(self, pid: str) -> _SBCState:
        state = self._state.get(pid)
        if state is None:
            state = self._state[pid] = _SBCState()
        return state

    # -- broadcast input ---------------------------------------------------------

    def broadcast(self, party: Party, message: Any) -> None:
        """``Broadcast`` input (Figure 14, first interface)."""
        if party.corrupted:
            raise ValueError("honest interface used by corrupted party")
        self._input(party, message)

    def adv_broadcast(self, pid: str, message: Any) -> None:
        """The adversary runs the sender code of corrupted ``pid``."""
        self.require_corrupted(pid)
        self._input(self.session.party(pid), message)

    def _input(self, party: Party, message: Any) -> None:
        pad_message(message, self.msg_len)  # validate size early
        state = self._st(party.pid)
        if state.t_awake is None:
            if not state.pre_wake:
                self._ubc_broadcast(party, WAKE_UP)
            state.pre_wake.append(message)
            return
        if self.time >= state.t_end - self.tle.delay:
            # Too late: a ciphertext could not be ready before t_end.
            self.record("late_input", (party.pid, message))
            return
        self._lock_and_queue(party, message)

    def _ubc_broadcast(self, party: Party, payload: Any) -> None:
        if party.corrupted:
            self.ubc.adv_broadcast(party.pid, payload)
        else:
            self.ubc.broadcast(party, payload)

    def _lock_and_queue(self, party: Party, message: Any) -> None:
        state = self._st(party.pid)
        rho = self.session.random_bytes(DIGEST_SIZE)
        state.pending.append((rho, message))
        self.tle.enc(party, rho, state.tau_rel)

    # -- UBC deliveries ---------------------------------------------------------------

    def _on_ubc(self, party: Party, message: Any) -> None:
        kind, payload, _sender = message
        if kind != "Broadcast":
            return
        state = self._st(party.pid)
        if payload == WAKE_UP:
            self._on_wake_up(party, state)
            return
        if state.tau_rel is None:
            return
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        ciphertext, tau, mask = payload
        if tau != state.tau_rel or not isinstance(mask, bytes):
            return
        if len(mask) != self.msg_len:
            return
        for seen_cipher, seen_mask in state.received:
            if seen_cipher == ciphertext or seen_mask == mask:
                return  # replayed component: ignored
        state.received.append((ciphertext, mask))

    def _on_wake_up(self, party: Party, state: _SBCState) -> None:
        if state.t_awake is not None:
            return
        state.t_awake = self.time
        state.t_end = state.t_awake + self.phi
        state.tau_rel = state.t_end + self.delta
        self.record("awake", (party.pid, state.t_awake, state.t_end, state.tau_rel))
        pre_wake, state.pre_wake = state.pre_wake, []
        for message in pre_wake:
            self._lock_and_queue(party, message)

    # -- round work (Figure 14, Advance_Clock) ----------------------------------------------

    def on_party_tick(self, party: Party) -> None:
        now = self.time
        state = self._st(party.pid)
        if state.last_tick == now:
            return
        state.last_tick = now

        # Drive the TLE layer first so earlier Enc requests have matured
        # by the time we Retrieve.
        if hasattr(self.tle, "on_party_tick"):
            self.tle.on_party_tick(party)

        if state.t_awake is not None and state.t_awake <= now < state.t_end:
            # Step 2: fetch matured ciphertexts and UBC-broadcast them.
            for rho, ciphertext, _tau in self.tle.retrieve(party):
                match = next(
                    (pair for pair in state.pending if pair[0] == rho), None
                )
                if match is None or rho in state.masked:
                    continue
                state.masked.add(rho)
                eta = self.oracle.query(rho, querier=party.pid)
                mask = xor_bytes(pad_message(match[1], self.msg_len), eta)
                self._ubc_broadcast(party, (ciphertext, state.tau_rel, mask))

        if state.tau_rel is not None and now == state.tau_rel and not state.delivered:
            # Step 3: open every received ciphertext; deliver the batch.
            state.delivered = True
            opened: List[Any] = []
            for ciphertext, mask in state.received:
                rho = self.tle.dec(party, ciphertext, state.tau_rel)
                if rho in _DEC_FAILURES or not isinstance(rho, bytes):
                    continue
                eta = self.oracle.query(rho, querier=party.pid)
                try:
                    opened.append(unpad_message(xor_bytes(mask, eta)))
                except ValueError:
                    continue
            opened.sort(key=sort_key)
            self.deliver(party, ("Broadcast", opened))

        # Step 4: Advance_Clock down to FUBC.
        self.ubc.on_party_tick(party)


class SBCParty(Party):
    """Thin top-of-stack party: forwards inputs to an SBC service and
    hands its deliveries to Z.

    Works identically against the ideal
    :class:`~repro.functionalities.sbc.SimultaneousBroadcast` and the
    :class:`SBCProtocolAdapter` — that interchangeability is Theorem 2.
    """

    def __init__(self, session: "Session", pid: str, sbc: Functionality) -> None:
        super().__init__(session, pid)
        self.sbc = sbc
        if hasattr(sbc, "attach"):
            sbc.attach(self)
        self.route[sbc.fid] = lambda message, source: self.output(message)
        if sbc not in self.clock_recipients:
            self.clock_recipients.append(sbc)

    def broadcast(self, message: Any) -> None:
        """Forward a ``Broadcast`` input to the SBC service."""
        self.sbc.broadcast(self, message)
