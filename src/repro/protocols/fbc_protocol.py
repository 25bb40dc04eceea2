"""ΠFBC — fair broadcast over UBC + time-lock puzzles (Figure 11, Lemma 2).

To broadcast ``M`` fairly, the sender samples a fresh ``ρ``, time-locks
``ρ`` with difficulty **2** (an Astrolabous ciphertext ``c``), masks the
message as ``y = M ⊕ FRO(ρ)`` and broadcasts ``(c, y)`` unfairly.  The
semantic hiding of ``ρ`` for two rounds is what buys fairness: an
adversary corrupting the sender after seeing ``(c, y)`` learns nothing
about ``M`` in time to replace it coherently.  Every recipient starts
solving a received puzzle *in the round after receipt* (Sec. 3.2 item 3 —
this aligns all parties regardless of activation order) and finishes one
round later, so messages are delivered after exactly ``Δ = 2`` rounds,
sorted, matching ``F^{2,2}_FBC``.

Implementation note: like ΠUBC, the per-party machines are folded into a
single :class:`FBCProtocolAdapter` exposing the ideal
:class:`~repro.functionalities.fbc.FairBroadcast` interface (Lemma 2 is
the interchangeability of the two, exercised in ``tests/test_fbc.py``).
Per-party query budgets are spent against the *party's own* wrapper
account, exactly as Figure 11 schedules them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.crypto.hashing import DIGEST_SIZE, xor_bytes
from repro.functionalities.random_oracle import RandomOracle
from repro.functionalities.wrapper import QueryWrapper
from repro.protocols.common import DEFAULT_MSG_LEN, open_padded, open_puzzle, pad_message
from repro.tle.astrolabous import PuzzleSolver, TLECiphertext, ast_encrypt, is_exact_ciphertext
from repro.uc.encoding import sort_key
from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

#: The paper's protocol fixes time-lock difficulty 2 (Sec. 3.2 item 4):
#: difficulty 1 would let a rushing adversary solve within the receipt
#: round, denying the simulator its equivocation window.
DIFFICULTY = 2


@dataclass
class _WaitEntry:
    ciphertext: TLECiphertext
    mask: bytes
    received_at: int
    solver: Optional[PuzzleSolver] = None


@dataclass
class _PartyState:
    pending: List[Any] = field(default_factory=list)  # L^P_pend
    waiting: List[_WaitEntry] = field(default_factory=list)  # L^P_wait
    seen: set = field(default_factory=set)  # replay suppression
    last_tick: int = -1  # first-Advance_Clock-of-the-round guard


class FBCProtocolAdapter(Functionality):
    """ΠFBC: drop-in replacement for the ideal ``F^{2,2}_FBC``.

    Args:
        session: Owning session.
        ubc: The unfair broadcast below (ideal ``FUBC`` or ΠUBC adapter).
        wrapper: ``Wq(F*RO)`` metering puzzle queries.
        oracle: The equivocation oracle ``FRO`` — its ``digest_size`` must
            equal ``msg_len``.
        msg_len: Fixed wire size of masked messages.
    """

    delta = DIFFICULTY
    alpha = DIFFICULTY

    def __init__(
        self,
        session: "Session",
        ubc: Functionality,
        wrapper: QueryWrapper,
        oracle: RandomOracle,
        msg_len: int = DEFAULT_MSG_LEN,
        fid: str = "PiFBC",
    ) -> None:
        if oracle.digest_size != msg_len:
            raise ValueError("oracle digest size must equal msg_len")
        super().__init__(session, fid)
        self.ubc = ubc
        self.wrapper = wrapper
        self.oracle = oracle
        self.msg_len = msg_len
        #: Per-party state, created when the party attaches.
        self._state: Dict[str, _PartyState] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, party: Party) -> None:
        """Wire ``party`` into this FBC instance (state, routes, clock chain)."""
        self._state.setdefault(party.pid, _PartyState())
        party.route[self.ubc.fid] = functools.partial(self._on_ubc, party)
        if self not in party.clock_recipients:
            party.clock_recipients.append(self)

    # -- broadcast input -------------------------------------------------------

    def broadcast(self, party: Party, message: Any) -> None:
        """``Broadcast`` input: queue for this round's end-of-round work."""
        if party.corrupted:
            raise ValueError("honest interface used by corrupted party")
        pad_message(message, self.msg_len)  # validate size early
        self._state[party.pid].pending.append(message)

    def adv_broadcast(self, pid: str, message: Any) -> None:
        """The adversary runs the sender code of corrupted ``pid``.

        A corrupted party may follow the protocol; its messages enter the
        same pipeline (and its puzzle queries bill the corrupted pool).
        Any registered party may be corrupted, attached to this instance
        or not, so its state is made here if it has none.
        """
        self.require_corrupted(pid)
        state = self._state.setdefault(pid, _PartyState())
        state.pending.append(message)

    # -- UBC delivery -----------------------------------------------------------

    def _on_ubc(self, party: Party, message: Any, _source: Functionality) -> None:
        kind, payload, _sender = message
        if kind != "Broadcast":
            return
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        ciphertext, mask = payload
        if not is_exact_ciphertext(ciphertext) or type(mask) is not bytes:
            return
        if ciphertext.difficulty != DIFFICULTY or len(mask) != self.msg_len:
            return  # malformed: honest parties ignore invalid messages
        state = self._state[party.pid]
        replay_key = (b"".join(ciphertext.chain), mask)
        if replay_key in state.seen:
            return
        state.seen.add(replay_key)
        state.waiting.append(
            _WaitEntry(ciphertext=ciphertext, mask=mask, received_at=self.session.clock.time)
        )

    # -- round work (Figure 11, Advance_Clock) ------------------------------------

    def on_party_tick(self, party: Party) -> None:
        now = self.session.clock.time
        state = self._state[party.pid]
        if state.last_tick == now:
            return  # only the first Advance_Clock of a round does work
        state.last_tick = now
        waiting = state.waiting
        # ``waiting`` is in receipt order, so when its oldest entry arrived
        # this round no entry is due; with nothing pending either, steps
        # 1-7 would draw, query and deliver nothing.
        if not state.pending and (not waiting or waiting[0].received_at == now):
            self.ubc.on_party_tick(party)
            return
        q = self.wrapper.q

        fresh = [e for e in state.waiting if e.received_at == now - 1]
        finishing = [e for e in state.waiting if e.received_at == now - 2]
        for entry in fresh:
            entry.solver = PuzzleSolver(entry.ciphertext)

        # Step 1: sample puzzle randomness for every pending message.
        pending = list(state.pending)
        state.pending.clear()
        randomness = {
            index: [
                self.session.random_bytes(DIGEST_SIZE) for _ in range(DIFFICULTY * q)
            ]
            for index in range(len(pending))
        }

        # Step 3: the round's q query batches.  Batch 0 carries all the
        # (independent) encryption randomness; every batch advances every
        # active solver by one sequential link.
        enc_responses: Dict[bytes, bytes] = {}
        active = [e.solver for e in fresh + finishing if e.solver is not None]
        for j in range(q):
            points: List[bytes] = []
            if j == 0:
                for values in randomness.values():
                    points.extend(values)
            active = [s for s in active if not s.solved]
            offsets = []
            for solver in active:
                offsets.append(len(points))
                points.append(solver.next_query())
            if not points:
                continue
            responses = self.wrapper.evaluate(party.pid, points)
            if j == 0:
                for point, response in zip(points, responses):
                    enc_responses.setdefault(point, response)
            for solver, offset in zip(active, offsets):
                solver.absorb(responses[offset])

        # Step 4: encrypt and broadcast each pending message.
        for index, message in enumerate(pending):
            rho = self.session.random_bytes(DIGEST_SIZE)
            ciphertext = ast_encrypt(
                rho,
                difficulty=DIFFICULTY,
                rate=q,
                hash_fn=lambda x: enc_responses[x],
                rng=self.session.rng,
                randomness=randomness[index],
            )
            eta = self.oracle.query(rho, querier=party.pid)
            mask = xor_bytes(pad_message(message, self.msg_len), eta)
            if party.corrupted:
                self.ubc.adv_broadcast(party.pid, (ciphertext, mask))
            else:
                self.ubc.broadcast(party, (ciphertext, mask))

        # Step 5: open the puzzles received two rounds ago.  Openings and
        # decodes are shared across the session's parties; the RO query
        # stays this party's own.
        ready: List[Any] = []
        for entry in finishing:
            state.waiting.remove(entry)
            try:
                rho = open_puzzle(self.session, entry.ciphertext, entry.solver.witness)
            except Exception:
                continue  # invalid puzzle: ignore, as honest parties do
            eta = self.oracle.query(rho, querier=party.pid)
            try:
                ready.append(open_padded(self.session, xor_bytes(entry.mask, eta)))
            except ValueError:
                continue

        # Steps 6-7: deliver sorted (``sort_key`` encodes each non-bytes
        # payload, and a single message has no order to fix).
        if len(ready) > 1:
            ready.sort(key=sort_key)
        for message in ready:
            self.deliver(party, ("Broadcast", message))

        # Step 9: Advance_Clock down to FUBC.
        self.ubc.on_party_tick(party)
