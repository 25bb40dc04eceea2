"""ΠDURS — delayed uniform random string over SBC (Figure 16, Theorem 3).

Each party contributes a uniform λ-bit string via simultaneous broadcast;
the URS is the XOR of all valid contributions.  Simultaneity is exactly
what makes the output *unbiased*: no contributor (not even one corrupted
adaptively, not even a full dishonest majority) learns anything about the
other contributions before its own is locked in, so the XOR is uniform as
long as a single honest party participates.  The session is started by a
``Wake_Up`` broadcast in RBC manner from the first party asked for
randomness.

Theorem 3: over ``F^{Φ,∆−Φ,α}_SBC`` this realizes ``F^{∆,α}_DURS`` for
``∆ > Φ > 0`` and ``∆ − Φ ≥ α``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.crypto.hashing import xor_bytes
from repro.functionalities.durs import URS_LEN
from repro.functionalities.rbc import RelaxedBroadcast
from repro.uc.entity import Functionality, Party

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

WAKE_UP = "Wake_Up"


class DURSParty(Party):
    """One party of ΠDURS.

    Args:
        session: Owning session.
        pid: Party identifier.
        sbc: SBC service with period Φ and delay ∆ − Φ (ideal
            ``SimultaneousBroadcast`` or ΠSBC adapter).
        rbc_instances: pid -> single-shot ``FRBC`` instance of that party
            (used only for the initial ``Wake_Up``).
    """

    def __init__(
        self,
        session: "Session",
        pid: str,
        sbc: Functionality,
        rbc_instances: Dict[str, RelaxedBroadcast],
    ) -> None:
        super().__init__(session, pid)
        self.sbc = sbc
        self.rbc_instances = rbc_instances
        self.urs: Optional[bytes] = None
        self.waiting = False  # f^P_wait
        self.awake = False  # f^P_awake

        sbc.attach(self)
        self.route[sbc.fid] = self._on_sbc
        for instance in rbc_instances.values():
            self.route[instance.fid] = self._on_rbc
        # Own RBC instance is driven by this party's ticks; the SBC layer
        # follows, per Figure 16's Advance_Clock clause.
        self.clock_recipients.append(rbc_instances[pid])
        if sbc not in self.clock_recipients:
            self.clock_recipients.append(sbc)

    # -- environment input ----------------------------------------------------

    def urs_request(self) -> Optional[bytes]:
        """``URS`` input from Z; answers immediately once the URS is known."""
        if self.urs is not None:
            self.output(("URS", self.urs))
            return self.urs
        self.waiting = True
        if not self.awake:
            own = self.rbc_instances[self.pid]
            own.broadcast(self, WAKE_UP)
        return None

    # -- deliveries ----------------------------------------------------------------

    def _on_rbc(self, message: Any, source: Functionality) -> None:
        kind, payload, sender = message
        if kind != "Broadcast" or payload != WAKE_UP:
            return
        if self.awake or sender not in self.rbc_instances:
            return
        self.awake = True
        contribution = self.session.random_bytes(URS_LEN)
        self.record("contribute", contribution.hex()[:8])
        if self.corrupted:
            self.sbc.adv_broadcast(self.pid, contribution)
        else:
            self.sbc.broadcast(self, contribution)

    def _on_sbc(self, message: Any, source: Functionality) -> None:
        kind, contributions = message
        if kind != "Broadcast" or self.urs is not None:
            return
        urs = bytes(URS_LEN)
        for value in contributions:
            if isinstance(value, bytes) and len(value) == URS_LEN:
                urs = xor_bytes(urs, value)
        self.urs = urs
        if self.waiting:
            self.output(("URS", self.urs))


def make_durs_network(
    session: "Session",
    pids: Sequence[str],
    sbc: Functionality,
) -> Dict[str, DURSParty]:
    """Wire a complete ΠDURS network over ``sbc``; returns pid -> party."""
    rbc_instances = {
        pid: RelaxedBroadcast(session, fid=f"FRBC:durs:{pid}") for pid in pids
    }
    return {
        pid: DURSParty(session, pid, sbc=sbc, rbc_instances=rbc_instances)
        for pid in pids
    }
