"""The global clock functionality ``Gclock`` (paper Figure 2).

Synchronicity in the paper follows Katz et al. [KMTZ13]: execution proceeds
in rounds, and the round counter advances only once every *honest* party in
the session has issued an ``Advance_Clock`` request.  Within a round, the
environment (and through it, the adversary) schedules activations freely —
that is the loose synchrony that the non-atomic corruption model exploits.

Corrupted parties are excluded from the advancement condition: the clock
never waits for the adversary (otherwise a crashed corrupted party could
halt time, violating liveness, which the paper's :math:`F_{SBC}`
explicitly guarantees).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from repro.uc.errors import UnknownEntity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session


class GlobalClock:
    """``Gclock``: a shared round counter with all-honest-ticked advancement.

    Attributes:
        time: The current round number, starting at 0.
        ticked: Ids of the parties that have ticked in the current round
            (read it, do not mutate it).
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self.time: int = 0
        self.ticked: Set[str] = set()

    # ------------------------------------------------------------------
    # Paper interface
    # ------------------------------------------------------------------

    def read(self) -> int:
        """``Read_Clock``: any participant may read the current round."""
        return self.time

    def tick(self, pid: str) -> bool:
        """``Advance_Clock`` request from party ``pid``.

        Returns:
            True if this tick completed the round (the clock advanced).

        Raises:
            UnknownEntity: if ``pid`` is not a registered party.
        """
        session = self._session
        if pid not in session.parties:
            raise UnknownEntity(f"clock tick from unregistered party {pid!r}")
        if pid in session.corrupted:
            # The adversary's ticks carry no weight: honest advancement only.
            return False
        self.ticked.add(pid)
        log = session.log
        if log.keeps:
            log.record(self.time, "tick", pid)
        return self._maybe_advance()

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------

    def note_corruption(self, pid: str) -> None:
        """Drop ``pid`` from the advancement condition after corruption.

        Called by the session when a party is corrupted; if the corrupted
        party was the last holdout, the round advances immediately.
        """
        self.ticked.discard(pid)
        self._maybe_advance()

    def _maybe_advance(self) -> bool:
        session = self._session
        # Cached on the session between topology changes (rebuilding this
        # set per tick made round advancement O(n^2)); read the cache
        # itself and build it only when a change has dropped it.
        expected = session._honest_pids
        if expected is None:
            expected = session.honest_pids
        if not expected or not expected.issubset(self.ticked):
            # No honest parties means nobody can advance time: rounds are
            # driven by honest participation.
            return False
        self.time += 1
        self.ticked.clear()
        log = session.log
        if log.keeps:
            log.record(self.time, "round", "Gclock", f"advanced to {self.time}")
        session.metrics.inc("rounds.advanced")
        # Functionalities observe the new round (scheduled deliveries etc.),
        # then the adversary is activated, mirroring the paper's
        # `Advanced_Clock` notification to A.  Functionalities that keep
        # the base no-op hook are not called.
        for functionality in session.round_listeners:
            functionality.on_round_advanced(self.time)
        session.adversary.on_round_advanced(self.time)
        return True
