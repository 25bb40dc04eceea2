"""The random oracle functionality ``FRO`` (paper Figure 3).

A lazily-sampled random function from byte strings to λ-bit digests.  The
oracle is *programmable*: simulators (and the equivocation tests that play
the simulator's part) may install chosen input/output pairs, which is the
standard technique the paper uses for equivocation ([Nie02]); programming
an already-queried point fails — exactly the simulation-abort condition in
the proofs of Lemma 2 and Theorem 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.crypto.hashing import DIGEST_SIZE
from repro.uc.entity import Functionality

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session


class ProgrammingConflict(Exception):
    """Attempted to program a point that was already queried/programmed."""


class RandomOracle(Functionality):
    """``FRO``: consistent uniformly-random responses, with programming.

    Args:
        session: Owning session.
        fid: Functionality id (distinct oracles have distinct ids and are
            independent, e.g. the paper's ``FRO`` vs ``F*RO``).
        digest_size: Response length in bytes (default λ = 256 bits).
    """

    def __init__(
        self, session: "Session", fid: str = "FRO", digest_size: int = DIGEST_SIZE
    ) -> None:
        super().__init__(session, fid)
        self.digest_size = digest_size
        self._table: Dict[bytes, bytes] = {}
        #: Which entity ids queried which points (used by tests asserting
        #: "the adversary had not queried ρ before programming").
        self.queried_by: Dict[bytes, Set[str]] = {}

    def query(self, x: bytes, querier: str = "?") -> bytes:
        """Return ``H(x)``, sampling it fresh on first use."""
        return self.query_many((x,), querier)[0]

    def query_many(self, points: Sequence[bytes], querier: str = "?") -> List[bytes]:
        """``[H(x) for x in points]``: the same responses, samples,
        ``queried_by`` entries and per-query counts as one :meth:`query`
        per point, in order.

        Raises:
            TypeError: if any point is not ``bytes``; checked before any
                point is sampled or counted, so nothing changes.
        """
        for x in points:
            if not isinstance(x, bytes):
                raise TypeError("oracle inputs are byte strings")
        table = self._table
        queried_by = self.queried_by
        sample = self.session.random_bytes
        count = self.session.metrics.count_ro_query
        fid = self.fid
        responses = []
        for x in points:
            response = table.get(x)
            if response is None:
                response = table[x] = sample(self.digest_size)
            queriers = queried_by.get(x)
            if queriers is None:
                queried_by[x] = {querier}
            else:
                queriers.add(querier)
            count(fid, querier)
            responses.append(response)
        return responses

    def hash_fn(self, querier: str = "?"):
        """A ``bytes -> bytes`` closure querying this oracle as ``querier``."""
        return lambda x: self.query(x, querier=querier)

    # -- simulator-facing interface -------------------------------------

    def was_queried(self, x: bytes, by: Optional[str] = None) -> bool:
        """Whether ``x`` has been queried (optionally: by a given entity)."""
        if x not in self.queried_by:
            return False
        if by is None:
            return True
        return by in self.queried_by[x]

    def program(self, x: bytes, digest: bytes) -> None:
        """Install ``H(x) = digest`` (simulator equivocation).

        Raises:
            ProgrammingConflict: if ``x`` was already queried or programmed
                with a different value — the simulation-abort event of the
                paper's proofs.
        """
        if len(digest) != self.digest_size:
            raise ValueError("programmed digest has wrong size")
        if x in self._table and self._table[x] != digest:
            raise ProgrammingConflict("point already defined with another value")
        if self.was_queried(x):
            raise ProgrammingConflict("point already queried; cannot equivocate")
        self._table[x] = digest
        self.record("program", x[:8])
