"""The resource-restriction wrapper ``Wq`` (paper Figure 5).

``Wq(F*RO)`` lets each party evaluate the wrapped oracle at most ``q``
times per clock round; *all corrupted parties share a single budget* (the
figure keeps one list ``Lcorr`` for the whole corrupted coalition).  This
is the resource-restricted-cryptography model of [GKO+20]: it is what
makes a difficulty-``τ`` time-lock puzzle take ``τ`` rounds to open, for
the adversary as much as for honest parties.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.uc.entity import Functionality
from repro.uc.errors import ResourceExhausted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.functionalities.random_oracle import RandomOracle
    from repro.uc.session import Session

#: Budget key used for the shared corrupted-coalition budget.
CORRUPTED_POOL = "__corrupted__"


class QueryWrapper(Functionality):
    """``Wq``: per-round metering of oracle evaluations.

    Args:
        session: Owning session.
        oracle: The wrapped random oracle (the paper's ``F*RO``).
        q: Queries allowed per party per round.
        fid: Functionality id.
    """

    def __init__(
        self,
        session: "Session",
        oracle: "RandomOracle",
        q: int,
        fid: str = "Wq",
    ) -> None:
        if q <= 0:
            raise ValueError("q must be positive")
        super().__init__(session, fid)
        self.oracle = oracle
        self.q = q
        # (budget key, round) -> queries used
        self._used: Dict[Tuple[str, int], int] = {}

    def _budget_key(self, entity_id: str) -> str:
        if self.session.is_corrupted(entity_id) or entity_id == CORRUPTED_POOL:
            return CORRUPTED_POOL
        return entity_id

    def used(self, entity_id: str) -> int:
        """Queries already used by ``entity_id``'s budget this round."""
        return self._used.get((self._budget_key(entity_id), self.time), 0)

    def remaining(self, entity_id: str) -> int:
        """Queries left in ``entity_id``'s budget this round."""
        return self.q - self.used(entity_id)

    def evaluate(self, entity_id: str, inputs: Sequence[bytes]) -> List[bytes]:
        """Evaluate the oracle on ``inputs`` — one batch = ONE query.

        Per Figure 5, a single ``Evaluate`` message may carry arbitrarily
        many points and counts once against the ``q``-per-round budget:
        the wrapper bounds the *sequential depth* of oracle use per round,
        not its parallel width.  This is exactly why building a hash-chain
        puzzle (all points independent) is one-round work while unwinding
        a ``q·τ``-link chain (each point depends on the previous response)
        takes ``τ`` rounds.

        Raises:
            ResourceExhausted: if the round's ``q`` batches are spent.
            TypeError: if a point is not ``bytes``; the batch is then
                neither resolved nor charged.
        """
        inputs = list(inputs)
        key = (self._budget_key(entity_id), self.time)
        used = self._used.get(key, 0)
        if used + 1 > self.q:
            raise ResourceExhausted(
                f"{entity_id}: batch {used + 1} > q={self.q} in round {self.time}"
            )
        # Resolve first: a batch with a non-``bytes`` point raises there
        # before anything is sampled, charged or counted.
        responses = self.oracle.query_many(inputs, entity_id)
        self._used[key] = used + 1
        counters = self.session.metrics.counters
        counters["ro.batches"] += 1
        counters["ro.points"] += len(inputs)
        return responses

    def evaluate_one(self, entity_id: str, x: bytes) -> bytes:
        """Single-query convenience wrapper around :meth:`evaluate`."""
        return self.evaluate(entity_id, [x])[0]

    def hash_fn(self, entity_id: str):
        """A metered ``bytes -> bytes`` closure for ``entity_id``."""
        return lambda x: self.evaluate_one(entity_id, x)
