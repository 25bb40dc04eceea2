"""The session object: registry, randomness, corruption state, accounting.

A :class:`Session` corresponds to one UC execution (one ``sid``): it owns
the global clock, the set of parties and functionalities, the adversary,
the deterministic randomness source, the metrics and the event trace.

The session is also where the execution *runtime* plugs in: the
:class:`~repro.runtime.backend.ExecutionBackend` chosen at construction
fixes the trace mode and tells
:class:`~repro.uc.environment.Environment` which round driver to
instantiate.  The default (``sequential``) backend
reproduces the pre-runtime engine byte-for-byte.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Set, Union

from repro.runtime.backend import ExecutionBackend, get_backend
from repro.runtime.scheduler import BatchScheduler
from repro.uc.adversary import Adversary, PassiveAdversary
from repro.uc.clock import GlobalClock
from repro.uc.entity import Functionality
from repro.uc.errors import CorruptionError, UnknownEntity
from repro.uc.metrics import Metrics
from repro.uc.trace import EventLog, NullEventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.entity import Party


class Session:
    """One UC protocol session.

    Args:
        sid: Session identifier.
        seed: Seed for the session RNG — all protocol randomness must come
            from :attr:`rng` (or RNGs derived from it) so executions are
            reproducible.
        adversary: The adversary for this execution; defaults to a
            :class:`~repro.uc.adversary.PassiveAdversary`.
        backend: Execution backend (name or instance) fixing the trace
            mode and round driver; default ``"sequential"``.
        trace: Optional trace-mode override (``"full"`` / ``"light"``);
            ``None`` uses the backend's default.
    """

    def __init__(
        self,
        sid: str = "sid0",
        seed: int = 0,
        adversary: Optional["Adversary"] = None,
        backend: Union[str, ExecutionBackend, None] = None,
        trace: Optional[str] = None,
    ) -> None:
        self.sid = sid
        self.rng = random.Random(seed)
        self.backend = get_backend(backend)
        trace_mode = trace if trace is not None else self.backend.trace
        self.log = NullEventLog() if trace_mode == "light" else EventLog()
        self.scheduler = BatchScheduler()
        self.metrics = Metrics()
        #: Verdicts of pure public-input proof checks, keyed on their exact
        #: inputs (the signed encoding plus the checker's public values),
        #: so every party of this session that checks the same proof
        #: against the same values reuses one verdict.  Never recorded,
        #: digested or pickled into a trial result; each session starts
        #: empty, so no two sessions share verdicts.
        self.proof_verdicts: Dict[Any, bool] = {}
        #: Results of pure functions of exact public inputs (a decoded
        #: wire payload, an opened time-lock puzzle, a signed encoding),
        #: so every party of this session that computes the same value
        #: reuses one result (:mod:`repro.protocols.common`).  Same rules
        #: as :attr:`proof_verdicts`: keys are exact inputs, a failure is
        #: never stored, and the mapping is never recorded, digested or
        #: pickled.
        self.public_values: Dict[Any, Any] = {}
        self.parties: Dict[str, "Party"] = {}
        self.functionalities: Dict[str, "Functionality"] = {}
        self.corrupted: Set[str] = set()
        #: Bumped whenever the party topology changes (registration or
        #: corruption); drivers and caches key their snapshots on it.
        self.topology_epoch = 0
        self._honest_cache: Optional[Dict[str, "Party"]] = None
        self._honest_pids: Optional[FrozenSet[str]] = None
        self._round_listeners: Optional[List["Functionality"]] = None
        self.clock = GlobalClock(self)
        if adversary is None:
            adversary = PassiveAdversary()
        self.adversary = adversary
        adversary.attach(self)

    # -- registry -------------------------------------------------------------

    def register_party(self, party: "Party") -> None:
        """Register ``party``; identifiers must be unique within the session."""
        if party.pid in self.parties:
            raise ValueError(f"duplicate party id {party.pid!r}")
        self.parties[party.pid] = party
        self._invalidate_topology()
        self.adversary.on_party_registered(party)

    def register_functionality(self, functionality: "Functionality") -> None:
        """Register ``functionality``; identifiers must be unique."""
        if functionality.fid in self.functionalities:
            raise ValueError(f"duplicate functionality id {functionality.fid!r}")
        self.functionalities[functionality.fid] = functionality
        self._round_listeners = None

    def party(self, pid: str) -> "Party":
        """Look up a party by id."""
        try:
            return self.parties[pid]
        except KeyError:
            raise UnknownEntity(f"no party {pid!r}") from None

    def functionality(self, fid: str) -> "Functionality":
        """Look up a functionality by id."""
        try:
            return self.functionalities[fid]
        except KeyError:
            raise UnknownEntity(f"no functionality {fid!r}") from None

    # -- corruption --------------------------------------------------------------

    def is_corrupted(self, pid: str) -> bool:
        """Whether party ``pid`` is currently corrupted."""
        return pid in self.corrupted

    def _invalidate_topology(self) -> None:
        self.topology_epoch += 1
        self._honest_cache = None
        self._honest_pids = None

    @property
    def honest_parties(self) -> Dict[str, "Party"]:
        """View of currently honest parties (registration order preserved).

        The mapping is cached between topology changes — treat it as
        read-only; it is rebuilt after every ``register_party`` /
        ``corrupt``.
        """
        if self._honest_cache is None:
            self._honest_cache = {
                pid: party
                for pid, party in self.parties.items()
                if pid not in self.corrupted
            }
        return self._honest_cache

    @property
    def honest_pids(self) -> FrozenSet[str]:
        """Frozen set of currently honest party ids (cached like
        :attr:`honest_parties`; the clock's advancement condition)."""
        if self._honest_pids is None:
            self._honest_pids = frozenset(self.parties.keys() - self.corrupted)
        return self._honest_pids

    @property
    def round_listeners(self) -> List["Functionality"]:
        """The functionalities ``Gclock`` notifies of a round advance.

        Those whose ``on_round_advanced`` is not the base no-op (a
        subclass override or an instance-assigned hook), in registration
        order.  Resolved at the first advance after a registration and
        cached until the next one, so a hook assigned to an instance
        after that advance is not seen.
        """
        if self._round_listeners is None:
            base = Functionality.on_round_advanced
            self._round_listeners = [
                functionality
                for functionality in self.functionalities.values()
                if getattr(functionality.on_round_advanced, "__func__", None) is not base
            ]
        return self._round_listeners

    def corrupt(self, pid: str) -> "Party":
        """Corrupt party ``pid`` (adaptive, possibly mid-round).

        Returns the party machine (its internal state is thereby exposed to
        the adversary).  The clock stops waiting for the party.

        Raises:
            UnknownEntity: unknown ``pid``.
            CorruptionError: already corrupted.
        """
        party = self.party(pid)
        if pid in self.corrupted:
            raise CorruptionError(f"{pid} is already corrupted")
        self.corrupted.add(pid)
        self._invalidate_topology()
        if self.log.keeps:
            self.log.record(self.clock.time, "corrupt", pid)
        self.metrics.inc("corruptions")
        self.clock.note_corruption(pid)
        self.adversary.on_corrupted(party)
        return party

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Unwire a finished session so reference counting frees it.

        A running session is one strongly connected object graph: the
        session reaches every party and functionality, each of which
        points back at the session, and routing closures point back at
        their parties.  Only the cyclic garbage collector could free
        such a graph.  ``close()`` drops the forward edges (every
        party's ``route`` and ``clock_recipients``, the registries, the
        honest and round-listener caches) and the clock's and adversary's pointers back at
        the session, so what is left is acyclic.  The log, metrics, rng
        and corruption set stay readable.  Idempotent; the session can
        run no further rounds.
        """
        for party in self.parties.values():
            party.route = {}
            party.clock_recipients = []
        self.parties = {}
        self.functionalities = {}
        self._honest_cache = None
        self._honest_pids = None
        self._round_listeners = None
        self.clock._session = None
        self.adversary.session = None

    # -- randomness helpers ---------------------------------------------------------

    def random_bytes(self, n: int) -> bytes:
        """``n`` session-deterministic random bytes.

        The ``n == 0`` guard matters twice over: ``getrandbits(0)`` raises,
        and the fast path must not consume RNG state (a zero-byte request
        must leave the deterministic stream untouched).  Audited companions:
        :func:`repro.crypto.hashing.expand` and
        :func:`repro.crypto.hashing.xor_bytes` are likewise zero-length
        safe without touching any stateful source.
        """
        return self.rng.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def fresh_tag(self) -> bytes:
        """A unique random tag from {0,1}^λ (λ = 128 bits here)."""
        return self.random_bytes(16)
