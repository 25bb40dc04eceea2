"""Round drivers: the execution loop behind :class:`~repro.uc.environment.Environment`.

A :class:`RoundDriver` owns the mechanics of one UC round — input delivery,
activation order, ``Advance_Clock`` issuing — for a single session.  The
environment (and through it every stack builder and benchmark) delegates
here, so alternative execution strategies plug in without touching protocol
code:

* :class:`SequentialRoundDriver` — the reference implementation.  A verbatim
  port of the pre-runtime ``Environment.run_round`` loop; event traces are
  byte-identical to the original engine for any fixed seed.
* :class:`BatchedRoundDriver` — the throughput implementation.  Caches the
  activation list between topology changes (registration/corruption bump
  the session's ``topology_epoch``) and elides the per-party adversary
  activation hook when the installed adversary does not override it.  Both
  elisions are trace-neutral: they skip only work that records nothing.
* :class:`AsyncRoundDriver` — the reference round, awaitable.  Its
  :meth:`~AsyncRoundDriver.run_round_async` runs the sequential round body
  and then yields to the event loop once, so sessions hosted on one loop
  take turns at round boundaries, the only points where the global clock
  lets parties observe one another.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.entity import Party
    from repro.uc.session import Session

#: An input action: apply the callable to the named party's machine.
Action = Tuple[str, Callable[[Any], Any]]


#: The base no-op ``Adversary.on_party_activated``, resolved lazily on
#: first use (``repro.uc`` imports the runtime, so the reverse import
#: must not run at module load).
_BASE_ACTIVATION_HOOK = None


def _base_activation_hook():
    global _BASE_ACTIVATION_HOOK
    if _BASE_ACTIVATION_HOOK is None:
        from repro.uc.adversary import Adversary

        _BASE_ACTIVATION_HOOK = Adversary.on_party_activated
    return _BASE_ACTIVATION_HOOK


class RoundDriver:
    """Base driver: holds the session and the default activation order.

    Args:
        session: The session to drive.
        order: Default activation order for ``Advance_Clock`` (party ids);
            defaults to registration order.
    """

    #: Registry name filled in by subclasses (for reporting).
    name = "abstract"

    def __init__(self, session: "Session", order: Optional[Sequence[str]] = None) -> None:
        self.session = session
        self._order = list(order) if order is not None else None

    @property
    def order(self) -> Optional[List[str]]:
        """Default activation order (party ids); None = registration order."""
        return self._order

    @order.setter
    def order(self, value: Optional[Sequence[str]]) -> None:
        self._order = list(value) if value is not None else None
        self._order_changed()

    def _order_changed(self) -> None:
        """Hook for subclasses caching anything derived from the order."""

    # -- activation order -------------------------------------------------

    def activation_order(self, order: Optional[Sequence[str]] = None) -> List[str]:
        """Resolve the activation order for one round."""
        if order is not None:
            return list(order)
        if self.order is not None:
            return list(self.order)
        return list(self.session.parties)

    # -- the round loop ----------------------------------------------------

    def run_round(
        self,
        actions: Iterable[Action] = (),
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Run one full round and return the new clock time."""
        raise NotImplementedError

    def run_rounds(self, count: int, order: Optional[Sequence[str]] = None) -> int:
        """Run ``count`` empty rounds (clock ticks only)."""
        for _ in range(count):
            self.run_round((), order=order)
        return self.session.clock.time

    def run_until(
        self,
        predicate: Callable[["Session"], bool],
        max_rounds: int = 1000,
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Run empty rounds until ``predicate(session)`` holds.

        Raises:
            RuntimeError: if the predicate is still false after
                ``max_rounds`` rounds (a liveness failure in the system
                under test).
        """
        for _ in range(max_rounds):
            if predicate(self.session):
                return self.session.clock.time
            self.run_round((), order=order)
        if predicate(self.session):
            return self.session.clock.time
        raise RuntimeError(f"predicate not satisfied within {max_rounds} rounds")


def _reference_round(
    driver: RoundDriver,
    actions: Iterable[Action],
    order: Optional[Sequence[str]],
) -> int:
    """The reference round body: inputs in order, then activations.

    Shared by :class:`SequentialRoundDriver` and :class:`AsyncRoundDriver`,
    which is why their traces are byte-identical.
    """
    session = driver.session
    for pid, action in actions:
        party = session.party(pid)
        if party.corrupted:
            continue
        action(party)
    for pid in driver.activation_order(order):
        party = session.party(pid)
        if party.corrupted:
            continue
        session.adversary.on_party_activated(party)
        if party.corrupted:
            # on_party_activated may have corrupted it.
            continue
        party.advance_clock()
    return session.clock.time


class SequentialRoundDriver(RoundDriver):
    """Reference driver: one party, one message, one callback at a time.

    This is the pre-runtime engine verbatim; the default backend uses it
    so that traces stay byte-identical seed-for-seed.
    """

    name = "sequential"

    def run_round(
        self,
        actions: Iterable[Action] = (),
        order: Optional[Sequence[str]] = None,
    ) -> int:
        return _reference_round(self, actions, order)


class AsyncRoundDriver(SequentialRoundDriver):
    """The reference round with a yield at each round boundary.

    The synchronous :meth:`run_round` is the sequential one, so it runs
    inside a running event loop or outside one alike.
    :meth:`run_round_async` runs the same body directly (not through
    :meth:`run_round`, so a round has one entry point) and then yields
    once: sessions on one loop interleave round by round while each
    trace stays digest-equal to ``sequential``.
    """

    name = "async"

    async def run_round_async(
        self,
        actions: Iterable[Action] = (),
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Run one round, then yield once to the event loop."""
        time = _reference_round(self, actions, order)
        await asyncio.sleep(0)
        return time

    async def run_rounds_async(
        self, count: int, order: Optional[Sequence[str]] = None
    ) -> int:
        """Awaitable :meth:`run_rounds`."""
        for _ in range(count):
            await self.run_round_async((), order=order)
        return self.session.clock.time

    async def run_until_async(
        self,
        predicate: Callable[["Session"], bool],
        max_rounds: int = 1000,
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Awaitable :meth:`run_until` (same budget, same error)."""
        for _ in range(max_rounds):
            if predicate(self.session):
                return self.session.clock.time
            await self.run_round_async((), order=order)
        if predicate(self.session):
            return self.session.clock.time
        raise RuntimeError(f"predicate not satisfied within {max_rounds} rounds")


class BatchedRoundDriver(RoundDriver):
    """Throughput driver: batched activation with trace-neutral elisions.

    Differences from the sequential reference — none of which emit or
    suppress a trace event:

    * the activation party list is resolved once per topology epoch
      instead of per round (no per-round ``party()`` lookups);
    * ``Adversary.on_party_activated`` is skipped entirely when the
      installed adversary inherits the base no-op implementation.
    """

    name = "batched"

    def __init__(self, session: "Session", order: Optional[Sequence[str]] = None) -> None:
        super().__init__(session, order)
        self._cached_epoch = -1
        self._cached_parties: List["Party"] = []

    def _order_changed(self) -> None:
        self._cached_epoch = -1  # reassigning env.order must rebuild the cache

    def _parties(self) -> List["Party"]:
        session = self.session
        if session.topology_epoch != self._cached_epoch:
            if self._order is not None:
                self._cached_parties = [session.party(pid) for pid in self._order]
            else:
                self._cached_parties = list(session.parties.values())
            self._cached_epoch = session.topology_epoch
        return self._cached_parties

    def run_round(
        self,
        actions: Iterable[Action] = (),
        order: Optional[Sequence[str]] = None,
    ) -> int:
        session = self.session
        for pid, action in actions:
            party = session.party(pid)
            if party.corrupted:
                continue
            action(party)
        adversary = session.adversary
        # Bound-method aware: catches both subclass overrides and
        # instance-assigned hooks (adv.on_party_activated = fn).
        hook = adversary.on_party_activated
        hooked = getattr(hook, "__func__", hook) is not _base_activation_hook()
        if order is not None:
            parties: Sequence["Party"] = [session.party(pid) for pid in order]
        else:
            parties = self._parties()
        for party in parties:
            if party.corrupted:
                continue
            if hooked:
                hook(party)
                if party.corrupted:
                    continue
            party.advance_clock()
        return session.clock.time
