"""Structured event trace of a UC execution.

Every session keeps an :class:`EventLog`.  Entities record events
(``leak``, ``deliver``, ``corrupt``, ``tick`` ...) with the round at which
they happened.  Tests use the trace to assert *ordering* properties that the
paper's proofs rely on — e.g. that the simulator advantage ``α`` means the
adversary observes a broadcast value exactly ``α`` rounds before honest
parties do, or that a leak of an honest sender's ciphertext precedes any
adversarial ``Allow``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Renderings already produced within one digest (or one scan): ``id(obj)``
#: maps to ``(obj, text)``.  See :func:`canonical_detail`.
RenderMemo = Dict[int, Tuple[Any, str]]

#: Exact types rendered by plain ``repr`` without touching the memo (a
#: lookup costs more than the ``repr``).  ``bool`` is not exact ``int``.
_PLAIN = (str, int)


def canonical_detail(obj: Any, memo: Optional[RenderMemo] = None) -> str:
    """Canonical, cross-process-stable rendering of an event detail.

    ``repr`` is not canonical for dicts (insertion-ordered) or sets
    (iteration order depends on ``PYTHONHASHSEED``), so hashing it could
    make byte-identical executions digest differently across processes.
    This serializer renders dicts/sets with sorted entries and everything
    else exactly as ``repr`` does — so digests over the historical
    int/bytes/str/tuple details are unchanged (the golden digests in
    ``tests/test_runtime.py`` still hold).

    ``memo`` lets one caller render many details that share objects (a
    composed trace delivers the same time-lock ciphertext to every
    party) without re-rendering them.  It is keyed by identity, not by
    value: ``(1,) == (True,) == (1.0,)`` yet the three render
    differently.  Each entry keeps its object alive, so a temporary (the
    ``set`` built for a frozenset) cannot hand its id on to a later
    object.  The memo assumes nothing is mutated while it is in use:
    share one across a single pass over a log, never across passes.
    """
    cls = type(obj)
    if cls in _PLAIN:
        return repr(obj)
    if memo is None:
        memo = {}
    slot = id(obj)
    entry = memo.get(slot)
    if entry is not None:
        return entry[1]
    if cls is bytes:
        text = repr(obj)
    elif cls is tuple or isinstance(obj, tuple):
        # Event tuples are mostly scalars: render those inline, sparing
        # the call (the same text the fast path above returns).
        inner = ", ".join([
            repr(item) if type(item) in _PLAIN else canonical_detail(item, memo)
            for item in obj
        ])
        text = f"({inner},)" if len(obj) == 1 else f"({inner})"
    elif isinstance(obj, list):
        text = "[" + ", ".join([canonical_detail(item, memo) for item in obj]) + "]"
    elif isinstance(obj, dict):
        items = sorted(
            (canonical_detail(key, memo), canonical_detail(value, memo))
            for key, value in obj.items()
        )
        text = "{" + ", ".join([f"{key}: {value}" for key, value in items]) + "}"
    elif isinstance(obj, frozenset):
        text = "frozenset(" + canonical_detail(set(obj), memo) + ")" if obj else "frozenset()"
    elif isinstance(obj, set):
        text = "{" + ", ".join(sorted([canonical_detail(item, memo) for item in obj])) + "}" if obj else "set()"
    else:
        text = repr(obj)
    memo[slot] = (obj, text)
    return text


@dataclass(frozen=True)
class Event:
    """One recorded occurrence inside a UC execution.

    Attributes:
        seq: Global sequence number (total order of the execution).
        time: Clock round at which the event happened.
        kind: Event category, e.g. ``"leak"``, ``"deliver"``, ``"corrupt"``.
        source: Identifier of the entity that produced the event.
        detail: Free-form payload describing the event.
    """

    seq: int
    time: int
    kind: str
    source: str
    detail: Any = None

    def __str__(self) -> str:
        return f"[{self.seq:05d} t={self.time}] {self.kind:<12} {self.source}: {self.detail}"


@dataclass
class EventLog:
    """Append-only log of :class:`Event` records for one session."""

    events: List[Event] = field(default_factory=list)
    _seq: int = 0

    def record(self, time: int, kind: str, source: str, detail: Any = None) -> Event:
        """Append an event and return it."""
        event = Event(seq=self._seq, time=time, kind=kind, source=source, detail=detail)
        self._seq += 1
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def filter(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        predicate: Optional[Callable[[Event], bool]] = None,
    ) -> List[Event]:
        """Return events matching the given criteria, in execution order."""
        selected = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if source is not None and event.source != source:
                continue
            if predicate is not None and not predicate(event):
                continue
            selected.append(event)
        return selected

    def first_containing(
        self, needle: bytes, kind: Optional[str] = None
    ) -> Optional[Event]:
        """Earliest event whose detail rendering contains ``needle``.

        The containment convention matches the secrecy assertions used
        throughout the test suite: a payload counts as exposed by an
        event iff its bytes appear verbatim in the event's detail
        rendering.  Details are rendered via :func:`canonical_detail`
        (RPR001: plain ``repr`` of a dict/set detail is not stable across
        processes, so an exposure assertion could flip with the hash
        seed).  Returns ``None`` when no event matches.
        """
        # b'scn:P0' -> scn:P0, escapes kept; bytes repr is deterministic.
        text = repr(needle)[2:-1].encode()
        memo: RenderMemo = {}  # a payload shared by many events renders once
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if text and text in canonical_detail(event.detail, memo).encode():
                return event
        return None

    def first(self, kind: str, **kwargs: Any) -> Optional[Event]:
        """Return the earliest event of the given kind, or ``None``."""
        matches = self.filter(kind=kind, **kwargs)
        return matches[0] if matches else None

    def last(self, kind: str, **kwargs: Any) -> Optional[Event]:
        """Return the latest event of the given kind, or ``None``."""
        matches = self.filter(kind=kind, **kwargs)
        return matches[-1] if matches else None


@dataclass
class NullEventLog(EventLog):
    """A trace sink that records nothing (the ``light`` trace mode).

    Throughput-oriented backends use it to elide per-event allocation in
    sessions whose trace nobody will read (seed sweeps, pooled
    benchmarks).  Protocol behaviour is unaffected — the log is
    write-only state — but trace-based assertions obviously cannot run
    against it.
    """

    def record(self, time: int, kind: str, source: str, detail: Any = None) -> None:
        return None
