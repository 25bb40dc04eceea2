"""Per-round message queues, drained in FIFO order.

The synchronous network model delivers every message queued in round ``r``
at the start of round ``r+1``.  :class:`BatchScheduler` centralises that
queueing: producers enqueue ``(key, item)`` pairs under a named channel
during the round, and the round-advance hook drains the whole channel as
one batch, in global enqueue order.  That order is the reference engine's
delivery order, so every backend's trace is byte-identical to it.

Every backend, ``async`` included, drains through these queues at round
advance; nothing observes an enqueue as it happens.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple


class BatchScheduler:
    """Named per-round FIFO queues with batch draining."""

    def __init__(self) -> None:
        self._queues: Dict[str, List[Tuple[Hashable, Any]]] = {}

    def enqueue(self, channel: str, key: Hashable, item: Any) -> None:
        """Queue ``item`` under ``channel``; ``key`` is the recipient
        (or other routing key) handed back with the item at drain."""
        self._queues.setdefault(channel, []).append((key, item))

    def pending(self, channel: str) -> int:
        """Number of items currently queued under ``channel``."""
        return len(self._queues.get(channel, ()))

    def drain(self, channel: str) -> List[Tuple[Hashable, Any]]:
        """Remove and return the whole batch queued under ``channel``.

        The batch is in enqueue order; the channel's queue is empty
        afterwards (items enqueued while the batch is being processed
        land in the *next* drain).
        """
        return self._queues.pop(channel, None) or []
