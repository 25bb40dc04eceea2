"""Cost accounting for UC executions.

The paper measures protocols in rounds, messages and random-oracle queries
(the resource-restricted model of [GKO+20] meters RO queries per round).
:class:`Metrics` collects exactly these units so benchmarks can regenerate
the paper's complexity statements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class Metrics:
    """Named counters plus a few protocol-specific convenience views."""

    counters: Counter = field(default_factory=Counter)

    def inc(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters[name]

    # Convenience wrappers for the units the paper reports. --------------

    def count_message(self, channel: str, size_bits: int = 0) -> None:
        """Record one point-to-point message on ``channel``."""
        self.inc("messages.total")
        self.inc(f"messages.{channel}")
        if size_bits:
            self.inc("messages.bits", size_bits)

    def count_ro_query(self, oracle: str, entity: str) -> None:
        """Record one random-oracle query by ``entity`` against ``oracle``."""
        counters = self.counters
        counters["ro.total"] += 1
        counters["ro." + oracle] += 1
        counters["ro.by." + entity] += 1

    def count_signature(self, op: str) -> None:
        """Record a signing/verification operation (``op`` in {sign, verify})."""
        self.inc(f"sig.{op}")

    def snapshot(self) -> Dict[str, int]:
        """Immutable copy of all counters."""
        return dict(self.counters)

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Counters accumulated since ``earlier`` (a prior :meth:`snapshot`)."""
        return {
            key: value - earlier.get(key, 0)
            for key, value in self.counters.items()
            if value != earlier.get(key, 0)
        }

    def summary(self, prefixes: Tuple[str, ...] = ("messages", "ro", "sig", "rounds")) -> str:
        """Human-readable one-line-per-counter summary, filtered by prefix."""
        lines = []
        for key in sorted(self.counters):
            if any(key.startswith(prefix) for prefix in prefixes):
                lines.append(f"{key:<30} {self.counters[key]}")
        return "\n".join(lines)
