"""Network-fault knobs for scenario executions, within the sync bound.

The base model is synchronous: a message sent in round ``r`` is delivered
at the start of round ``r + 1``, and the environment (hence the
adversary) picks the activation order inside each round.  Everything the
model leaves open is a fault knob the paper's properties must survive:

* **activation scheduling** — the per-round ``Advance_Clock`` order may
  be permuted arbitrarily (``reversed``, ``rotate``, seeded ``shuffle``);
* **input timing** — sender inputs may be staggered across rounds (as
  long as they stay within the relevant broadcast period);
* **scheduler faults** — for channels routed through the session's
  :class:`~repro.runtime.scheduler.BatchScheduler` (``SyncNetwork``,
  hence Dolev–Strong and every baseline), the round's delivery batch may
  be reordered, messages from chosen senders may be *delayed to the end
  of the batch* (the largest delay the sync bound permits: delivery still
  happens in round ``r + 1``), or dropped entirely (a crash/suppression
  fault — dropping a party's traffic is how a silent crash looks to
  everyone else, and counts against the corruption budget ``t``).

A cross-round delay is deliberately *not* offered: the round structure
is the synchrony assumption, and violating it tests nothing the paper
claims.  All knobs are deterministic — two runs of the same plan produce
identical schedules, so faulty executions stay digest-comparable across
backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, List, Optional, Sequence, Tuple

from repro.runtime.scheduler import BatchScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uc.session import Session

#: Supported activation-order policies.
ACTIVATIONS = ("default", "reversed", "rotate", "shuffle")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative bundle of fault knobs for one scenario.

    Attributes:
        name: Short label used in cell ids (``none``, ``reversed`` ...).
        activation: Per-round activation-order policy (one of
            :data:`ACTIVATIONS`).
        activation_seed: Seed for the ``shuffle`` policy.
        stagger: Rounds between successive sender inputs (0 = all inputs
            land in round 0).
        net_reorder: Deterministically shuffle each scheduler drain batch.
        net_reorder_seed: Seed for the batch shuffle.
        net_delay_from: Messages from these senders are moved to the end
            of their round's batch (maximal in-bound delay).
        net_drop_from: Messages from these senders are dropped (crash /
            suppression fault).
    """

    name: str = "none"
    activation: str = "default"
    activation_seed: int = 0
    stagger: int = 0
    net_reorder: bool = False
    net_reorder_seed: int = 0
    net_delay_from: Tuple[str, ...] = ()
    net_drop_from: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {list(ACTIVATIONS)}, got {self.activation!r}"
            )
        if self.stagger < 0:
            raise ValueError("stagger must be >= 0")

    # -- activation scheduling ---------------------------------------------

    def order_for_round(
        self, round_index: int, pids: Sequence[str]
    ) -> Optional[List[str]]:
        """Activation order for round ``round_index`` (None = registration
        order).  Always a permutation of ``pids``."""
        if self.activation == "default":
            return None
        pids = list(pids)
        if self.activation == "reversed":
            return pids[::-1]
        if self.activation == "rotate":
            shift = round_index % len(pids) if pids else 0
            return pids[shift:] + pids[:shift]
        rng = random.Random(f"activation:{self.activation_seed}:{round_index}")
        rng.shuffle(pids)
        return pids

    # -- input timing ------------------------------------------------------

    def input_round(self, sender_index: int) -> int:
        """The round at which the ``sender_index``-th input is delivered."""
        return sender_index * self.stagger

    # -- scheduler faults ----------------------------------------------------

    @property
    def has_net_faults(self) -> bool:
        return bool(self.net_reorder or self.net_delay_from or self.net_drop_from)

    def install(self, session: "Session") -> None:
        """Swap the session's scheduler for a faulty one (when needed).

        Must run before any message is enqueued; scenario builders call it
        immediately after session construction.
        """
        if self.has_net_faults:
            session.scheduler = FaultyScheduler(plan=self)


class FaultyScheduler(BatchScheduler):
    """A :class:`BatchScheduler` applying a plan's drop/delay/reorder knobs.

    Faults act on drained batches only — enqueue order (what producers
    observe) is untouched, and every surviving message is still delivered
    in its own round, so the sync bound holds by construction.  Sender
    identification assumes the ``SyncNetwork`` item shape
    ``(recipient, (sender, payload))``; items of any other shape pass
    through unfiltered.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        super().__init__()
        self.plan = plan or FaultPlan()
        self.dropped: List[Tuple[Hashable, Any]] = []
        self._drains = 0

    @staticmethod
    def _sender(item: Tuple[Hashable, Any]) -> Optional[str]:
        _key, value = item
        if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], str):
            return value[0]
        return None

    def drain(self, channel: str) -> List[Tuple[Hashable, Any]]:
        batch = super().drain(channel)
        if not batch:
            return batch
        self._drains += 1
        plan = self.plan
        if plan.net_drop_from:
            kept = []
            for item in batch:
                if self._sender(item) in plan.net_drop_from:
                    self.dropped.append(item)
                else:
                    kept.append(item)
            batch = kept
        if plan.net_reorder:
            rng = random.Random(f"net:{plan.net_reorder_seed}:{self._drains}")
            rng.shuffle(batch)
        if plan.net_delay_from:
            prompt = [i for i in batch if self._sender(i) not in plan.net_delay_from]
            delayed = [i for i in batch if self._sender(i) in plan.net_delay_from]
            batch = prompt + delayed
        return batch


#: The fault patterns swept by the default matrix.  Every paper property
#: must hold (or fail) identically across all of them — scheduling freedom
#: is the adversary's, not the protocol's.
DEFAULT_FAULTS: Tuple[FaultPlan, ...] = (
    FaultPlan(name="none"),
    FaultPlan(name="reversed", activation="reversed"),
    FaultPlan(name="stagger", activation="rotate", stagger=1),
)
