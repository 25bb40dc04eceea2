"""Pluggable UC execution runtime.

The runtime separates *what* a protocol does (parties, functionalities,
the clock — :mod:`repro.uc`) from *how* an execution is driven:

* :class:`~repro.runtime.backend.ExecutionBackend` — a named bundle of
  round driver and trace mode: the reference engine (``sequential``,
  spelled ``pooled`` for sweeps and ``batched`` with the trace off)
  and the same round plus a yield (``async``);
* :class:`~repro.runtime.driver.RoundDriver` — the round loop behind
  :class:`~repro.uc.environment.Environment` and every stack builder;
  every driver runs the one reference round body;
* :class:`~repro.runtime.scheduler.BatchScheduler` — per-round FIFO
  message queues drained in batches instead of per-message callbacks;
* :class:`~repro.runtime.pool.SessionPool` — N independent sessions
  (seed sweeps, repeated executions) through one driver, inline or via
  process workers with chunked dispatch and a per-worker initializer;
  each workload's session body is written once there and run either
  blocking (``run_*_trial``) or awaited (``async_*_session``); it
  plans worker/chunk shape for any
  ``(runner, task list)`` workload and verifies digest equality
  against the inline reference (``ParallelSweep`` is an alias kept for
  existing imports);
* :class:`~repro.runtime.supervisor.Supervisor` — the fault-tolerant
  process fan-out underneath it: per-chunk deadlines, deterministic
  retry/backoff, pool respawn on dead workers, poison-task quarantine,
  the crash-safe :class:`~repro.runtime.supervisor.SweepJournal` and
  the :class:`~repro.runtime.supervisor.ChaosPlan` fault harness;
* :class:`~repro.runtime.config.SweepConfig` — the one frozen config
  object every entry point (``SessionPool``, ``run_matrix``,
  ``AsyncSessionHost``, the CLI) takes its execution knobs from, as
  ``config=``;
* :class:`~repro.runtime.aio.AsyncSessionHost` — service mode: N
  concurrent sessions on one asyncio loop under the ``async`` backend,
  whose :class:`~repro.runtime.driver.AsyncRoundDriver` runs the
  sequential round and yields at each round boundary (digest-equal to
  ``sequential``).

The ``sequential`` backend is the default everywhere and reproduces the
pre-runtime engine byte-for-byte (same seed, same trace).
"""

from repro.runtime.aio import (
    AsyncSessionHost,
    HostReport,
    online_ranges_disjoint,
)
from repro.runtime.backend import (
    ASYNC,
    BATCHED,
    POOLED,
    SEQUENTIAL,
    ExecutionBackend,
    available_backends,
    get_backend,
)
from repro.runtime.config import SweepConfig, add_fanout_options, add_sweep_options
from repro.runtime.driver import (
    AsyncRoundDriver,
    BatchedRoundDriver,
    RoundDriver,
    SequentialRoundDriver,
)
from repro.runtime.material import (
    MATERIAL_SOURCES,
    HostSlotAllocator,
    MaterialCursor,
    MaterialHandle,
    MaterialStore,
    OnlinePlan,
    SpendLedger,
    attached_material,
    online_pool_requirement,
    publish_material,
    resolve_material_source,
    warm_with_material,
)
from repro.runtime.pool import (
    ParallelSweep,
    PoolReport,
    SessionPool,
    SweepPlan,
    SweepVerification,
    TraceDigestUnavailable,
    TrialDisagreement,
    TrialResult,
    async_sbc_session,
    async_voting_session,
    auto_chunksize,
    canonical_detail,
    compare_trace_digests,
    ensure_agreement,
    record_online_spend,
    reports_match,
    resolve_workers,
    run_sbc_trial,
    run_voting_trial,
    trace_digest,
)
from repro.runtime.scheduler import BatchScheduler
from repro.runtime.supervisor import (
    CHAOS_FOREVER,
    ChaosFault,
    ChaosInjected,
    ChaosPlan,
    Supervisor,
    SupervisorStats,
    SweepJournal,
)

__all__ = [
    "ASYNC",
    "AsyncRoundDriver",
    "AsyncSessionHost",
    "BATCHED",
    "BatchScheduler",
    "BatchedRoundDriver",
    "CHAOS_FOREVER",
    "ChaosFault",
    "ChaosInjected",
    "ChaosPlan",
    "ExecutionBackend",
    "HostReport",
    "HostSlotAllocator",
    "MATERIAL_SOURCES",
    "MaterialCursor",
    "MaterialHandle",
    "MaterialStore",
    "OnlinePlan",
    "POOLED",
    "ParallelSweep",
    "PoolReport",
    "RoundDriver",
    "SEQUENTIAL",
    "SequentialRoundDriver",
    "SessionPool",
    "SpendLedger",
    "Supervisor",
    "SupervisorStats",
    "SweepJournal",
    "SweepConfig",
    "SweepPlan",
    "SweepVerification",
    "TraceDigestUnavailable",
    "TrialDisagreement",
    "TrialResult",
    "add_fanout_options",
    "add_sweep_options",
    "async_sbc_session",
    "async_voting_session",
    "attached_material",
    "auto_chunksize",
    "available_backends",
    "canonical_detail",
    "compare_trace_digests",
    "ensure_agreement",
    "get_backend",
    "online_pool_requirement",
    "online_ranges_disjoint",
    "publish_material",
    "record_online_spend",
    "reports_match",
    "resolve_material_source",
    "resolve_workers",
    "run_sbc_trial",
    "run_voting_trial",
    "trace_digest",
    "warm_with_material",
]
