"""Session pools: run N independent sessions through one driver.

Benchmarks and repeated-execution experiments (the [FKL08] workload) need
many independent executions — same protocol, different seeds or configs.
:class:`SessionPool` owns that loop: it maps a picklable *trial runner*
over a seed list, either inline (one driver, warm interpreter and crypto
caches) or via supervised process workers, and collects uniform
:class:`TrialResult` records including a deterministic trace digest so
pooled and sequential runs can be byte-compared.

Every orchestration step is written once, here, and reads the run's
execution shape from its one :class:`~repro.runtime.config.SweepConfig`:
:meth:`SweepPlan.resolve` (worker count and chunk size),
:func:`resolve_online_plan`, :func:`start_warm_workers` (publish
material, then start process workers that attach it) and
:func:`ledger_online_spend`.  :class:`SessionPool` runs and verifies
sweeps with them (``ParallelSweep`` is an alias of it), and
:class:`~repro.runtime.aio.AsyncSessionHost` reuses the steps for
service mode.  The config is the only way in: an execution knob passed
as a loose keyword is refused, never forwarded to the runner.

Each workload's session is written once, as a generator body that yields
a :class:`Drive` request wherever it advances rounds and returns its
:class:`TrialResult`.  The sync trial runners (:func:`run_sbc_trial`,
:func:`run_voting_trial`) answer each request with the driver's blocking
loop; their coroutine twins (:func:`async_sbc_session`,
:func:`async_voting_session`) await it.  An event loop gives one such
session its turn at a time, oldest first, and the loop's other tasks
run at every round boundary.  A body closes its session
(:meth:`~repro.uc.session.Session.close`) once the result is built, so
reference counting frees it on return.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import os
import time
import warnings
import weakref
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runtime.backend import ExecutionBackend, get_backend
from repro.runtime.config import SweepConfig
from repro.runtime.driver import AsyncRoundDriver, RoundDriver

# canonical_detail moved next to the Event type it renders; re-exported
# here (and from repro.runtime) for the existing import surface.
from repro.uc.trace import NullEventLog, RenderMemo, canonical_detail


def trace_digest(log) -> str:
    """Deterministic SHA-256 digest of an :class:`~repro.uc.trace.EventLog`.

    Hashes the ``(seq, time, kind, source, detail)`` tuples in execution
    order under :func:`canonical_detail`, so two sessions with identical
    traces digest equally even across processes with different hash seeds
    or dict insertion histories.

    Returns ``""`` for a trace-off (``light``) log — a constant hash there
    would make distinct executions compare equal, which is exactly the
    false positive a digest consumer must never see.

    One render memo is shared by every event of the call, so a payload
    recorded in many events (a composed session leaks and delivers each
    time-lock ciphertext to every party) is rendered once.  It is freed
    on return; the digest is byte-identical to rendering each event
    alone.  An event whose ``seq``/``time`` are exact ``int`` and whose
    ``kind``/``source`` are exact ``str`` has its head formatted here,
    the text :func:`canonical_detail` gives those four items, and only
    its detail goes through the renderer; its fresh head tuple never
    enters the memo.
    """
    if isinstance(log, NullEventLog):
        return ""
    h = hashlib.sha256()
    memo: RenderMemo = {}
    for event in log:
        seq, time_, kind, source, detail = (
            event.seq, event.time, event.kind, event.source, event.detail,
        )
        if type(seq) is int and type(time_) is int and type(kind) is str and type(source) is str:
            text = f"({seq}, {time_}, {kind!r}, {source!r}, {canonical_detail(detail, memo)})"
        else:
            text = canonical_detail((seq, time_, kind, source, detail), memo)
        h.update(text.encode())
    return h.hexdigest()


class TraceDigestUnavailable(ValueError):
    """Both sides of a digest comparison ran trace-off (``light``) mode.

    An empty digest means "no trace was kept", so ``"" == ""`` says
    nothing about the two executions — a comparison that would silently
    pass for *any* pair of runs must error instead.
    """


def compare_trace_digests(left: str, right: str) -> bool:
    """Compare two :func:`trace_digest` values, refusing vacuous equality.

    Returns whether the digests match.  A one-sided empty digest simply
    compares unequal (one run kept a trace, the other did not).

    Raises:
        TraceDigestUnavailable: both digests are empty — both executions
            ran trace-off, so equality would be meaningless.
    """
    if not left and not right:
        raise TraceDigestUnavailable(
            "both digests are empty (trace-off executions); rerun under a "
            "full-trace backend or compare protocol outputs instead"
        )
    return left == right


def reports_match(left: "PoolReport", right: "PoolReport") -> bool:
    """Seed-for-seed digest comparison of two pool reports.

    Raises:
        ValueError: either report is empty (a zero-trial comparison would
            vacuously "match" any other empty run) or the reports cover
            different numbers of trials.
        TraceDigestUnavailable: any trial pair is empty on both sides.
    """
    if not left.results or not right.results:
        raise ValueError(
            "cannot compare empty pool reports (zero trials match vacuously)"
        )
    if len(left.results) != len(right.results):
        raise ValueError(
            f"reports cover {len(left.results)} vs {len(right.results)} trials"
        )
    return all(
        compare_trace_digests(a.digest, b.digest)
        for a, b in zip(left.results, right.results)
    )


@dataclass(frozen=True)
class TrialResult:
    """Picklable summary of one pooled session execution.

    Attributes:
        seed: The session seed this trial ran under.
        wall_time_s: Wall-clock seconds for build + run.
        rounds: Rounds the global clock advanced.
        messages: Total messages counted by the session metrics.
        digest: Trace digest (empty string when tracing is off).
        outputs: Compact, picklable summary of the protocol outputs.
        online: Pool-spend summary for online-mode trials (the cursor's
            fingerprint, reserved ranges and consumed/sampled counts);
            ``None`` for sample-per-call trials.
    """

    seed: int
    wall_time_s: float
    rounds: int
    messages: int
    digest: str
    outputs: Any = None
    online: Optional[Dict[str, Any]] = None


class TrialDisagreement(AssertionError):
    """Honest parties of one pooled trial delivered different outputs.

    Agreement is the protocol's core guarantee; a pooled sweep that only
    summarised one party's view could silently archive a disagreeing
    execution.  Trial runners call :func:`ensure_agreement` before
    summarising so such a trial aborts the sweep loudly instead.
    """


def ensure_agreement(delivered: Dict[str, Any], seed: Optional[int] = None) -> Any:
    """Assert every party's delivered view matches; return the common view.

    Args:
        delivered: pid -> delivered outputs (honest parties only).
        seed: Optional trial seed, included in the error message.

    Raises:
        ValueError: ``delivered`` is empty (no honest view to agree on).
        TrialDisagreement: at least two parties delivered different views.
    """
    if not delivered:
        raise ValueError("no delivered views: cannot check agreement")
    items = sorted(delivered.items())
    reference_pid, reference = items[0]
    disagreeing = {
        pid: view for pid, view in items[1:] if view != reference
    }
    if disagreeing:
        trial = f" (seed={seed})" if seed is not None else ""
        raise TrialDisagreement(
            f"honest parties disagree{trial}: {reference_pid}={reference!r} "
            f"vs {disagreeing!r}"
        )
    return reference


#: Trace-event kind under which a trial records its pool consumption.
ONLINE_EVENT_KIND = "online.spend"


def record_online_spend(session, cursor) -> Optional[Dict[str, Any]]:
    """Log one trial's pool consumption into its execution trace.

    The spend summary (pool fingerprint, reserved cursor ranges,
    consumed/sampled counts) becomes an ordinary trace event, so the
    trial's digest pins *which* pool entries the run spent — two
    pool-consuming runs only digest-equal when they spent the same
    entries of the same material, and a pool-consuming run can never
    digest-equal a sample-per-call run.  Returns the summary for the
    :class:`TrialResult`; ``cursor=None`` (an offline trial) records
    nothing and returns ``None``, so runners need no conditional.  A
    ``light``-trace session records nothing (its digest is empty
    anyway) but still returns the summary.
    """
    if cursor is None:
        return None
    summary = cursor.spend_summary()
    session.log.record(
        time=session.clock.time,
        kind=ONLINE_EVENT_KIND,
        source="runtime.material",
        detail=summary,
    )
    return summary


class Drive(NamedTuple):
    """A session body's request to advance its session's rounds.

    ``until`` is the completion predicate and ``rounds`` its budget;
    ``until=None`` asks for exactly ``rounds`` empty rounds.
    """

    driver: RoundDriver
    until: Optional[Callable[[Any], bool]]
    rounds: int

    def run(self) -> int:
        """Answer with the driver's blocking loop."""
        if self.until is None:
            return self.driver.run_rounds(self.rounds)
        return self.driver.run_until(self.until, max_rounds=self.rounds)

    async def run_async(self) -> int:
        """Answer by awaiting the rounds of an ``async`` driver.

        That driver yields at every round boundary, so the loop's other
        tasks run between rounds; any other driver runs its blocking
        loop — correct, just not cooperative.
        """
        driver = self.driver
        if not isinstance(driver, AsyncRoundDriver):
            return self.run()
        if self.until is None:
            return await driver.run_rounds_async(self.rounds)
        return await driver.run_until_async(self.until, max_rounds=self.rounds)


#: A session body: yields :class:`Drive` requests, returns the result.
SessionBody = Generator[Drive, None, TrialResult]


def _drive_sync(body: SessionBody) -> TrialResult:
    """Run a session body, answering each request with :meth:`Drive.run`."""
    try:
        request = next(body)
        while True:
            request.run()
            request = body.send(None)
    except StopIteration as stop:
        return stop.value
    finally:
        # A failed drive exits the body's ``with`` blocks here, in the
        # caller's context, before the error propagates.
        body.close()


#: Each running event loop's session turn (see :func:`_drive_async`).
#: The turn belongs to the loop, and session bodies reach it with no host
#: object in hand, so it is keyed here, weakly: a closed loop's turn goes
#: with it, and a fresh loop starts with a free one.
_TURNS: "weakref.WeakKeyDictionary[asyncio.AbstractEventLoop, asyncio.Lock]" = (
    weakref.WeakKeyDictionary()
)


async def _drive_async(body: SessionBody) -> TrialResult:
    """Run a session body, awaiting :meth:`Drive.run_async` per request.

    The body holds its loop's session turn from its first step until it
    returns, raises or is cancelled.  ``asyncio.Lock`` wakes waiters in
    arrival order and lets no newcomer barge past them, so a loop's
    sessions run oldest-first, one at a time: each finishes after its
    queue wait plus its own CPU time, not at the makespan of everything
    admitted with it.  Each session is its own UC instance on its own
    clock, so the order never shows in a trace.  The driver still yields
    at every round boundary, so admission and the loop's other tasks keep
    running.  The one rule: a body must never await another async session
    on the same loop, which would wait forever for the turn its caller
    holds.
    """
    async with _TURNS.setdefault(asyncio.get_running_loop(), asyncio.Lock()):
        try:
            request = next(body)
            while True:
                await request.run_async()
                request = body.send(None)
        except StopIteration as stop:
            return stop.value
        finally:
            body.close()


#: The scope of a trial that spends no pool and batches nothing: both
#: seams stay as they are, so every such trial enters this one no-op.
_NO_SCOPE = contextlib.nullcontext()


@contextlib.contextmanager
def _spending_and_batching(cursor: Optional[Any], batch: Optional[Any]) -> Iterator[None]:
    from repro.crypto.batch import batching
    from repro.crypto.randomness import spending

    with spending(cursor), batching(batch):
        yield


def _trial_scope(cursor: Optional[Any], batch: Optional[Any]) -> ContextManager[None]:
    """The randomness and batching scope a session body runs in."""
    if cursor is None and batch is None:
        return _NO_SCOPE
    return _spending_and_batching(cursor, batch)


def _trial_result(
    stack: Any,
    seed: int,
    honest_views: Dict[str, Any],
    elapsed: float,
    online: Optional[Dict[str, Any]],
) -> TrialResult:
    """Summarise a finished session once its honest views agree."""
    agreed = ensure_agreement(honest_views, seed=seed)
    return TrialResult(
        seed=seed,
        wall_time_s=elapsed,
        rounds=stack.session.metrics.get("rounds.advanced"),
        messages=stack.session.metrics.get("messages.total"),
        digest=trace_digest(stack.session.log),
        outputs=repr(agreed),
        online=online,
    )


def _sbc_session(
    seed: int,
    n: int,
    mode: str,
    phi: Optional[int],
    delta: Optional[int],
    senders: int,
    backend: Union[str, ExecutionBackend],
    trace: Optional[str],
    online: Optional[Any],
    batch: Optional[Any],
) -> SessionBody:
    """The SBC session body behind :func:`run_sbc_trial`/:func:`async_sbc_session`."""
    from repro.core.stacks import build_sbc_stack, session_timing

    phi, delta = session_timing(mode, phi, delta)
    cursor = online.open(seed) if online is not None else None
    start = time.perf_counter()
    with _trial_scope(cursor, batch):
        stack = build_sbc_stack(
            n=n, mode=mode, seed=seed, phi=phi, delta=delta, backend=backend,
            trace=trace,
        )
        for index in range(senders):
            stack.parties[f"P{index % n}"].broadcast(f"m{seed}-{index}".encode())
        yield Drive(stack.env.driver, stack.honest_outputs_done, stack.delivery_budget())
    online_record = record_online_spend(stack.session, cursor)
    elapsed = time.perf_counter() - start
    corrupted = stack.session.corrupted
    honest_views = {
        pid: view for pid, view in stack.delivered().items() if pid not in corrupted
    }
    result = _trial_result(stack, seed, honest_views, elapsed, online_record)
    stack.session.close()
    return result


def _voting_session(
    seed: int,
    voters: int,
    candidates: Tuple[str, ...],
    mode: str,
    backend: Union[str, ExecutionBackend],
    trace: Optional[str],
    online: Optional[Any],
    batch: Optional[Any],
) -> SessionBody:
    """The election body behind :func:`run_voting_trial`/:func:`async_voting_session`."""
    from repro.core.stacks import build_voting_stack

    candidates = tuple(candidates)
    cursor = online.open(seed) if online is not None else None
    start = time.perf_counter()
    with _trial_scope(cursor, batch):
        stack = build_voting_stack(
            voters=voters, mode=mode, seed=seed, candidates=candidates,
            backend=backend, trace=trace,
        )
        if mode == "ideal":
            stack.service.init()
        else:
            for authority in stack.authorities.values():
                authority.deal()
            yield Drive(stack.env.driver, None, 1)
        for index in range(voters):
            stack.parties[f"V{index}"].vote(candidates[index % len(candidates)])
        yield Drive(stack.env.driver, stack.honest_outputs_done, stack.result_budget())
    online_record = record_online_spend(stack.session, cursor)
    elapsed = time.perf_counter() - start
    honest_tallies = {
        pid: tuple(sorted(tally.items()))
        for pid, tally in stack.results().items()
        if not stack.session.is_corrupted(pid)
    }
    result = _trial_result(stack, seed, honest_tallies, elapsed, online_record)
    stack.session.close()
    return result


def run_sbc_trial(
    seed: int,
    n: int = 3,
    mode: str = "hybrid",
    phi: Optional[int] = None,
    delta: Optional[int] = None,
    senders: int = 1,
    backend: Union[str, ExecutionBackend] = "pooled",
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """Run one full SBC session end to end and summarise it.

    Module-level (hence picklable) so :class:`SessionPool` can dispatch it
    to ``concurrent.futures`` process workers.  With ``online`` (an
    :class:`~repro.runtime.material.OnlinePlan`) the trial spends its
    reserved slice of the preprocessed randomness pools and records the
    consumed cursor ranges in the trace.  With ``batch`` (a
    :class:`~repro.crypto.batch.BatchPolicy`) verification-heavy rounds
    batch their checks through one random-linear-combination multi-exp.
    Φ and ∆ left as ``None`` take the mode's defaults
    (:func:`~repro.core.stacks.session_timing`).
    """
    return _drive_sync(
        _sbc_session(seed, n, mode, phi, delta, senders, backend, trace, online, batch)
    )


def run_voting_trial(
    seed: int,
    voters: int = 3,
    candidates: Tuple[str, ...] = ("yes", "no"),
    mode: str = "hybrid",
    backend: Union[str, ExecutionBackend] = "pooled",
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """Run one self-tallying election end to end and summarise it.

    The election workload is the sweep engine's proof-of-spend: every
    ballot carries a disjunctive Σ-protocol validity proof, so each
    trial burns real nonces — sampled per call by default, spent from
    the trial's reserved pool slice under an
    :class:`~repro.runtime.material.OnlinePlan`.  Module-level (hence
    picklable) for process fan-out, like :func:`run_sbc_trial`.  With
    ``batch`` (a :class:`~repro.crypto.batch.BatchPolicy`) the tally
    round verifies certificates and ballot proofs through one
    random-linear-combination batch per voter.
    """
    return _drive_sync(
        _voting_session(seed, voters, candidates, mode, backend, trace, online, batch)
    )


async def async_sbc_session(
    seed: int,
    n: int = 3,
    mode: str = "hybrid",
    phi: Optional[int] = None,
    delta: Optional[int] = None,
    senders: int = 1,
    backend: Union[str, ExecutionBackend] = "async",
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """:func:`run_sbc_trial` with its rounds awaited on the running loop.

    Same body, same seed, same digest.  The randomness and batching
    seams are context-local (:mod:`contextvars`), so each hosted
    session's ``spending`` cursor stays its own whatever else runs on
    the loop between its rounds.
    """
    return await _drive_async(
        _sbc_session(seed, n, mode, phi, delta, senders, backend, trace, online, batch)
    )


async def async_voting_session(
    seed: int,
    voters: int = 3,
    candidates: Tuple[str, ...] = ("yes", "no"),
    mode: str = "hybrid",
    backend: Union[str, ExecutionBackend] = "async",
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """:func:`run_voting_trial` with its rounds awaited on the running loop.

    The host's default workload: every hosted session burns real
    nonces, so a host run can check that leased pool slices never
    overlap.
    """
    return await _drive_async(
        _voting_session(seed, voters, candidates, mode, backend, trace, online, batch)
    )


@dataclass
class PoolReport:
    """Aggregate view over one :meth:`SessionPool.run`."""

    backend: str
    executor: str
    wall_time_s: float
    results: List[TrialResult] = field(default_factory=list)
    #: Worker count actually used (None for inline runs) and the largest
    #: chunk size (process runs only); both read from
    #: :meth:`SessionPool.plan`.
    workers: Optional[int] = None
    chunksize: Optional[int] = None
    #: Where online-mode pools came from (compute/disk/shared).
    material_source: Optional[str] = None
    #: Aggregate pool consumption for online-mode sweeps (None otherwise).
    online_spend: Optional[Dict[str, int]] = None
    #: The resolved :class:`~repro.runtime.material.OnlinePlan` the sweep
    #: executed (None for offline sweeps).  Verification replays reuse
    #: this exact plan, pinned blob included: a plan made afresh after a
    #: rebuild would pin a different blob, and the replay would spend
    #: different entries.  Not part of :meth:`summary`.
    online_plan: Optional[Any] = None
    #: Degradation counters from the supervised process fan-out
    #: (retries/respawns/quarantined + events; see
    #: :class:`~repro.runtime.supervisor.SupervisorStats`).  Always set
    #: for process runs — zeros are the honest "nothing degraded" —
    #: and ``None`` for the inline executor.
    supervision: Optional[Dict[str, Any]] = None
    #: Trials restored from a :class:`~repro.runtime.supervisor.SweepJournal`
    #: instead of executed (``repro sweep --resume``).
    resumed: int = 0
    #: The execution shape the run resolved, over the tasks it dispatched
    #: (a resume plans only its unjournaled ones); None for a report
    #: built by hand.  Not part of :meth:`summary`.
    plan: Optional[SweepPlan] = None

    @property
    def sessions(self) -> int:
        return len(self.results)

    @property
    def total_rounds(self) -> int:
        return sum(result.rounds for result in self.results)

    @property
    def total_messages(self) -> int:
        return sum(result.messages for result in self.results)

    def quarantine_error(self) -> Optional[str]:
        """The line naming why a process sweep came back empty, or None:
        every trial failed in a worker (an injected fault, a crash the
        parent could not check up front), so the supervisor quarantined
        each one; the first quarantined task's reason says why."""
        events = (self.supervision or {}).get("events", [])
        quarantined = [event for event in events if event["kind"] == "task.quarantined"]
        if self.results or not quarantined:
            return None
        first = quarantined[0]
        return (
            f"all {len(quarantined)} trials were quarantined; first, task "
            f"{first['task']!r}: {first['reason']}"
        )

    def summary(self) -> Dict[str, Any]:
        """Uniform record for benchmark JSON emission.

        Raises:
            ValueError: the report is empty — ``sessions=0`` rows have
                repeatedly masked sweeps that silently ran nothing.
        """
        if not self.results:
            raise ValueError("empty pool report: the sweep executed no trials")
        record = {
            "backend": self.backend,
            "executor": self.executor,
            "sessions": self.sessions,
            "wall_time_s": round(self.wall_time_s, 6),
            "rounds": self.total_rounds,
            "messages": self.total_messages,
        }
        if self.workers is not None:
            record["workers"] = self.workers
        if self.chunksize is not None:
            record["chunksize"] = self.chunksize
        if self.material_source is not None:
            record["material_source"] = self.material_source
        if self.online_spend is not None:
            record["online"] = True
            record.update(self.online_spend)
        if self.supervision is not None:
            # Degradation is part of the honest record: a reference-perf
            # row that silently retried its way to the finish line is
            # not comparable to a clean one.
            record["retries"] = int(self.supervision.get("retries", 0))
            record["respawns"] = int(self.supervision.get("respawns", 0))
            record["quarantined"] = int(self.supervision.get("quarantined", 0))
        if self.resumed:
            record["resumed"] = self.resumed
        return record


#: Target task chunks per worker for auto-chunked process fan-out; a few
#: chunks per worker amortise IPC while still balancing uneven trials.
CHUNKS_PER_WORKER = 4

#: An auto plan's smallest chunk, as a fraction of its largest: the tail
#: shrinks no further, so IPC per task stays bounded.
CHUNK_FLOOR_DIVISOR = 32


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: the explicit value or every available core."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


def auto_chunksize(tasks: int, workers: int) -> int:
    """The largest chunk of an auto plan: ceil(tasks / (workers * 4)).

    One task per IPC round-trip (``chunksize=1``) drowns small-session
    sweeps in pickling overhead; one chunk per worker loses load
    balancing.  An auto plan opens with chunks of this size, about
    :data:`CHUNKS_PER_WORKER` per worker, then shrinks them toward the
    end of the sweep (:attr:`SweepPlan.sizes`).
    """
    if tasks <= 0:
        return 1
    return max(1, -(-tasks // (max(1, workers) * CHUNKS_PER_WORKER)))


def _warm_worker(
    backend: Union[str, ExecutionBackend, None] = None,
    material: Any = None,
    arith: Optional[str] = None,
) -> None:
    """Process-pool initializer: select the arith tier and register pools.

    Runs once per worker process via the backend's
    :meth:`~repro.runtime.backend.ExecutionBackend.warm_up` hook.
    ``arith`` carries the parent's arithmetic-backend selection into the
    worker (values are identical across backends, so a worker that
    cannot honour it warns and falls back rather than failing the
    sweep).  With a published
    :class:`~repro.runtime.material.MaterialHandle` the worker reads the
    store files it names and registers their randomness pools for online
    trials.  Crypto tables are not built here: a worker builds each on
    its first walk.  Module-level (hence picklable) by construction.
    """
    get_backend(backend).warm_up(material, arith=arith)


@dataclass(frozen=True)
class SweepPlan:
    """The resolved execution shape of one run (:meth:`SessionPool.plan`)."""

    tasks: int
    executor: str
    workers: int
    #: The largest chunk; every chunk's size when ``uniform``.
    chunksize: int
    #: Where online-mode pools come from (compute/disk/shared).
    material_source: str = "compute"
    #: Whether trials spend the preprocessed randomness pools (online
    #: protocol mode; digests pinned separately from compute runs).
    online: bool = False
    #: Whether trials batch verification rounds through random-linear-
    #: combination multi-exps (digest-pinned via ``verify.batch`` events
    #: when the policy records them).
    batch_verify: bool = False
    #: Whether every chunk holds ``chunksize`` tasks (an explicit
    #: ``chunksize``) instead of shrinking toward the end (auto).
    uniform: bool = False

    @classmethod
    def resolve(cls, config: SweepConfig, tasks: int) -> "SweepPlan":
        """The one place a config's worker count and chunk size resolve."""
        if config.executor == "process":
            workers = resolve_workers(config.workers)
            chunksize = config.chunksize or auto_chunksize(tasks, workers)
        else:
            workers = 1
            chunksize = 1
        return cls(
            tasks=tasks,
            executor=config.executor,
            workers=workers,
            chunksize=chunksize,
            material_source=config.material,
            online=bool(config.online),
            batch_verify=config.batch_policy is not None,
            uniform=config.chunksize is not None,
        )

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Each chunk's task count, in dispatch order; they sum to ``tasks``.

        Uniform plans cut ``chunksize``-task chunks.  An auto plan
        (guided self-scheduling) sizes chunk k as
        ``min(cap, max(floor, ceil(remaining / (2 * workers))))`` with
        ``cap = chunksize`` and ``floor = ceil(cap / 32)``: full chunks
        while much work is left, then ever smaller ones, so the workers
        run out of work together instead of one idling through the
        other's last full chunk.  4000 tasks on 2 workers give 5 × 500,
        then 375, 282, ..., 16, 14 (20 chunks).
        """
        cap = self.chunksize
        floor = -(-cap // CHUNK_FLOOR_DIVISOR)
        sizes: List[int] = []
        remaining = self.tasks
        while remaining > 0:
            size = cap
            if not self.uniform:
                size = min(cap, max(floor, -(-remaining // (2 * self.workers))))
            size = min(size, remaining)
            sizes.append(size)
            remaining -= size
        return tuple(sizes)

    @property
    def chunks(self) -> int:
        """Number of dispatch units the task list shards into."""
        return len(self.sizes)

    def summary(self) -> Dict[str, Any]:
        """Uniform record of the planned shape."""
        return {
            "tasks": self.tasks,
            "executor": self.executor,
            "workers": self.workers,
            "chunksize": self.chunksize,
            "chunks": self.chunks,
            "material_source": self.material_source,
            "online": self.online,
            "batch_verify": self.batch_verify,
        }


@dataclass
class SweepVerification:
    """A sweep report plus its inline reference and the digest verdict."""

    report: PoolReport
    reference: PoolReport
    matched: bool

    @property
    def speedup(self) -> float:
        """Inline wall time over sweep wall time (>1 means the sweep won)."""
        return self.reference.wall_time_s / max(self.report.wall_time_s, 1e-9)


# -- orchestration steps shared with the service host ------------------------


def resolve_online_plan(config: SweepConfig, tasks: Sequence[Any]) -> Optional[Any]:
    """The :class:`~repro.runtime.material.OnlinePlan` a run spends (or None).

    ``online=True`` plans positionally over ``tasks`` against the first
    material group; an explicit plan passes through untouched (the
    caller owns slot assignment — and the reference replay of a
    ``verify()`` must reuse the run's exact plan).
    """
    if not config.online:
        return None
    from repro.runtime.material import OnlinePlan

    if isinstance(config.online, OnlinePlan):
        return config.online
    from repro.crypto.groups import TEST_GROUP

    group = (config.material_groups or (TEST_GROUP,))[0]
    return OnlinePlan.for_tasks(list(tasks), group=group)


def _spend_totals(results: Sequence[Any]) -> Dict[str, int]:
    """Traffic sums over a set of trial results' spend records."""
    totals = {
        "nonces_spent": 0,
        "feldman_spent": 0,
        "nonces_sampled": 0,
        "feldman_sampled": 0,
    }
    for result in results:
        record = getattr(result, "online", None)
        if record:
            for key in totals:
                totals[key] += int(record.get(key, 0))
    return totals


def ledger_online_spend(
    plan: Any,
    results: Sequence[Any],
    ledgered: Optional[Sequence[Any]] = None,
) -> Dict[str, int]:
    """Sum per-trial spend records and ledger them against the store.

    ``ledgered`` restricts what is *recorded* (not what is summed for the
    report): a resumed sweep reports totals over every trial, but only
    its freshly-executed trials may ledger spend — the journaled ones
    were ledgered by the run that executed them, and re-adding their
    traffic would double-count it.
    """
    totals = _spend_totals(results)
    recorded = totals if ledgered is None else _spend_totals(ledgered)
    try:
        from repro.runtime.material import MaterialStore

        MaterialStore().record_spend(
            plan.fingerprint,
            nonces=recorded["nonces_spent"],
            feldman=recorded["feldman_spent"],
        )
    except OSError as exc:
        # Advisory bookkeeping must never fail a finished run — but the
        # ledger's sums now undercount, so say it degraded.
        warnings.warn(
            f"could not record online spend in the material ledger ({exc}); "
            "its spend sums will undercount this run",
            RuntimeWarning,
            stacklevel=2,
        )
    return totals


def start_warm_workers(
    config: SweepConfig,
    backend: ExecutionBackend,
    start: Callable[..., Any],
) -> Tuple[Any, Any]:
    """Publish material, then start process workers that attach it.

    ``start`` builds the worker pool from ``initializer``/``initargs``
    keywords (a :class:`~repro.runtime.supervisor.Supervisor` for
    sweeps, a ``ProcessPoolExecutor`` for the service host).  The parent
    publishes the validated store files of ``config.material_groups``
    once and every worker attaches them from the handle.  Returns
    ``(workers, handle)``; ``handle`` is None when nothing was published.
    """
    from repro.crypto.groups import get_arith_backend
    from repro.runtime.material import publish_material

    handle = publish_material(config.material, groups=config.material_groups)
    workers = start(
        initializer=_warm_worker,
        initargs=(backend, handle, get_arith_backend().name),
    )
    return workers, handle


class SessionPool:
    """Run many independent sessions (different seeds) through one driver.

    Args:
        runner: ``runner(seed, **kwargs) -> TrialResult`` (or any picklable
            result).  Must be a module-level callable for process workers.
        config: A :class:`~repro.runtime.config.SweepConfig` holding
            every execution knob (backend, executor, workers, material,
            online, supervision, ...) — see that class for the full
            reference; validation lives in its ``__post_init__``.  The
            pool reads it as ``self.config`` and keeps no other copy.
            ``None`` means ``SweepConfig()``: the ``pooled`` backend,
            inline.
        **runner_kwargs: Forwarded verbatim to ``runner`` on every
            trial.

    Raises:
        TypeError: a runner keyword is named like a config knob
            (``executor=``, ``online=``, ...).  It would reach the runner
            unvalidated while the report and :meth:`verify` followed the
            config, so it must go through ``config=SweepConfig(...)``.
    """

    def __init__(
        self,
        runner: Callable[..., TrialResult] = run_sbc_trial,
        *,
        config: Optional[SweepConfig] = None,
        **runner_kwargs: Any,
    ) -> None:
        knobs = sorted(set(runner_kwargs) & set(SweepConfig.knob_names()))
        if knobs:
            raise TypeError(
                f"{type(self).__name__}: execution knobs go through "
                f"config=SweepConfig(...), not runner keywords (got {', '.join(knobs)})"
            )
        if config is None:
            config = SweepConfig()
        self.config = config
        self.runner = runner
        self.runner_kwargs = dict(runner_kwargs)
        self._backend = get_backend(config.backend)

    def plan(self, tasks: int) -> SweepPlan:
        """The execution shape :meth:`run` will use for ``tasks`` tasks."""
        return SweepPlan.resolve(self.config, tasks)

    def _call_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.runner_kwargs)
        # Forward the backend *instance* (frozen dataclass, picklable), not
        # its name: with_trace() overrides and unregistered custom backends
        # must survive the trip into the runner.
        kwargs.setdefault("backend", self._backend)
        if self.config.trace is not None:
            kwargs.setdefault("trace", self.config.trace)
        return kwargs

    def _process_map(
        self,
        bound: Callable[..., TrialResult],
        seeds: Sequence[int],
        plan: SweepPlan,
        journal: Optional[Any] = None,
    ) -> Tuple[List[Optional[TrialResult]], Any, Any]:
        """Supervised chunked process fan-out; input order preserved.

        One :meth:`~repro.runtime.supervisor.Supervisor.map` call over
        the planned chunk sizes (:attr:`SweepPlan.sizes`), on workers
        that live for the whole sweep.
        Every chunk is dispatched via ``apply_async`` with a bounded
        per-chunk wait, so a SIGKILL-ed, hung or crashing worker costs
        a retry (and possibly a pool respawn or a quarantined task),
        never the sweep.

        Returns ``(results, stats, handle)``; quarantined tasks appear
        as ``None`` at their position, and ``handle`` is the published
        material (None when nothing was published).
        """
        from repro.runtime.supervisor import Supervisor

        config = self.config
        supervisor, handle = start_warm_workers(
            config,
            self._backend,
            functools.partial(
                Supervisor,
                workers=plan.workers,
                retry_attempts=config.retry_attempts,
                deadline_cap_s=config.deadline_cap_s,
                chaos=config.chaos,
                on_chunk=journal.append_chunk if journal is not None else None,
            ),
        )
        try:
            results = supervisor.map(bound, seeds, plan.sizes)
        finally:
            supervisor.close()
        return results, supervisor.stats, handle

    def _journal_config(self, seeds: Sequence[Any]) -> Dict[str, Any]:
        """What must match between a journaled run and its resume.

        Anything digest-relevant is pinned (runner, backend, trace,
        task list, protocol-mode flags, the runner kwargs via a
        canonical digest); execution-shape knobs (workers, chunksize)
        are deliberately absent — resuming on a differently-sized box
        is the point of the journal.
        """
        config = self.config
        return {
            "runner": f"{self.runner.__module__}.{self.runner.__qualname__}",
            "backend": self._backend.name,
            "trace": config.trace,
            "online": bool(config.online),
            "batch_verify": config.batch_policy is not None,
            "kwargs_digest": hashlib.sha256(
                canonical_detail(self.runner_kwargs).encode()
            ).hexdigest(),
            "tasks": list(seeds),
        }

    def _journal_open(
        self, seeds: Sequence[Any]
    ) -> Tuple[Optional[Any], Dict[Any, TrialResult], Optional[Any]]:
        """Open/resume the sweep journal; resolve the online plan.

        Returns ``(journal, resumed_results, online_plan)``.  On resume
        the journaled plan is reconstructed and replayed verbatim, so
        the resumed trials spend the slices of the blob the journaled
        ones spent; a store rebuilt in between makes them sample.
        """
        config = self.config
        if config.journal is None:
            return None, {}, resolve_online_plan(config, seeds)
        from repro.runtime.supervisor import (
            SweepJournal,
            plan_from_record,
            plan_to_record,
        )

        journal = SweepJournal(config.journal)
        if not config.resume:
            online_plan = resolve_online_plan(config, seeds)
            journal.begin(
                self._journal_config(seeds),
                plan_to_record(online_plan) if online_plan is not None else None,
            )
            return journal, {}, online_plan
        header, resumed = journal.load()
        expected = self._journal_config(seeds)
        if header.get("config") != expected:
            raise ValueError(
                f"sweep journal {journal.path} was written by a different "
                "sweep configuration; resume refused (splicing its results "
                "into this run would mix workloads)"
            )
        plan_record = header.get("plan")
        online_plan = (
            plan_from_record(plan_record) if plan_record is not None else None
        )
        return journal, resumed, online_plan

    def run(self, seeds: Iterable[int]) -> PoolReport:
        """Execute one trial per seed; returns the aggregate report.

        Results always come back in seed order, whatever the executor,
        so seed-for-seed digest comparison against an inline run needs
        no re-sorting.  Under the supervised process executor a
        quarantined poison task is *omitted* from the results (its
        identity lands in ``report.supervision["quarantined_tasks"]``)
        — the honest partial report the sweep completes with instead
        of crashing.
        """
        config = self.config
        seeds = list(seeds)
        kwargs = self._call_kwargs()
        journal, resumed, online_plan = self._journal_open(seeds)
        # A resumed sweep dispatches only its unjournaled tasks, so its
        # chunks are planned over those.
        remaining = [seed for seed in seeds if seed not in resumed]
        plan = self.plan(len(remaining))
        if online_plan is not None:
            kwargs["online"] = online_plan
        if config.batch_policy is not None:
            kwargs["batch"] = config.batch_policy
        supervision: Optional[Dict[str, Any]] = None
        fresh_results: Optional[List[TrialResult]] = None
        handle: Any = None
        bound = functools.partial(self.runner, **kwargs)
        start = time.perf_counter()
        if plan.executor == "process":
            mapped: List[Optional[TrialResult]] = []
            if remaining:
                mapped, stats, handle = self._process_map(
                    bound, remaining, plan, journal=journal
                )
                supervision = stats.to_record()
            else:
                from repro.runtime.supervisor import SupervisorStats

                supervision = SupervisorStats().to_record()
            fresh_results = [result for result in mapped if result is not None]
            fresh_iter = iter(mapped)
            results = []
            for seed in seeds:
                if seed in resumed:
                    results.append(resumed[seed])
                else:
                    result = next(fresh_iter)
                    if result is not None:
                        results.append(result)
        else:
            if config.material != "compute":
                # Inline trials share this process's pools: attach once
                # here.
                self._backend.warm_up(
                    config.material, groups=config.material_groups
                )
            results = [self.runner(seed, **kwargs) for seed in seeds]
        elapsed = time.perf_counter() - start
        # Process reports always say where worker pools came from: the
        # requested source only when a handle was published, since a
        # failed publish leaves workers with none.  Inline runs only
        # mention material when they attached any.
        material_source: Optional[str] = config.material
        if plan.executor == "process":
            if handle is None:
                material_source = "compute"
        elif config.material == "compute":
            material_source = None
        online_spend = (
            ledger_online_spend(online_plan, results, ledgered=fresh_results)
            if online_plan is not None
            else None
        )
        return PoolReport(
            backend=self._backend.name,
            executor=plan.executor,
            wall_time_s=elapsed,
            results=results,
            workers=plan.workers if plan.executor != "inline" else None,
            chunksize=plan.chunksize if plan.executor == "process" else None,
            material_source=material_source,
            online_spend=online_spend,
            online_plan=online_plan,
            supervision=supervision,
            resumed=len(resumed),
            plan=plan,
        )

    def _inline_reference(self, report: PoolReport) -> "SessionPool":
        """An inline pool with identical runner/backend/trace settings.

        Deliberately left on the default ``compute`` material: verify()
        then checks digest equality *across* material sources (attached
        pools in the run, none in the reference), which is exactly the
        store's correctness contract.

        Online runs are the exception: the reference must *spend the
        same pool entries*, so it attaches the disk store (same blob the
        run published) and replays the report's resolved
        :class:`~repro.runtime.material.OnlinePlan` verbatim — which is
        how pool-consuming process runs stay seed-for-seed verifiable.
        """
        from repro.runtime.material import MATERIAL_DISK

        config = self.config
        online: Dict[str, Any] = {}
        if report.online_plan is not None:
            online = dict(
                material=MATERIAL_DISK,
                material_groups=config.material_groups,
                online=report.online_plan,
            )
        reference = SweepConfig(
            backend=config.backend,
            executor="inline",
            batch_verify=config.batch_verify,
            trace=config.trace,
            **online,
        )
        return SessionPool(self.runner, config=reference, **self.runner_kwargs)

    def verify(self, tasks: Iterable[Any]) -> SweepVerification:
        """Run the tasks *and* an inline reference; compare digests.

        Raises:
            ValueError: the task list is empty, or every trial was
                quarantined (the message names the first one's reason;
                the reference is not run).
            TraceDigestUnavailable: the run was trace-off (``light``),
                so there are no digests to compare.
        """
        tasks = list(tasks)
        report = self.run(tasks)
        error = report.quarantine_error()
        if error is not None:
            raise ValueError(error)
        reference = self._inline_reference(report).run(tasks)
        return SweepVerification(
            report=report,
            reference=reference,
            matched=reports_match(report, reference),
        )


#: The name the multi-core sweep engine went by; the same class.
ParallelSweep = SessionPool

