"""Supervised process fan-out: deadlines, retries, quarantine, journal.

A blocking ``pool.map`` lets a single SIGKILL-ed worker (OOM killer),
hung trial or poison task wedge or abort the whole sweep and discard
every finished chunk.  The :class:`Supervisor` dispatches each chunk
with ``apply_async`` and bounds its wait, so worker failure becomes a
*recoverable, accounted* event:

* **Deadlines** — each chunk's wait is bounded by an EWMA of observed
  per-task wall time (:func:`deadline_s`); a sweep may only cap it
  (``deadline_cap_s``).  A deadline expiry covers both failure modes a
  parent can see: a hung worker, and a killed one
  (``multiprocessing.Pool`` repopulates dead workers, but the lost
  job's result never arrives).
* **Retry** — failed or timed-out chunks are re-dispatched up to
  ``retry_attempts`` times after a fixed exponential backoff
  (:func:`backoff_s`).  Trials are seed-deterministic and wall-clock
  never enters trace digests, so a retried chunk reproduces the
  undisturbed run's digests exactly.
* **Respawn** — a deadline expiry terminates the pool (the only safe
  move once a worker may have died holding a queue lock) and restarts
  it; chunks already completed are kept, unfinished ones re-dispatch.
* **Quarantine** — a chunk that exhausts its attempts is bisected until
  the poison task is isolated, which is then quarantined with a
  ``task.quarantined`` event: the sweep completes with an honest
  partial report instead of crashing.
* **Journal** — :class:`SweepJournal` persists each completed chunk
  (tasks, results, record digest) to an append-only JSONL sidecar with
  the same mkstemp+fsync+rename discipline as the spend ledger, so a
  killed sweep resumes (``repro sweep --resume``) without re-running
  finished work — and, replaying the
  :class:`~repro.runtime.material.OnlinePlan` recorded in the header,
  without spending pool slices the journaled trials did not.
* **Chaos** — :class:`ChaosPlan` injects worker faults (in-worker
  SIGKILL at task *k*, an exception, a hang) for tests/CI.  Faults fire
  on the first ``repeat`` dispatches of a task only, so every chaos run
  must stay digest-equal to the undisturbed run — recovery itself is
  ``--verify``-checkable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import signal
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.pool import TrialResult
from repro.uc.trace import canonical_detail

__all__ = [
    "ChaosFault",
    "ChaosInjected",
    "ChaosPlan",
    "Supervisor",
    "SupervisorStats",
    "SweepJournal",
    "backoff_s",
    "deadline_s",
    "plan_from_record",
    "plan_to_record",
    "run_chunk",
    "trial_result_from_record",
    "trial_result_to_record",
]


class ChaosInjected(RuntimeError):
    """An exception injected by a :class:`ChaosPlan` fault (never a real bug)."""


#: Fault kinds a :class:`ChaosFault` can inject inside a worker.
CHAOS_KINDS = ("kill", "exc", "hang")

#: ``repeat`` value meaning "fire on every dispatch" (drives bisection
#: and quarantine instead of a clean retry).
CHAOS_FOREVER = 1 << 30

#: How long an injected ``"hang"`` fault sleeps: past the few-second
#: deadline cap a chaos run sets, so it models a wedged worker.
CHAOS_HANG_S = 30.0


@dataclass(frozen=True)
class ChaosFault:
    """One injected worker fault: ``kind`` fires when ``task`` is reached.

    Attributes:
        task: The task value (seed / index) the fault triggers on.
        kind: ``"kill"`` (SIGKILL the worker process), ``"exc"`` (raise
            :class:`ChaosInjected`) or ``"hang"`` (sleep
            :data:`CHAOS_HANG_S` before running the task).
        repeat: How many dispatches of the task the fault fires on
            (default 1: first attempt only, so the retry runs clean and
            the sweep stays digest-equal to an undisturbed run).  Use
            :data:`CHAOS_FOREVER` for a persistent poison task.
    """

    task: Any
    kind: str
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"fault kind must be one of {CHAOS_KINDS}, got {self.kind!r}")
        if self.repeat < 1:
            raise ValueError(f"fault repeat must be >= 1, got {self.repeat}")


@dataclass(frozen=True)
class ChaosPlan:
    """The fault-injection schedule for one sweep (picklable, frozen).

    Built programmatically from :class:`ChaosFault` instances or parsed
    from a CLI spec (see :meth:`parse`).  The supervisor ships a task's
    fault to the worker only while the task's dispatch count is below
    the fault's ``repeat`` — retries replay clean.
    """

    faults: Tuple[ChaosFault, ...]

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse ``kind@task[:repeat][,...]`` (e.g. ``kill@3,exc@5:*``).

        ``repeat`` defaults to 1 (first dispatch only); ``*`` means
        every dispatch (a persistent poison task, exercising bisection
        and quarantine).

        Raises:
            ValueError: empty or malformed spec.
        """
        faults: List[ChaosFault] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                kind, _, target = part.partition("@")
                if not target:
                    raise ValueError("missing '@task'")
                task_text, _, repeat_text = target.partition(":")
                repeat = 1
                if repeat_text:
                    repeat = CHAOS_FOREVER if repeat_text == "*" else int(repeat_text)
                faults.append(ChaosFault(task=int(task_text), kind=kind, repeat=repeat))
            except ValueError as exc:
                raise ValueError(
                    f"bad chaos fault {part!r} (want kind@task[:repeat] with "
                    f"kind in {CHAOS_KINDS}, e.g. 'kill@3' or 'exc@5:*'): {exc}"
                ) from exc
        if not faults:
            raise ValueError(f"chaos spec {spec!r} names no faults")
        return cls(faults=tuple(faults))

    def fault_for(self, task: Any) -> Optional[ChaosFault]:
        for fault in self.faults:
            if fault.task == task:
                return fault
        return None


#: The supervision schedule.  A sweep sets only ``retry_attempts``
#: (default :data:`DEFAULT_RETRY_ATTEMPTS`) and ``deadline_cap_s``; the
#: rest is fixed here (see :func:`backoff_s` and :func:`deadline_s`).
DEFAULT_RETRY_ATTEMPTS = 3
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0
DEADLINE_FLOOR_S = 60.0
DEADLINE_FACTOR = 32.0
#: The per-task estimate before the first chunk completes.
INITIAL_TASK_S = 1.0
#: EWMA smoothing factor for the observed per-task wall time.
DEADLINE_EWMA_ALPHA = 0.5


def backoff_s(attempt: int) -> float:
    """Pre-retry delay after ``attempt`` failed dispatches: doubling from
    50 ms up to 2 s.  No jitter and no clock reads, so a chaos run's
    retry schedule is reproducible (and wall time never enters digests)."""
    return min(BACKOFF_BASE_S * 2 ** (attempt - 1), BACKOFF_MAX_S)


def deadline_s(
    est_task_s: Optional[float], tasks: int, attempt: int = 0, cap_s: Optional[float] = None
) -> float:
    """The wait for a ``tasks``-long chunk: ``max(60, 32 * est * tasks)``
    seconds, capped at ``cap_s``, then doubled per earlier attempt so a
    merely slow chunk is not killed twice.  The generous floor means
    healthy sweeps never trip it; a cap makes hang detection fast."""
    base = max(DEADLINE_FLOOR_S, DEADLINE_FACTOR * (est_task_s or INITIAL_TASK_S) * max(1, tasks))
    if cap_s is not None:
        base = min(base, cap_s)
    return base * 2 ** attempt


def run_chunk(
    runner: Callable[[Any], Any],
    tasks: Sequence[Any],
    faults: Optional[Dict[Any, str]] = None,
) -> List[Any]:
    """Worker-side chunk body: run ``runner`` over ``tasks`` in order.

    Module-level (hence picklable) by construction.  ``faults`` maps a
    task to its active injected fault kind, applied *before* the task runs:
    ``kill`` SIGKILLs this worker (the parent sees a chunk deadline
    expire), ``exc`` raises :class:`ChaosInjected` (the parent sees the
    apply_async result fail), ``hang`` sleeps before proceeding.  The
    supervisor only ships a fault while its ``repeat`` budget lasts, so
    retries run this same code clean.
    """
    results: List[Any] = []
    for task in tasks:
        kind = (faults or {}).get(task)
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "hang":
            time.sleep(CHAOS_HANG_S)
        elif kind == "exc":
            raise ChaosInjected(f"injected failure at task {task!r}")
        results.append(runner(task))
    return results


@dataclass
class SupervisorStats:
    """Degradation counters for one supervised fan-out (JSON-safe)."""

    retries: int = 0
    respawns: int = 0
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)

    def to_record(self) -> Dict[str, Any]:
        """Uniform record for :class:`~repro.runtime.pool.PoolReport`."""
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "quarantined": len(self.quarantined),
            "quarantined_tasks": [entry["task"] for entry in self.quarantined],
            "events": list(self.events),
        }


@dataclass(eq=False)
class _Chunk:
    """One dispatch unit: a slice of the task list plus its retry state."""

    order: Tuple[int, ...]
    positions: List[int]
    tasks: List[Any]
    attempts: int = 0
    done: bool = False


class Supervisor:
    """Drive chunks through a ``multiprocessing.Pool`` under supervision.

    Owns the pool lifecycle (create, terminate-and-respawn on
    failure); workers otherwise live until :meth:`close`.  :meth:`map`
    preserves input order and is safe to call repeatedly against the
    same warm pool, with the deadline EWMA and degradation counters
    carried across calls.  Quarantined tasks yield ``None`` in the
    result list; the caller decides how to report the partial run.

    Args:
        workers: Worker process count.
        initializer: Per-worker start-up callable (module-level).
        initargs: Arguments for ``initializer``.
        retry_attempts: Dispatches per chunk before bisection (default:
            :data:`DEFAULT_RETRY_ATTEMPTS`).
        deadline_cap_s: Upper bound on any chunk's first-dispatch
            deadline (default: none, see :func:`deadline_s`).
        chaos: Optional :class:`ChaosPlan` of injected worker faults.
        on_chunk: ``on_chunk(tasks, results)`` called as each chunk
            completes (the journal seam).  ``OSError`` from the callback
            degrades to a :class:`RuntimeWarning` — bookkeeping must
            never fail a healthy sweep.
    """

    def __init__(
        self,
        workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        retry_attempts: Optional[int] = None,
        deadline_cap_s: Optional[float] = None,
        chaos: Optional[ChaosPlan] = None,
        on_chunk: Optional[Callable[[List[Any], List[Any]], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.retry_attempts = retry_attempts or DEFAULT_RETRY_ATTEMPTS
        self.deadline_cap_s = deadline_cap_s
        self.chaos = chaos
        self.on_chunk = on_chunk
        self.stats = SupervisorStats()
        self._pool: Optional[Any] = None
        self._inflight: Dict[_Chunk, Any] = {}
        self._dispatches: Dict[Any, int] = {}
        self._ewma_task_s: Optional[float] = None
        # Liveness watch: worker Process handles seen on the last poll,
        # and whether one has died abnormally since the last respawn
        # (meaning some inflight chunk's result will never arrive).
        self._workers_seen: List[Any] = []
        self._suspect = False

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.Pool(
                processes=self.workers,
                initializer=self.initializer,
                initargs=self.initargs if self.initializer else (),
            )
            self._workers_seen = list(getattr(self._pool, "_pool", []))
        return self._pool

    def _shutdown_pool(self) -> None:
        self._inflight.clear()
        if self._pool is not None:
            # terminate() (not close()) — after a deadline expiry a worker
            # may be hung or may have died holding a queue lock, so a
            # graceful drain could block forever.
            self._pool.terminate()
            # Bounded in practice: terminate() has already killed the
            # workers, join only reaps them.  # repro: allow[RPR007]
            self._pool.join()
            self._pool = None
        self._workers_seen = []
        self._suspect = False

    def _respawn(self, reason: str) -> None:
        self._shutdown_pool()
        self.stats.respawns += 1
        self.stats.events.append({"kind": "pool.respawn", "reason": reason})

    def close(self) -> None:
        """Tear the pool down; the supervisor may not be reused after."""
        self._shutdown_pool()

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------

    def _active_faults(self, chunk: _Chunk) -> Optional[Dict[Any, str]]:
        """Faults to ship with this dispatch; advances the attempt counts.

        A fault stays active while the task's dispatch count is below
        the fault's ``repeat`` — the gate that makes first-attempt
        faults replay clean on retry (digest equality) and persistent
        faults drive bisection.
        """
        faults: Dict[Any, str] = {}
        for task in chunk.tasks:
            seen = self._dispatches.get(task, 0)
            self._dispatches[task] = seen + 1
            if self.chaos is None:
                continue
            fault = self.chaos.fault_for(task)
            if fault is not None and seen < fault.repeat:
                faults[task] = fault.kind
        return faults or None

    def _submit(self, pool: Any, runner: Callable[[Any], Any], chunk: _Chunk) -> None:
        self._inflight[chunk] = pool.apply_async(
            run_chunk, (runner, list(chunk.tasks), self._active_faults(chunk))
        )

    def _observe(self, payload: Sequence[Any]) -> None:
        timings = [
            result.wall_time_s
            for result in payload
            if getattr(result, "wall_time_s", None) is not None
        ]
        if not timings:
            return
        observed = sum(timings) / len(timings)
        self._ewma_task_s = (
            observed
            if self._ewma_task_s is None
            else DEADLINE_EWMA_ALPHA * observed
            + (1 - DEADLINE_EWMA_ALPHA) * self._ewma_task_s
        )

    def _complete(
        self, results: Dict[int, Any], chunk: _Chunk, payload: List[Any]
    ) -> None:
        if len(payload) != len(chunk.tasks):
            raise RuntimeError(
                f"worker returned {len(payload)} results for a "
                f"{len(chunk.tasks)}-task chunk (run_chunk contract broken)"
            )
        for position, result in zip(chunk.positions, payload):
            results[position] = result
        chunk.done = True
        self._observe(payload)
        if self.on_chunk is not None:
            try:
                self.on_chunk(list(chunk.tasks), list(payload))
            except OSError as exc:
                warnings.warn(
                    f"sweep journal append failed ({exc}); a crash before the "
                    "next successful append will re-run this chunk on --resume",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _harvest(self, results: Dict[int, Any], chunks: List[_Chunk]) -> None:
        """Collect finished siblings before a respawn discards the pool.

        Results already sitting in an ``AsyncResult`` survive
        ``terminate()``; results still in the output queue would be
        lost, so everything ready is drained first and journaled.
        """
        for chunk, handle in list(self._inflight.items()):
            if not handle.ready():
                continue
            del self._inflight[chunk]
            try:
                payload = handle.get(timeout=0)
            except Exception as exc:  # worker raised; account it as a failure
                self._fail(chunks, chunk, f"worker raised {type(exc).__name__}: {exc}")
            else:
                self._complete(results, chunk, payload)

    def _dead_worker(self) -> bool:
        """True if a tracked worker died abnormally since the last poll.

        Reads the pool's internal ``_pool`` worker list (stable across
        CPython 3.x) but keeps its own ``Process`` references, so an
        exitcode stays readable after the pool reaps the corpse.  Clean
        exits (code 0) don't count.
        """
        if self._pool is None:
            return False
        dead = [
            proc for proc in self._workers_seen if proc.exitcode not in (None, 0)
        ]
        self._workers_seen = list(getattr(self._pool, "_pool", []))
        if dead:
            self.stats.events.append(
                {
                    "kind": "worker.death",
                    "exitcodes": [proc.exitcode for proc in dead],
                }
            )
        return bool(dead)

    def _await_result(
        self, handle: Any, budget: float, grace: float
    ) -> Tuple[str, Any]:
        """Wait on one chunk, watching worker liveness between polls.

        Returns ``("ok", payload)``, ``("error", exc)`` for a raising
        worker, or ``("timeout", reason)``.  A timeout fires either when
        the full deadline ``budget`` expires (hung worker) or — much
        sooner — when a worker has died abnormally and the chunk still
        hasn't produced within ``grace``: its job rode the dead worker
        and the result will never arrive, so waiting out a 60s deadline
        would just stall recovery.
        """
        import multiprocessing

        poll_s = 0.05
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            if elapsed >= budget:
                return "timeout", f"chunk deadline of {budget:.3f}s expired"
            if self._suspect and elapsed >= grace:
                return (
                    "timeout",
                    f"worker died; chunk presumed lost after {grace:.3f}s grace",
                )
            try:
                return "ok", handle.get(timeout=min(poll_s, budget - elapsed))
            except multiprocessing.TimeoutError:
                if not self._suspect and self._dead_worker():
                    self._suspect = True
            except Exception as exc:  # worker raised; pool still healthy
                return "error", exc

    def _fail(self, chunks: List[_Chunk], chunk: _Chunk, reason: str) -> None:
        chunk.attempts += 1
        if chunk.attempts < self.retry_attempts:
            self.stats.retries += 1
            self.stats.events.append(
                {
                    "kind": "chunk.retry",
                    "tasks": list(chunk.tasks),
                    "attempt": chunk.attempts,
                    "reason": reason,
                }
            )
            time.sleep(backoff_s(chunk.attempts))
        elif len(chunk.tasks) > 1:
            # Attempts exhausted on a multi-task chunk: split it so the
            # poison task is isolated instead of taking siblings down.
            chunk.done = True
            mid = len(chunk.tasks) // 2
            children = [
                _Chunk(
                    order=chunk.order + (side,),
                    positions=chunk.positions[lo:hi],
                    tasks=chunk.tasks[lo:hi],
                )
                for side, (lo, hi) in enumerate(
                    ((0, mid), (mid, len(chunk.tasks)))
                )
            ]
            chunks.extend(children)
            self.stats.retries += 1
            self.stats.events.append(
                {
                    "kind": "chunk.bisect",
                    "tasks": list(chunk.tasks),
                    "attempt": chunk.attempts,
                    "reason": reason,
                }
            )
        else:
            chunk.done = True
            task = chunk.tasks[0]
            entry = {
                "task": task,
                "attempts": chunk.attempts,
                "reason": reason,
            }
            self.stats.quarantined.append(entry)
            self.stats.events.append({"kind": "task.quarantined", **entry})

    def map(
        self,
        runner: Callable[[Any], Any],
        tasks: Sequence[Any],
        sizes: Sequence[int],
    ) -> List[Optional[Any]]:
        """Run ``runner`` over ``tasks``; results in input order.

        ``sizes`` lists each chunk's task count in dispatch order (a
        :attr:`~repro.runtime.pool.SweepPlan.sizes`); they must sum to
        ``len(tasks)``.  Chunks are queued in that order and a free
        worker takes the next one, so the small chunks at the end of a
        shrinking plan even out the workers' finishing times.

        Quarantined tasks yield ``None`` at their position.  Raises
        nothing for worker failure — every failure mode ends in a
        retry, a respawn, a bisection or a quarantine entry.

        Raises:
            ValueError: ``sizes`` does not cover ``tasks`` exactly.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        starts = list(itertools.accumulate(sizes, initial=0))
        if starts[-1] != len(tasks) or any(size < 1 for size in sizes):
            raise ValueError(
                f"chunk sizes {list(sizes)!r} do not cover {len(tasks)} tasks"
            )
        chunks: List[_Chunk] = [
            _Chunk(
                order=(index,),
                positions=list(range(start, end)),
                tasks=tasks[start:end],
            )
            for index, (start, end) in enumerate(zip(starts, starts[1:]))
        ]
        results: Dict[int, Any] = {}
        while True:
            open_chunks = sorted(
                (chunk for chunk in chunks if not chunk.done),
                key=lambda chunk: chunk.order,
            )
            if not open_chunks:
                break
            pool = self._ensure_pool()
            for chunk in open_chunks:
                if chunk not in self._inflight:
                    self._submit(pool, runner, chunk)
            target = open_chunks[0]
            budget = deadline_s(
                self._ewma_task_s, len(target.tasks), target.attempts,
                self.deadline_cap_s,
            )
            # Once a worker death is observed, a healthy target should
            # still finish within a few multiples of the running
            # estimate — if it doesn't, its job died with the worker.
            est = self._ewma_task_s if self._ewma_task_s is not None else INITIAL_TASK_S
            grace = min(budget, max(4.0 * est * len(target.tasks), 1.0))
            handle = self._inflight[target]
            status, outcome = self._await_result(handle, budget, grace)
            if status == "timeout":
                # Dead or hung worker: the pool is no longer trustworthy
                # (a SIGKILL-ed worker may have died holding a queue
                # lock), so harvest what finished, then rebuild it.
                self._harvest(results, chunks)
                self._inflight.pop(target, None)
                self._respawn(f"{outcome} on tasks {target.tasks!r}")
                self._fail(chunks, target, str(outcome))
            elif status == "error":  # the worker raised: pool still healthy
                self._inflight.pop(target, None)
                self._fail(
                    chunks, target,
                    f"worker raised {type(outcome).__name__}: {outcome}",
                )
            else:
                self._inflight.pop(target, None)
                self._complete(results, target, outcome)
        return [results.get(position) for position in range(len(tasks))]


# -- journal -----------------------------------------------------------------


def trial_result_to_record(result: TrialResult) -> Dict[str, Any]:
    """JSON-safe record of one :class:`~repro.runtime.pool.TrialResult`.

    Raises:
        TypeError: the result's outputs/online payload is not
            JSON-serializable (journaling is defined for the standard
            trial runners, whose outputs are strings).
    """
    record = {
        "seed": result.seed,
        "wall_time_s": result.wall_time_s,
        "rounds": result.rounds,
        "messages": result.messages,
        "digest": result.digest,
        "outputs": result.outputs,
        "online": result.online,
    }
    # Round-trip through JSON now, for two reasons: a non-serializable
    # payload fails here instead of mid-flush with a torn journal, and
    # tuples (e.g. the online record's spend ranges) normalize to lists
    # *before* the chunk digest is taken — otherwise the digest could
    # never validate against the reloaded (list-bearing) record.
    return json.loads(json.dumps(record))


def trial_result_from_record(record: Dict[str, Any]) -> TrialResult:
    online = record.get("online")
    if online is not None:
        online = dict(online)
        # JSON turns the cursor's range tuples into lists; restore them
        # so a resumed result compares equal to a fresh one.
        for key in ("nonce_range", "feldman_range"):
            if online.get(key) is not None:
                online[key] = tuple(online[key])
    return TrialResult(
        seed=record["seed"],
        wall_time_s=record["wall_time_s"],
        rounds=record["rounds"],
        messages=record["messages"],
        digest=record["digest"],
        outputs=record.get("outputs"),
        online=online,
    )


def plan_to_record(plan: Any) -> Dict[str, Any]:
    """JSON-safe record of an :class:`~repro.runtime.material.OnlinePlan`."""
    return {
        "fingerprint": plan.fingerprint,
        "assignments": [[task, slot] for task, slot in plan.assignments],
        "nonces_per_task": plan.nonces_per_task,
        "feldman_per_task": plan.feldman_per_task,
        "blob_sha256": plan.blob_sha256,
        "pool_nonces": plan.pool_nonces,
        "pool_feldman": plan.pool_feldman,
    }


def plan_from_record(record: Dict[str, Any]) -> Any:
    """Reconstruct the journaled plan — resume must replay it *verbatim*.

    Re-planning on resume would pin whatever blob the store holds now:
    after a rebuild, the resumed trials would spend different pool
    entries than the journaled ones and the run could never be
    digest-checked.
    """
    from repro.runtime.material import OnlinePlan

    return OnlinePlan(
        fingerprint=record["fingerprint"],
        assignments=tuple((task, slot) for task, slot in record["assignments"]),
        nonces_per_task=record["nonces_per_task"],
        feldman_per_task=record["feldman_per_task"],
        blob_sha256=record["blob_sha256"],
        pool_nonces=record["pool_nonces"],
        pool_feldman=record["pool_feldman"],
    )


def _record_digest(payload: Any) -> str:
    """Deterministic digest of a journal record body (no wall-clock)."""
    return hashlib.sha256(canonical_detail(payload).encode()).hexdigest()


class SweepJournal:
    """Crash-safe chunk-completion log for one sweep (JSONL sidecar).

    Line 1 is a header (schema id, the sweep's configuration and its
    digest, the serialized :class:`~repro.runtime.material.OnlinePlan`
    or ``None``); each further line records one completed chunk (tasks,
    serialized results, a digest over the results).  Every append
    rewrites the whole file atomically — ``tempfile.mkstemp`` + write +
    fsync + ``os.replace``, the :class:`~repro.runtime.material.SpendLedger`
    discipline — so a coordinator killed between writes leaves either
    the old journal or the new one, never a torn line.  :meth:`load`
    still tolerates a truncated copy (e.g. an operator's partial
    restore): records after the first corrupt line are discarded with a
    warning, which only means the corresponding chunks re-run.
    """

    SCHEMA = "sweep.journal.v1"

    def __init__(self, path: Any) -> None:
        self.path = pathlib.Path(path)
        self._lines: Optional[List[str]] = None

    def begin(
        self, config: Dict[str, Any], plan_record: Optional[Dict[str, Any]] = None
    ) -> None:
        """Start a fresh journal (overwrites any previous run's file)."""
        header = {
            "kind": "header",
            "schema": self.SCHEMA,
            "config": config,
            "config_digest": _record_digest(config),
            "plan": plan_record,
        }
        self._lines = [json.dumps(header, sort_keys=True)]
        self._flush()

    def append_chunk(self, tasks: List[Any], results: List[Any]) -> None:
        """Record one completed chunk; quarantined (``None``) results are
        omitted so their tasks re-run on resume instead of being lost."""
        if self._lines is None:
            raise RuntimeError("journal has no header; call begin() or load() first")
        completed = [
            (task, result)
            for task, result in zip(tasks, results)
            if result is not None
        ]
        if not completed:
            return
        payload = [trial_result_to_record(result) for _, result in completed]
        record = {
            "kind": "chunk",
            "tasks": [task for task, _ in completed],
            "results": payload,
            "digest": _record_digest(payload),
        }
        self._lines.append(json.dumps(record, sort_keys=True))
        self._flush()

    def load(self) -> Tuple[Dict[str, Any], Dict[Any, TrialResult]]:
        """Read the journal back: ``(header, task -> result)``.

        The second item holds every journaled chunk's results, keyed by
        task: what a resumed sweep splices in instead of re-running.

        Raises:
            FileNotFoundError: no journal at this path.
            ValueError: the header line is missing, corrupt, or not
                this schema — there is nothing safe to resume from.
        """
        lines = self.path.read_text().splitlines()
        header: Optional[Dict[str, Any]] = None
        completed: Dict[Any, TrialResult] = {}
        kept: List[str] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if index == 0:
                if (
                    not isinstance(record, dict)
                    or record.get("kind") != "header"
                    or record.get("schema") != self.SCHEMA
                    or _record_digest(record.get("config"))
                    != record.get("config_digest")
                ):
                    raise ValueError(
                        f"{self.path} is not a valid {self.SCHEMA} journal "
                        "(missing or corrupt header); cannot resume"
                    )
                header = record
            elif (
                not isinstance(record, dict)
                or record.get("kind") != "chunk"
                or _record_digest(record.get("results")) != record.get("digest")
            ):
                warnings.warn(
                    f"sweep journal {self.path} record {index} is corrupt; "
                    f"discarding it and the {len(lines) - index - 1} records "
                    "after it — those chunks will re-run",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            else:
                for task, payload in zip(record["tasks"], record["results"]):
                    completed[task] = trial_result_from_record(payload)
            kept.append(line)
        if header is None:
            raise ValueError(f"{self.path} is empty; cannot resume")
        # Future appends extend the validated prefix, dropping the torn tail.
        self._lines = kept
        return header, completed

    def _flush(self) -> None:
        """Atomically rewrite the journal (mkstemp + fsync + rename)."""
        assert self._lines is not None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write("\n".join(self._lines) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            # Best-effort temp-file cleanup; the original error propagates.
            except OSError:  # repro: allow[RPR005]
                pass
            raise
