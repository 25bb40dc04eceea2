"""Service mode: many concurrent sessions on one asyncio event loop.

The paper's synchrony is a global clock (Katz et al., TCC 2013): parties
act inside a round and observe one another only when the clock advances.
Each session is its own UC instance on its own clock, so the order in
which a host advances different sessions never shows in any trace.  The
``async`` backend's :class:`~repro.runtime.driver.AsyncRoundDriver`
runs the sequential round body, then yields once to the loop.  Each
session's trace stays byte-identical to ``sequential``; the
differential suite enforces it.

:class:`AsyncSessionHost` is the service-mode entry point (``repro
serve``): it hosts N sessions concurrently — under the ``inline``
executor as coroutines on the one loop
(:func:`~repro.runtime.pool.async_sbc_session` /
:func:`~repro.runtime.pool.async_voting_session`, which share their
session bodies with the sync trial runners), under the ``process``
executor as sync trials offloaded to warmed process workers — and
leases each session a disjoint online-pool slot through
:class:`~repro.runtime.material.HostSlotAllocator`, so concurrent
sessions can never double-spend preprocessed randomness.

Inline protocol sessions run oldest-first: each takes its loop's one
session turn and holds it until it returns, so a session finishes after
its queue wait plus its own CPU time, not at the makespan of every
session admitted with it.  Admission, other hosts and any other task on
the loop still run at each of its round boundaries.  The one rule that
follows: a session body must not await another async session on the
same loop, which would wait forever for the turn its caller holds.

The host writes no orchestration of its own: it resolves its online
plan, worker count, process-worker warm-up (material published once in
the parent, then attached by every worker) and spend ledgering through
the same steps as :class:`~repro.runtime.pool.SessionPool`, all read
from one :class:`~repro.runtime.config.SweepConfig`.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import math
import time
from concurrent import futures
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.backend import ASYNC, get_backend
from repro.runtime.config import SweepConfig
from repro.runtime.driver import AsyncRoundDriver
from repro.runtime.pool import (
    SweepPlan,
    async_sbc_session,
    async_voting_session,
    ledger_online_spend,
    resolve_online_plan,
    start_warm_workers,
    trace_digest,
)

__all__ = [
    "ASYNC",
    "AsyncRoundDriver",
    "AsyncSessionHost",
    "HostReport",
    "async_sbc_session",
    "async_voting_session",
    "online_ranges_disjoint",
    "trace_digest",
]


def online_ranges_disjoint(results: Sequence[Any]) -> Tuple[bool, int]:
    """Check that no two trial spend records overlap pool ranges.

    Returns ``(disjoint, spends_checked)`` over every result carrying an
    ``online`` spend summary that actually *spent* (sampled-only records
    reserve nothing).  This is the zero-double-spend evidence the E22
    bench and the stress tests assert.
    """
    pools = (("nonce_range", "nonces_spent"), ("feldman_range", "feldman_spent"))
    spans_by_pool: Dict[str, List[Tuple[int, int]]] = {pool: [] for pool, _ in pools}
    for result in results:
        record = getattr(result, "online", None)
        if not record:
            continue
        for pool, spent_key in pools:
            lo_hi = record.get(pool)
            spent = int(record.get(spent_key, 0))
            if lo_hi and spent:
                spans_by_pool[pool].append((int(lo_hi[0]), int(lo_hi[0]) + spent))
    checked = 0
    disjoint = True
    # The two pools are separate index spaces: a session's nonce slice
    # legitimately shares indices with its own feldman slice, so overlap
    # is only ever checked within one pool.
    for spans in spans_by_pool.values():
        spans.sort()
        checked += len(spans)
        for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
            if lo < prev_hi:
                disjoint = False
    return disjoint, checked


@dataclass
class HostReport:
    """Aggregate view over one :meth:`AsyncSessionHost.run`."""

    backend: str
    executor: str
    wall_time_s: float
    results: List[Any] = field(default_factory=list)
    #: Task indices in the order sessions *finished* (``results`` itself
    #: stays in submission order).
    completion_order: List[int] = field(default_factory=list)
    #: Admission-to-completion seconds per session, in submission order.
    latencies_s: List[float] = field(default_factory=list)
    #: Aggregate pool consumption for online hosts (None otherwise).
    online_spend: Optional[Dict[str, int]] = None

    @property
    def sessions(self) -> int:
        return len(self.results)

    @property
    def sessions_per_s(self) -> float:
        """The service-mode headline: completed sessions per wall second."""
        return self.sessions / max(self.wall_time_s, 1e-9)

    @property
    def interleaved(self) -> int:
        """Completions that finished out of submission order.

        Protocol sessions run oldest-first, so they report zero; a
        nonzero count means short runners overtook long ones, which only
        runners that never take the session turn (plain coroutines,
        executor-offloaded trials) can do.
        """
        return sum(
            1
            for position, index in enumerate(self.completion_order)
            if index != position
        )

    def latency_ms(self, percent: float) -> float:
        """Nearest-rank percentile of the sessions' latencies, in ms."""
        ranked = sorted(self.latencies_s)
        rank = max(1, math.ceil(percent / 100 * len(ranked)))
        return ranked[rank - 1] * 1000

    def summary(self) -> Dict[str, Any]:
        """Uniform record for benchmark JSON emission.

        Raises:
            ValueError: the report is empty — a ``sessions=0`` service
                row would mask a host that silently ran nothing.
        """
        if not self.results:
            raise ValueError("empty host report: the host ran no sessions")
        record: Dict[str, Any] = {
            "backend": self.backend,
            "executor": self.executor,
            "sessions": self.sessions,
            "wall_time_s": round(self.wall_time_s, 6),
            "sessions_per_s": round(self.sessions_per_s, 3),
            "interleaved": self.interleaved,
        }
        # Wall-clock telemetry: reported, never part of a digest.
        for percent in (50, 95, 99):
            record[f"latency_p{percent}_ms"] = round(self.latency_ms(percent), 3)
        if self.online_spend is not None:
            record["online"] = True
            record.update(self.online_spend)
        return record


class AsyncSessionHost:
    """Host N concurrent sessions on one event loop (``repro serve``).

    Args:
        runner: Per-session workload, called as ``runner(seed,
            **kwargs)``.  A coroutine function (the default
            :func:`async_voting_session`) runs inline on the host loop;
            protocol sessions take the loop's session turn oldest-first
            and let the loop's other tasks run at each round boundary,
            while a plain coroutine runs wherever it awaits.  It must
            not await another async session on the same loop.  A plain
            function under ``executor="process"`` is
            offloaded through ``run_in_executor`` to a warmed process
            pool (it must be picklable — the sweep trial runners
            qualify).
        config: A :class:`~repro.runtime.config.SweepConfig`; the host
            reads ``backend`` (defaults to ``async``), ``executor``,
            ``workers``, ``warmup``, ``material``, ``material_groups``,
            ``online``, ``batch_verify`` and ``trace``.  The sweep
            fan-out knobs (``chunksize``, ``retry``, ``deadline``,
            ``chaos``, ``journal``, ``resume``) shape chunked sweeps,
            which a host never runs, so a config setting any is refused.
        session_timeout_s: Wall-clock bound on one executor-offloaded
            session (inline coroutine sessions are bounded by their
            round budgets instead).
        admission_chunk: Hosted sessions are admitted in chunks of this
            many before yielding to the loop, so early sessions start
            making progress while late ones are still being created.
        runner_kwargs: Extra keywords forwarded to every session's
            runner (only names the runner's signature accepts are
            injected, so minimal stress runners need no ``**kwargs``).

    Online mode: with ``config.online`` the host plans pool slots over
    the distinct seeds (or takes an explicit
    :class:`~repro.runtime.material.OnlinePlan`) and leases each session
    its slot through a
    :class:`~repro.runtime.material.HostSlotAllocator` — concurrent
    sessions therefore spend *disjoint* pool slices by construction, and
    a session beyond the planned capacity degrades to counted sampling
    instead of ever reusing a slice.
    """

    def __init__(
        self,
        runner: Callable[..., Any] = async_voting_session,
        *,
        config: Optional[SweepConfig] = None,
        session_timeout_s: float = 600.0,
        admission_chunk: int = 64,
        **runner_kwargs: Any,
    ) -> None:
        if config is None:
            config = SweepConfig(backend="async", executor="inline")
        fanout = [
            name
            for name in ("chunksize", "retry", "deadline", "chaos", "journal", "resume")
            if getattr(config, name) not in (None, False)
        ]
        if fanout:
            raise ValueError(
                f"the session host runs no chunked sweep, so it cannot honour "
                f"{', '.join(fanout)}; drop them from its SweepConfig"
            )
        if config.executor != "inline" and inspect.iscoroutinefunction(runner):
            raise ValueError(
                f"coroutine runners only work with executor='inline'; use a "
                f"synchronous trial runner for executor={config.executor!r}"
            )
        if session_timeout_s <= 0:
            raise ValueError(
                f"session_timeout_s must be > 0, got {session_timeout_s}"
            )
        self.config = config
        self.runner = runner
        self.session_timeout_s = session_timeout_s
        self.admission_chunk = max(1, int(admission_chunk))
        self.runner_kwargs = dict(runner_kwargs)
        self._backend = get_backend(config.backend)
        parameters = inspect.signature(runner).parameters
        self._accepts_any = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
        self._accepted = frozenset(parameters)

    def _accepts(self, name: str) -> bool:
        return self._accepts_any or name in self._accepted

    def _session_kwargs(self, lease: Optional[Any]) -> Dict[str, Any]:
        kwargs = dict(self.runner_kwargs)
        if self._accepts("backend"):
            # Forward the backend *instance* so with_trace overrides and
            # unregistered backends survive executor offload.
            kwargs.setdefault("backend", self._backend)
        if self.config.trace is not None and self._accepts("trace"):
            kwargs.setdefault("trace", self.config.trace)
        if lease is not None and self._accepts("online"):
            kwargs.setdefault("online", lease)
        if self.config.batch_policy is not None and self._accepts("batch"):
            kwargs.setdefault("batch", self.config.batch_policy)
        return kwargs

    def _make_executor(self, sessions: int) -> Optional[Any]:
        config = self.config
        if config.executor == "process":
            workers = SweepPlan.resolve(config, sessions).workers
            executor, _ = start_warm_workers(
                config,
                self._backend,
                functools.partial(futures.ProcessPoolExecutor, max_workers=workers),
            )
            return executor
        if config.warmup:
            # Inline sessions share this process's caches: warm once, here.
            self._backend.warm_up(config.material)
        return None

    async def _session(
        self,
        index: int,
        seed: Any,
        allocator: Optional[Any],
        executor: Optional[Any],
        finished: List[Tuple[int, float]],
    ) -> Any:
        admitted = time.perf_counter()
        lease = allocator.lease(seed) if allocator is not None else None
        kwargs = self._session_kwargs(lease)
        if executor is None:
            if inspect.iscoroutinefunction(self.runner):
                result = await self.runner(seed, **kwargs)
            else:
                # Synchronous runner inline: correct but blocks the loop
                # for the whole session — mainly for testing.
                result = self.runner(seed, **kwargs)
        else:
            loop = asyncio.get_running_loop()
            bound = functools.partial(self.runner, seed, **kwargs)
            result = await asyncio.wait_for(
                loop.run_in_executor(executor, bound),
                timeout=self.session_timeout_s,
            )
        finished.append((index, time.perf_counter() - admitted))
        return result

    async def serve(
        self, seeds: Iterable[Any], duration_s: Optional[float] = None
    ) -> HostReport:
        """Host one session per seed concurrently; await them all.

        ``duration_s`` bounds *admission*: once the wall budget is
        spent, no further sessions start (already-admitted ones run to
        completion, each bounded by its own round budget or timeout).
        Results and latencies come back in submission order; the
        report's ``completion_order`` keeps the finish sequence.  The
        record of finished sessions is local to this call, so waves
        served concurrently on one host each get their own report.
        """
        loop = asyncio.get_running_loop()
        seeds = list(seeds)
        # Duplicate seeds share a slot (replay semantics, same as the
        # sweep engine); service deployments use distinct session seeds.
        plan = resolve_online_plan(self.config, list(dict.fromkeys(seeds)))
        allocator = None
        if plan is not None:
            from repro.runtime.material import HostSlotAllocator

            allocator = HostSlotAllocator(plan)
        executor = self._make_executor(len(seeds))
        finished: List[Tuple[int, float]] = []
        started = time.perf_counter()
        tasks: List["asyncio.Task[Any]"] = []
        try:
            for index, seed in enumerate(seeds):
                if (
                    duration_s is not None
                    and time.perf_counter() - started >= duration_s
                ):
                    break
                tasks.append(
                    loop.create_task(
                        self._session(index, seed, allocator, executor, finished)
                    )
                )
                if len(tasks) % self.admission_chunk == 0:
                    # Yield so admitted sessions start making progress
                    # while the rest are still being created.
                    await asyncio.sleep(0)
            results = list(await asyncio.gather(*tasks)) if tasks else []
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            if executor is not None:
                executor.shutdown(wait=True)
        online_spend = None
        if plan is not None and results:
            online_spend = ledger_online_spend(plan, results)
        return HostReport(
            backend=self._backend.name,
            executor=self.config.executor,
            wall_time_s=time.perf_counter() - started,
            results=results,
            completion_order=[index for index, _ in finished],
            latencies_s=[latency for _, latency in sorted(finished)],
            online_spend=online_spend,
        )

    def run(
        self, seeds: Iterable[Any], duration_s: Optional[float] = None
    ) -> HostReport:
        """Synchronous entry point: own a fresh loop, :meth:`serve`, close it.

        Raises:
            RuntimeError: called from inside a running event loop —
                ``await host.serve(...)`` instead.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:  # repro: allow[RPR005] no loop == happy path
            pass
        else:
            raise RuntimeError(
                "AsyncSessionHost.run() called inside a running event loop; "
                "await host.serve(...) instead"
            )
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(self.serve(seeds, duration_s))
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

