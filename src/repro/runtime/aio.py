"""Service mode: many concurrent sessions on one asyncio event loop.

The paper's synchrony is a global clock (Katz et al., TCC 2013): parties
act inside a round and observe one another only when the clock advances.
A host running many sessions therefore only needs to switch between them
at round boundaries, and that is all the ``async`` backend does — its
:class:`~repro.runtime.driver.AsyncRoundDriver` runs the sequential
round body, then yields once to the loop.  Each session's trace stays
byte-identical to ``sequential``; the differential suite enforces it.

:class:`AsyncSessionHost` is the service-mode entry point (``repro
serve``): it hosts N sessions concurrently on one loop — as coroutines
(:func:`~repro.runtime.pool.async_sbc_session` /
:func:`~repro.runtime.pool.async_voting_session`, which share their
session bodies with the sync trial runners) or as executor-offloaded
sync trials — and leases each session a disjoint online-pool slot
through :class:`~repro.runtime.material.HostSlotAllocator`, so
concurrent sessions can never double-spend preprocessed randomness.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.backend import ASYNC, get_backend
from repro.runtime.config import SweepConfig
from repro.runtime.driver import AsyncRoundDriver
from repro.runtime.pool import (
    async_sbc_session,
    async_voting_session,
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
    #: Task indices in the order sessions *finished* — evidence of
    #: interleaving (``results`` itself stays in submission order).
    completion_order: List[int] = field(default_factory=list)
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

        Zero means the sessions ran back-to-back (no concurrency
        observed); coroutine hosts should report a large fraction.
        """
        return sum(
            1
            for position, index in enumerate(self.completion_order)
            if index != position
        )

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
        if self.online_spend is not None:
            record["online"] = True
            record.update(self.online_spend)
        return record


class AsyncSessionHost:
    """Host N concurrent sessions on one event loop (``repro serve``).

    Args:
        runner: Per-session workload, called as ``runner(seed,
            **kwargs)``.  A coroutine function (the default
            :func:`async_voting_session`) runs inline on the host loop
            and interleaves with every other session at each round
            boundary; a plain function under ``executor="thread"`` /
            ``"process"`` is offloaded through ``run_in_executor`` to a
            warmed pool (it must be picklable for processes — the sweep
            trial runners qualify).
        config: A :class:`~repro.runtime.config.SweepConfig`; the host
            reads ``backend`` (defaults to ``async``), ``executor``,
            ``workers``, ``warmup``, ``material``, ``online``,
            ``consume_forward``, ``batch_verify`` and ``trace``.
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
        #: Completion order of the most recent run (also on its report).
        self.completion_order: List[int] = []

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

    def _resolve_plan(self, seeds: Sequence[Any]) -> Optional[Any]:
        if not self.config.online:
            return None
        from repro.runtime.material import OnlinePlan

        if isinstance(self.config.online, OnlinePlan):
            return self.config.online
        from repro.crypto.groups import TEST_GROUP

        group = (self.config.material_groups or (TEST_GROUP,))[0]
        # Duplicate seeds share a slot (replay semantics, same as the
        # sweep engine); service deployments use distinct session seeds.
        distinct = list(dict.fromkeys(seeds))
        return OnlinePlan.for_tasks(
            distinct, group=group, consume_forward=self.config.consume_forward
        )

    def _make_executor(self) -> Optional[Any]:
        config = self.config
        if config.executor == "inline":
            if config.warmup:
                self._backend.warm_up(config.material)
            return None
        from repro.runtime.pool import _warm_worker, resolve_workers

        workers = resolve_workers(config.workers)
        if config.executor == "thread":
            from concurrent.futures import ThreadPoolExecutor

            if config.warmup:
                # Threads share the process caches: warm once, inline.
                self._backend.warm_up(config.material)
            return ThreadPoolExecutor(max_workers=workers)
        from concurrent.futures import ProcessPoolExecutor

        from repro.crypto.groups import get_arith_backend

        initargs = (self._backend, config.material, get_arith_backend().name)
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker if config.warmup else None,
            initargs=initargs if config.warmup else (),
        )

    async def _session(
        self,
        index: int,
        seed: Any,
        allocator: Optional[Any],
        executor: Optional[Any],
    ) -> Any:
        lease = allocator.lease(seed) if allocator is not None else None
        kwargs = self._session_kwargs(lease)
        if executor is None:
            if inspect.iscoroutinefunction(self.runner):
                result = await self.runner(seed, **kwargs)
            else:
                # Synchronous runner inline: correct but blocks the loop
                # per session (no interleaving) — mainly for testing.
                result = self.runner(seed, **kwargs)
        else:
            loop = asyncio.get_running_loop()
            bound = functools.partial(self.runner, seed, **kwargs)
            result = await asyncio.wait_for(
                loop.run_in_executor(executor, bound),
                timeout=self.session_timeout_s,
            )
        self.completion_order.append(index)
        return result

    async def serve(
        self, seeds: Iterable[Any], duration_s: Optional[float] = None
    ) -> HostReport:
        """Host one session per seed concurrently; await them all.

        ``duration_s`` bounds *admission*: once the wall budget is
        spent, no further sessions start (already-admitted ones run to
        completion, each bounded by its own round budget or timeout).
        Results come back in submission order regardless of completion
        interleaving; the report's ``completion_order`` keeps the
        finish sequence as concurrency evidence.
        """
        loop = asyncio.get_running_loop()
        seeds = list(seeds)
        plan = self._resolve_plan(seeds)
        allocator = None
        if plan is not None:
            from repro.runtime.material import HostSlotAllocator

            allocator = HostSlotAllocator(plan)
        executor = self._make_executor()
        self.completion_order = []
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
                        self._session(index, seed, allocator, executor)
                    )
                )
                if len(tasks) % self.admission_chunk == 0:
                    # Yield so admitted sessions start interleaving
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
            online_spend = _ledger_host_spend(plan, results)
        return HostReport(
            backend=self._backend.name,
            executor=self.config.executor,
            wall_time_s=time.perf_counter() - started,
            results=results,
            completion_order=list(self.completion_order),
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


def _ledger_host_spend(plan: Any, results: Sequence[Any]) -> Dict[str, int]:
    """Sum per-session spend records and ledger them (host counterpart of
    ``SessionPool._aggregate_online``; same advisory never-fail contract)."""
    import warnings

    from repro.runtime.pool import SessionPool

    totals, nonce_reach, feldman_reach = SessionPool._spend_totals(results)
    try:
        from repro.runtime.material import MaterialStore

        MaterialStore().record_spend(
            plan.fingerprint,
            nonces=totals["nonces_spent"],
            feldman=totals["feldman_spent"],
            nonce_high=nonce_reach,
            feldman_high=feldman_reach,
            material_seed=plan.material_seed,
        )
    except OSError as exc:
        warnings.warn(
            f"could not record host session spend in the material ledger "
            f"({exc}); the next consume-forward run may re-spend these "
            "pool slices",
            RuntimeWarning,
            stacklevel=2,
        )
    return totals
