"""Async backend and service host: concurrency, cancellation, leasing.

The differential suite pins the ``async`` driver's digest contract;
this module covers the service half: a thousand coroutine sessions
interleaving on one loop, hosted protocol sessions running oldest-first
while the loop stays responsive, the session turn surviving cancelled
and failed sessions, cancellation between rounds without leaking tasks,
per-session latency percentiles, per-session online-pool leases that
can never overlap, and the sync facades inside a running loop.
"""

import asyncio
import multiprocessing
import time
import warnings
from types import SimpleNamespace

import pytest

from repro.core import build_voting_stack
from repro.runtime import (
    AsyncRoundDriver,
    AsyncSessionHost,
    HostReport,
    HostSlotAllocator,
    OnlinePlan,
    SweepConfig,
    async_sbc_session,
    async_voting_session,
    online_ranges_disjoint,
    run_sbc_trial,
    run_voting_trial,
    trace_digest,
)


async def _toy_session(seed):
    """Heterogeneous-duration no-op workload: seed decides the hop count.

    Homogeneous sessions finish in admission order even when perfectly
    interleaved, so concurrency evidence needs *uneven* durations.
    """
    hops = (seed % 7) + 1
    for _ in range(hops):
        await asyncio.sleep(0)
    return (seed, hops)


def _toy_host(**kwargs):
    config = SweepConfig(backend="async", executor="inline")
    return AsyncSessionHost(_toy_session, config=config, **kwargs)


# ---------------------------------------------------------------------------
# service-mode concurrency


def test_host_runs_1000_concurrent_sessions():
    report = _toy_host().run(range(1000))
    assert report.sessions == 1000
    # Results stay in submission order whatever the interleaving did.
    assert report.results == [(seed, (seed % 7) + 1) for seed in range(1000)]
    # Every session finished exactly once...
    assert sorted(report.completion_order) == list(range(1000))
    # ...and mostly out of submission order: short sessions overtake
    # long ones, which only happens if they genuinely interleave.
    assert report.interleaved > 500
    summary = report.summary()
    assert summary["sessions"] == 1000
    assert summary["sessions_per_s"] > 0


def test_host_reports_latency_percentiles():
    report = _toy_host().run(range(40))
    # One admission-to-completion latency per session, in submission order.
    assert len(report.latencies_s) == 40
    assert all(latency > 0 for latency in report.latencies_s)
    summary = report.summary()
    assert 0 < summary["latency_p50_ms"] <= summary["latency_p95_ms"]
    assert summary["latency_p95_ms"] <= summary["latency_p99_ms"]
    assert summary["latency_p99_ms"] == round(max(report.latencies_s) * 1000, 3)


def test_latency_percentiles_are_nearest_rank():
    report = HostReport(
        backend="async",
        executor="inline",
        wall_time_s=1.0,
        results=list(range(100)),
        latencies_s=[ms / 1000 for ms in range(100, 0, -1)],
    )
    summary = report.summary()
    assert [summary[f"latency_p{percent}_ms"] for percent in (50, 95, 99)] == [50.0, 95.0, 99.0]
    single = HostReport("async", "inline", 1.0, results=[0], latencies_s=[0.004])
    assert [single.latency_ms(percent) for percent in (50, 95, 99)] == [4.0] * 3


def test_duration_bounds_admission_not_completion():
    # A zero budget admits nothing; already-admitted work would still run.
    report = _toy_host().run(range(50), duration_s=0.0)
    assert report.sessions == 0
    with pytest.raises(ValueError, match="empty host report"):
        report.summary()


def _async_host(runner, **params):
    return AsyncSessionHost(
        runner, config=SweepConfig(backend="async", executor="inline"), **params
    )


@pytest.mark.parametrize(
    "runner, reference, params",
    [
        (async_voting_session, run_voting_trial, dict(mode="hybrid")),
        (async_sbc_session, run_sbc_trial, dict(mode="composed", phi=5, delta=3)),
    ],
    ids=["voting-hybrid", "sbc-composed"],
)
def test_hosted_sessions_match_sync_reference(runner, reference, params):
    # One session body per workload: hosted (awaited) and sync (blocking)
    # runs of the same seed must agree byte for byte.
    report = _async_host(runner, **params).run(range(4))
    assert report.sessions == 4
    for seed, result in zip(range(4), report.results):
        expected = reference(seed, **params)
        assert result.digest == expected.digest
        assert result.outputs == expected.outputs


def test_serve_attaches_store_material_once_per_process(tmp_path, monkeypatch):
    import repro.crypto.preprocessing as preprocessing
    import repro.runtime.material as material_module
    from repro.crypto.groups import TEST_GROUP
    from repro.runtime.material import MaterialStore

    monkeypatch.setenv("REPRO_MATERIAL_DIR", str(tmp_path))
    MaterialStore(tmp_path).build([TEST_GROUP], nonces=4, feldman=1)
    reads = []
    real = preprocessing.deserialize_material

    def counting(blob):
        reads.append(len(blob))
        return real(blob)

    monkeypatch.setattr(material_module, "deserialize_material", counting)
    monkeypatch.setattr(material_module, "_ATTACHED", {})
    host = AsyncSessionHost(
        async_voting_session,
        config=SweepConfig(backend="async", executor="inline", material="disk"),
    )
    first = host.run(range(2))
    second = host.run(range(2, 4))
    assert len(reads) == 1
    for seed, result in zip(range(4), first.results + second.results):
        assert result.digest == run_voting_trial(seed).digest


def _record_rounds(monkeypatch, fail=None):
    """Log ``(session index, clock time)`` per async round, indexing
    sessions by first appearance; ``fail=(index, time)`` makes that
    round raise instead of running."""
    run_round_async = AsyncRoundDriver.run_round_async
    sessions = {}
    rounds_run = []
    # Holding every session keeps its id from being reused by a later
    # session once the first is freed.
    seen = []

    async def recording(driver, *args, **kwargs):
        if id(driver.session) not in sessions:
            seen.append(driver.session)
        index = sessions.setdefault(id(driver.session), len(sessions))
        rounds_run.append((index, driver.session.clock.time))
        if (index, driver.session.clock.time) == fail:
            raise RuntimeError("session failed mid-rounds")
        return await run_round_async(driver, *args, **kwargs)

    monkeypatch.setattr(AsyncRoundDriver, "run_round_async", recording)
    return rounds_run


def test_hosted_sessions_run_oldest_first(monkeypatch):
    rounds_run = _record_rounds(monkeypatch)
    report = _async_host(async_voting_session).run(range(4))
    rounds = report.results[0].rounds
    assert rounds > 1
    assert [result.rounds for result in report.results] == [rounds] * 4
    # One entry per round, session-major: each session holds the loop's
    # turn from its first round to its last, in admission order.
    assert rounds_run == [(index, time) for index in range(4) for time in range(rounds)]
    assert report.completion_order == [0, 1, 2, 3]
    assert report.interleaved == 0


def test_loop_stays_responsive_between_a_sessions_rounds(monkeypatch):
    ticks = 0
    ticks_at_round = []
    run_round_async = AsyncRoundDriver.run_round_async

    async def recording(driver, *args, **kwargs):
        ticks_at_round.append(ticks)
        return await run_round_async(driver, *args, **kwargs)

    monkeypatch.setattr(AsyncRoundDriver, "run_round_async", recording)

    async def scenario():
        nonlocal ticks
        hosting = asyncio.get_running_loop().create_task(
            _async_host(async_voting_session).serve(range(2))
        )
        while not hosting.done():
            ticks += 1
            await asyncio.sleep(0)
        return await hosting

    report = asyncio.run(scenario())
    assert report.sessions == 2
    # The side task ran between every pair of consecutive rounds.
    assert len(ticks_at_round) > 2
    assert all(later > earlier for earlier, later in zip(ticks_at_round, ticks_at_round[1:]))


async def _hand_over(first, second, stop_first):
    """Start two sessions on the running loop, let the first take the
    turn and run some rounds, stop it with ``stop_first``, and return
    the second's result."""
    loop = asyncio.get_running_loop()
    first_task = loop.create_task(first)
    second_task = loop.create_task(second)
    for _ in range(4):
        await asyncio.sleep(0)
    await stop_first(first_task)
    # A turn the first session never gave back would hang the second.
    return await asyncio.wait_for(second_task, timeout=60)


def test_cancelled_session_hands_the_turn_on(monkeypatch):
    rounds_run = _record_rounds(monkeypatch)

    async def cancel(task):
        # The first session is mid-rounds and holds the turn; the second
        # has not run a round.
        assert not task.done()
        assert rounds_run and {index for index, _ in rounds_run} == {0}
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    result = asyncio.run(
        _hand_over(async_voting_session(0), async_voting_session(1), cancel)
    )
    assert result.digest == run_voting_trial(1).digest


def test_failed_session_hands_the_turn_on(monkeypatch):
    _record_rounds(monkeypatch, fail=(0, 1))

    async def expect_failure(task):
        with pytest.raises(RuntimeError, match="mid-rounds"):
            await task

    result = asyncio.run(
        _hand_over(async_voting_session(0), async_voting_session(1), expect_failure)
    )
    assert result.digest == run_voting_trial(1).digest


def test_fresh_loop_after_a_cancelled_one_starts_clean():
    async def start_two():
        loop = asyncio.get_running_loop()
        tasks = (
            loop.create_task(async_voting_session(0)),
            loop.create_task(async_voting_session(1)),
        )
        for _ in range(4):
            await asyncio.sleep(0)
        return tasks

    loop = asyncio.new_event_loop()
    try:
        # Leave the loop with one session holding its turn, one waiting.
        holder, waiter = loop.run_until_complete(start_two())
        assert not holder.done() and not waiter.done()
        for task in (holder, waiter):
            task.cancel()
        loop.run_until_complete(asyncio.gather(holder, waiter, return_exceptions=True))
    finally:
        loop.close()
    # A new loop has its own turn: two contending sessions both finish.
    report = _async_host(async_voting_session).run(range(2, 4))
    for seed, result in zip(range(2, 4), report.results):
        assert result.digest == run_voting_trial(seed).digest


# ---------------------------------------------------------------------------
# cancellation / teardown


def test_cancellation_mid_round_leaves_no_leaked_tasks():
    async def scenario():
        stack = build_voting_stack(voters=3, mode="hybrid", seed=7, backend="async")
        driver = stack.env.driver
        assert isinstance(driver, AsyncRoundDriver)
        for authority in stack.authorities.values():
            authority.deal()
        task = asyncio.get_running_loop().create_task(driver.run_rounds_async(10))
        for _ in range(4):  # let the round get mid-flight
            await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        # A round runs to completion before the driver yields, so the
        # cancellation lands between rounds: nothing is left on the loop.
        leaked = [
            other
            for other in asyncio.all_tasks()
            if other is not asyncio.current_task() and not other.done()
        ]
        assert leaked == []

    asyncio.run(scenario())


def test_sync_facades_refuse_inside_a_running_loop():
    async def scenario():
        with pytest.raises(RuntimeError, match="serve"):
            _toy_host().run([1])

    asyncio.run(scenario())


def test_driver_run_round_runs_inside_a_running_loop():
    def first_round_digest(backend):
        stack = build_voting_stack(voters=3, mode="hybrid", seed=3, backend=backend)
        for authority in stack.authorities.values():
            authority.deal()
        stack.env.driver.run_round()
        return trace_digest(stack.session.log)

    async def scenario():
        return first_round_digest("async")

    assert asyncio.run(scenario()) == first_round_digest("sequential")


# ---------------------------------------------------------------------------
# host construction guards


def test_coroutine_runner_requires_inline_executor():
    with pytest.raises(ValueError, match="inline"):
        AsyncSessionHost(
            async_voting_session,
            config=SweepConfig(backend="async", executor="process"),
        )


def test_session_timeout_must_be_positive():
    with pytest.raises(ValueError, match="session_timeout_s"):
        _toy_host(session_timeout_s=0.0)


def _hung_trial(seed):
    """A process-offloaded session that outlives any sane timeout."""
    time.sleep(10)
    return seed


def test_session_timeout_bounds_a_hung_process_session():
    # The timeout must bound serve() itself: the host kills the hung
    # worker instead of waiting for it in the executor's shutdown.
    host = AsyncSessionHost(
        _hung_trial,
        config=SweepConfig(backend="async", executor="process", workers=1),
        session_timeout_s=0.5,
    )
    started = time.monotonic()
    with pytest.raises(asyncio.TimeoutError):
        host.run([0])
    assert time.monotonic() - started < 5
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# online leasing: disjoint by construction


def _plan():
    # 16 nonces / 8 feldman entries at 4 / 2 per task: capacity 4 slots.
    return OnlinePlan(
        fingerprint="test-plan",
        assignments=((0, 0), (1, 1), (2, 2)),
        nonces_per_task=4,
        feldman_per_task=2,
        pool_nonces=16,
        pool_feldman=8,
    )


def test_host_slot_allocator_leases_planned_then_fresh_slots():
    allocator = HostSlotAllocator(_plan())
    assert allocator.capacity == 4

    lease = allocator.lease(1)
    assert lease.assignments == ((1, 1),)
    assert lease.nonces_per_task == 4  # a view, not a new plan shape
    # Replay semantics: the same key keeps its slot.
    assert allocator.lease(1).assignments == ((1, 1),)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # First unseen key: the next slot past the plan's top, still in
        # capacity, so no warning.
        assert allocator.lease("walk-in").slot_of("walk-in") == 3

    with pytest.warns(RuntimeWarning, match="capacity"):
        spill = allocator.lease("beyond")
    assert spill.slot_of("beyond") == 4  # never reused, just past the pools
    assert allocator.leased == 3


def _spent(online):
    return SimpleNamespace(online=online)


def test_online_ranges_disjoint_checks_each_pool_separately():
    results = [
        _spent({"nonce_range": (0, 8), "nonces_spent": 8,
                "feldman_range": (0, 4), "feldman_spent": 4}),
        _spent({"nonce_range": (8, 16), "nonces_spent": 6,
                "feldman_range": (4, 8), "feldman_spent": 2}),
        _spent(None),  # offline session: no record, skipped
        _spent({"nonce_range": (16, 24), "nonces_spent": 0}),  # sampled only
    ]
    # Session 0's nonce slice and feldman slice share indices — different
    # pools, not a double-spend.  2 nonce spans + 2 feldman spans checked.
    assert online_ranges_disjoint(results) == (True, 4)


def test_online_ranges_disjoint_flags_overlap_in_either_pool():
    nonce_clash = [
        _spent({"nonce_range": (0, 8), "nonces_spent": 8}),
        _spent({"nonce_range": (4, 12), "nonces_spent": 8}),
    ]
    disjoint, checked = online_ranges_disjoint(nonce_clash)
    assert not disjoint and checked == 2

    feldman_clash = [
        _spent({"feldman_range": (0, 4), "feldman_spent": 4}),
        _spent({"feldman_range": (3, 7), "feldman_spent": 4}),
    ]
    disjoint, checked = online_ranges_disjoint(feldman_clash)
    assert not disjoint and checked == 2
