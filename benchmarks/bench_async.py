"""E22 — service mode: N concurrent sessions on one asyncio event loop.

Claims: (i) :class:`~repro.runtime.aio.AsyncSessionHost` sustains >= 1000
concurrent coroutine sessions on a single event loop, with sessions
finishing out of submission order (the interleaving evidence) and a
``sessions/sec`` headline recorded for the cross-PR trajectory; (ii) a
hosted full-protocol voting service stays digest-equal to the
synchronous reference trial, seed for seed, and its sessions complete
in admission order — each takes the loop's session turn oldest-first,
and the hosting order never touches the trace; (iii) with the preprocessing store attached, concurrently
hosted online sessions spend **disjoint** pool slices (zero
double-spend, checked span-by-span via
:func:`~repro.runtime.aio.online_ranges_disjoint`).

The 1000-session headline uses the full-protocol *voting* coroutine
only for a small slice and a lightweight awaited workload for the bulk —
the claim under test is host scalability, and the record says exactly
which sessions ran which workload.
"""

import asyncio
import os
import tempfile

from conftest import emit, once

from repro.crypto.groups import TEST_GROUP
from repro.runtime import (
    AsyncSessionHost,
    MaterialStore,
    SweepConfig,
    async_voting_session,
    online_ranges_disjoint,
    run_voting_trial,
)

#: The concurrency headline: sessions hosted on one loop in one process.
HOST_SESSIONS = 1000
#: Full-protocol slices (digest check, online spend) stay small so the
#: bench is honest on small runners; the record carries both counts.
VOTING_SESSIONS = 8
ONLINE_SESSIONS = 8


async def _hop_session(seed):
    """Heterogeneous awaited workload: seed decides the await count."""
    hops = (seed % 11) + 1
    for _ in range(hops):
        await asyncio.sleep(0)
    return (seed, hops)


def test_e22_service_mode_concurrency(benchmark):
    def run():
        # (i) 1000 concurrent sessions, one loop, one process.
        host = AsyncSessionHost(
            _hop_session,
            config=SweepConfig(backend="async", executor="inline", warmup=False),
        )
        bulk = host.run(range(HOST_SESSIONS))
        assert bulk.sessions == HOST_SESSIONS
        assert sorted(bulk.completion_order) == list(range(HOST_SESSIONS))
        # Short sessions overtake long ones only under real interleaving.
        assert bulk.interleaved > HOST_SESSIONS // 2

        # (ii) hosted full-protocol voting == the synchronous reference,
        # digest for digest, with VOTING_SESSIONS of them admitted at
        # once and served oldest-first.
        service = AsyncSessionHost(
            async_voting_session,
            config=SweepConfig(backend="async", executor="inline"),
        )
        voting = service.run(range(VOTING_SESSIONS))
        assert voting.sessions == VOTING_SESSIONS
        assert voting.completion_order == list(range(VOTING_SESSIONS))
        for seed, result in zip(range(VOTING_SESSIONS), voting.results):
            reference = run_voting_trial(seed)
            assert result.digest == reference.digest, (
                f"hosted session {seed} diverged from the sync reference"
            )
            assert result.outputs == reference.outputs

        # (iii) online service: every concurrent session leases its own
        # pool slot; the spent ranges must be pairwise disjoint per pool.
        with tempfile.TemporaryDirectory() as root:
            os.environ["REPRO_MATERIAL_DIR"] = root
            try:
                MaterialStore(root).build(
                    [TEST_GROUP], nonces=ONLINE_SESSIONS * 8, feldman=ONLINE_SESSIONS * 2
                )
                online_host = AsyncSessionHost(
                    async_voting_session,
                    config=SweepConfig(
                        backend="async",
                        executor="inline",
                        material="shared",
                        online=True,
                    ),
                )
                online = online_host.run(range(ONLINE_SESSIONS))
            finally:
                del os.environ["REPRO_MATERIAL_DIR"]
        assert online.sessions == ONLINE_SESSIONS
        assert online.online_spend is not None
        assert online.online_spend["nonces_spent"] > 0
        disjoint, spans = online_ranges_disjoint(online.results)
        assert spans > 0, "online host recorded no spend spans to check"
        assert disjoint, "concurrent sessions double-spent a pool slice"

        rows = [
            {
                "workload": "awaited no-op x1000",
                "sessions": bulk.sessions,
                "wall_s": round(bulk.wall_time_s, 4),
                "sessions_per_s": round(bulk.sessions_per_s, 1),
                "interleaved": bulk.interleaved,
            },
            {
                "workload": "voting (digest-checked)",
                "sessions": voting.sessions,
                "wall_s": round(voting.wall_time_s, 4),
                "sessions_per_s": round(voting.sessions_per_s, 1),
                "interleaved": voting.interleaved,
            },
            {
                "workload": "voting online (disjoint spend)",
                "sessions": online.sessions,
                "wall_s": round(online.wall_time_s, 4),
                "sessions_per_s": round(online.sessions_per_s, 1),
                "interleaved": online.interleaved,
            },
        ]
        stats = {
            "bulk": bulk,
            "voting": voting,
            "online": online,
            "spend_spans": spans,
        }
        return rows, stats

    (rows, stats) = once(benchmark, run)
    emit(
        "E22",
        f"AsyncSessionHost: {HOST_SESSIONS} concurrent sessions on one loop",
        rows,
        protocol="service-host",
        n=3,
        rounds=None,
        backend="async",
        material_source="shared",
        online=True,
        sessions=HOST_SESSIONS,
        sessions_per_s=round(stats["bulk"].sessions_per_s, 1),
        voting_sessions=VOTING_SESSIONS,
        voting_sessions_per_s=round(stats["voting"].sessions_per_s, 2),
        online_sessions=ONLINE_SESSIONS,
        spend_spans_checked=stats["spend_spans"],
        interleaved=stats["bulk"].interleaved,
    )
