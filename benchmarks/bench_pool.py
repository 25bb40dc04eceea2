"""E14/E17 — SessionPool and the multi-core sweep engine.

Claims: (i) a :class:`~repro.runtime.pool.SessionPool` run of 32 repeated
SBC sessions under the throughput runtime (batched driver, light trace)
is faster than the naive sequential loop on the reference backend;
(ii) pooled execution with full tracing produces **byte-identical** event
traces to the sequential loop, seed for seed (the runtime's determinism
contract); (iii) distinct seeds produce distinct executions; (iv) the
chunked process fan-out (``SessionPool`` with ``executor="process"``)
reproduces the inline digests seed for seed, and on hosts with >= 4 real
cores finishes the sweep >= 2x faster than the inline executor.
"""

import os

from conftest import bench_record, emit, once

from repro.runtime import SessionPool, SweepConfig, sequential_loop

SESSIONS = 32
PARAMS = dict(n=4, mode="composed", phi=5, delta=3, senders=2)

#: The >=2x speedup claim only binds with real cores behind the workers.
SPEEDUP_MIN_CORES = 4


def test_e14_pool_beats_sequential_loop(benchmark):
    def sweep():
        seeds = list(range(SESSIONS))
        # Two passes each, keep the faster: robust to background-load
        # spikes hitting one side of the comparison on shared runners.
        baseline = min(
            (sequential_loop(seeds, **PARAMS) for _ in range(2)),
            key=lambda report: report.wall_time_s,
        )
        pool = SessionPool(
            config=SweepConfig(backend="pooled", trace="light"), **PARAMS,
        )
        pooled = min(
            (pool.run(seeds) for _ in range(2)),
            key=lambda report: report.wall_time_s,
        )
        batched = SessionPool(
            config=SweepConfig(backend="batched"), **PARAMS,
        ).run(seeds)
        rows = []
        for report in (baseline, pooled, batched):
            rows.append(
                {
                    "backend": report.backend,
                    "executor": report.executor,
                    "sessions": report.sessions,
                    "wall_s": round(report.wall_time_s, 4),
                    "per_session_ms": round(
                        report.wall_time_s / report.sessions * 1000, 3
                    ),
                    "rounds": report.total_rounds,
                    "messages": report.total_messages,
                    "speedup": round(baseline.wall_time_s / report.wall_time_s, 2),
                }
            )
        # The acceptance claim: the pooled sweep is demonstrably faster
        # than the cold sequential loop over the same >= 32 seeds.
        assert pooled.wall_time_s < baseline.wall_time_s
        # All executions completed and were round-for-round equivalent.
        assert pooled.total_rounds == baseline.total_rounds
        assert pooled.total_messages == baseline.total_messages
        return rows, baseline

    (rows, baseline) = once(benchmark, sweep)
    emit(
        "E14",
        "SessionPool over 32 SBC sessions: pooled/batched vs sequential loop",
        rows,
        protocol="sbc-pool",
        n=PARAMS["n"],
        rounds=baseline.total_rounds,
        backend="pooled",
        sessions=SESSIONS,
    )


def test_e14_pooled_traces_byte_identical(benchmark):
    def run():
        seeds = list(range(8))
        baseline = sequential_loop(seeds, **PARAMS)
        pooled = SessionPool(config=SweepConfig(backend="pooled"), **PARAMS).run(seeds)
        base_digests = [result.digest for result in baseline.results]
        pool_digests = [result.digest for result in pooled.results]
        assert base_digests == pool_digests
        assert len(set(base_digests)) == len(base_digests)  # seeds differ
        return len(base_digests)

    count = once(benchmark, run)
    bench_record(
        "E14b",
        protocol="sbc-pool",
        n=PARAMS["n"],
        rounds=None,
        backend="pooled",
        sessions=count,
        traces_identical=True,
    )


def test_e14_pool_wallclock(benchmark):
    pool = SessionPool(config=SweepConfig(backend="batched"), **PARAMS)
    counter = iter(range(100_000))
    benchmark(lambda: pool.run([next(counter)]))


def test_e17_process_fanout_sweep(benchmark):
    cores = os.cpu_count() or 1

    def sweep():
        seeds = list(range(SESSIONS))
        # Material sharing on: workers attach the preprocessing store's
        # fixed-base tables from the store file instead of recomputing
        # them, so the cold-start warm-up tax drops off the critical
        # path.  verify()'s inline reference still computes its own
        # caches, so the digest check doubles as the cross-source
        # (shared == compute) determinism assertion.
        fanout = SessionPool(
            config=SweepConfig(
                backend="pooled", executor="process", trace="full", material="shared",
            ),
            **PARAMS,
        )
        plan = fanout.plan(len(seeds))
        # verify() runs the process sweep AND the inline reference, and
        # compares trace digests seed for seed — the determinism contract
        # must hold across process boundaries before any speedup counts.
        # Two passes: the faster one times the speedup, but *every* pass
        # must match (a divergence in the slower run is still a bug).
        verdicts = [fanout.verify(seeds) for _ in range(2)]
        assert all(v.matched for v in verdicts)
        verdict = min(verdicts, key=lambda v: v.report.wall_time_s)
        rows = [
            {
                "executor": report.executor,
                "sessions": report.sessions,
                "workers": report.workers,
                "chunksize": report.chunksize,
                "wall_s": round(report.wall_time_s, 4),
                "speedup": round(
                    verdict.reference.wall_time_s / report.wall_time_s, 2
                ),
            }
            for report in (verdict.reference, verdict.report)
        ]
        # The acceptance claim: >=2x over inline — but only where the
        # hardware can deliver it (process fan-out on a 1-2 core box is
        # all IPC overhead, which the record still documents honestly).
        if cores >= SPEEDUP_MIN_CORES:
            assert verdict.speedup >= 2.0, (
                f"process sweep only {verdict.speedup:.2f}x faster than "
                f"inline on {cores} cores"
            )
        return rows, plan, verdict

    (rows, plan, verdict) = once(benchmark, sweep)
    emit(
        "E17",
        f"Chunked process fan-out over {SESSIONS} SBC sessions ({cores} cores)",
        rows,
        protocol="sbc-sweep",
        n=PARAMS["n"],
        rounds=verdict.report.total_rounds,
        backend="pooled",
        material_source="shared",
        sessions=SESSIONS,
        executor="process",
        workers=plan.workers,
        chunksize=plan.chunksize,
        speedup_vs_inline=round(verdict.speedup, 3),
        digests_match_inline=verdict.matched,
        speedup_asserted=cores >= SPEEDUP_MIN_CORES,
        # Supervision counters (SUPERVISED_REQUIRED): a reference-perf
        # number that limped through retries or pool respawns is not
        # comparable to a clean one, so the record must say so.
        retries=verdict.report.summary().get("retries", 0),
        respawns=verdict.report.summary().get("respawns", 0),
        quarantined=verdict.report.summary().get("quarantined", 0),
    )
