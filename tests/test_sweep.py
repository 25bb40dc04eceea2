"""Tests for the multi-core sweep engine (`SessionPool` process sweeps).

The sweep driver's contract: any (runner, task list) workload shards
across process workers with deterministic result ordering and
seed-for-seed trace-digest equality against the inline executor, with
a per-worker initializer and workers that live for the whole sweep.
"""

import pytest

from repro.runtime import (
    SessionPool,
    SweepConfig,
    SweepPlan,
    TraceDigestUnavailable,
    auto_chunksize,
    run_sbc_trial,
)

PARAMS = dict(n=3, mode="hybrid", phi=4, delta=2)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def test_plan_resolves_workers_and_chunks():
    sweep = SessionPool(config=SweepConfig(executor="process", workers=4), **PARAMS)
    plan = sweep.plan(64)
    assert plan == SweepPlan(
        tasks=64, executor="process", workers=4, chunksize=4,
    )
    # Ten chunks at the cap of 4, then 3, 3, 3, 2, 2, 2, 2 and seven 1s.
    assert plan.chunks == 24
    assert plan.summary()["chunks"] == 24


def test_plan_honors_explicit_chunksize():
    sweep = SessionPool(
        config=SweepConfig(executor="process", workers=2, chunksize=5), **PARAMS,
    )
    plan = sweep.plan(12)
    assert plan.chunksize == 5
    assert plan.chunks == 3  # 5 + 5 + 2


@pytest.mark.parametrize(
    "tasks, workers",
    [(4000, 2), (64, 4), (64, 2), (100, 3), (7, 4), (1, 1), (33, 1)],
)
def test_auto_plan_shrinks_toward_the_end(tasks, workers):
    plan = SessionPool(
        config=SweepConfig(executor="process", workers=workers), **PARAMS,
    ).plan(tasks)
    sizes = plan.sizes
    cap = auto_chunksize(tasks, workers)
    floor = -(-cap // 32)
    assert plan.chunksize == cap
    assert sum(sizes) == tasks
    assert sizes[0] == min(cap, tasks)
    assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
    assert all(size >= floor for size in sizes[:-1])
    assert plan.chunks == len(sizes)


def test_auto_plan_for_the_sweep_benchmark_shape():
    plan = SessionPool(
        config=SweepConfig(executor="process", workers=2), **PARAMS,
    ).plan(4000)
    assert plan.chunksize == 500
    assert plan.sizes[:7] == (500, 500, 500, 500, 500, 375, 282)
    assert plan.sizes[-2:] == (16, 14)
    assert plan.chunks == 20


def test_explicit_chunksize_plan_is_uniform():
    plan = SessionPool(
        config=SweepConfig(executor="process", workers=2, chunksize=5), **PARAMS,
    ).plan(12)
    assert plan.sizes == (5, 5, 2)


def test_plan_inline_executor_is_single_stream():
    plan = SessionPool(config=SweepConfig(executor="inline"), **PARAMS).plan(10)
    assert plan.workers == 1
    assert plan.chunksize == 1


def test_invalid_config_fails_at_construction():
    with pytest.raises(ValueError, match="chunksize"):
        SweepConfig(chunksize=0)
    with pytest.raises(ValueError, match="executor"):
        SweepConfig(executor="quantum")


# ---------------------------------------------------------------------------
# Determinism: process fan-out == inline reference
# ---------------------------------------------------------------------------


def test_process_sweep_verifies_against_inline():
    sweep = SessionPool(
        config=SweepConfig(executor="process", workers=2, chunksize=2), **PARAMS,
    )
    verdict = sweep.verify(range(4))
    assert verdict.matched
    assert [r.seed for r in verdict.report.results] == list(range(4))
    assert [r.seed for r in verdict.reference.results] == list(range(4))
    assert verdict.speedup > 0
    assert verdict.report.executor == "process"
    assert verdict.reference.executor == "inline"


def test_auto_plan_process_sweep_verifies_against_inline():
    sweep = SessionPool(config=SweepConfig(executor="process", workers=2), **PARAMS)
    assert len(set(sweep.plan(24).sizes)) > 1  # the chunks really shrink
    verdict = sweep.verify(range(24))
    assert verdict.matched
    assert [r.seed for r in verdict.report.results] == list(range(24))
    assert verdict.report.chunksize == auto_chunksize(24, 2)


def test_inline_sweep_verify_is_reflexive():
    # executor="inline" keeps one code path for both modes; verify still
    # runs two executions and compares digests.
    verdict = SessionPool(
        config=SweepConfig(executor="inline"), **PARAMS,
    ).verify(range(3))
    assert verdict.matched


def test_verify_refuses_trace_off_sweeps():
    sweep = SessionPool(config=SweepConfig(executor="inline", trace="light"), **PARAMS)
    with pytest.raises(TraceDigestUnavailable):
        sweep.verify(range(2))


def test_verify_rejects_empty_task_list():
    with pytest.raises(ValueError, match="empty"):
        SessionPool(config=SweepConfig(executor="inline"), **PARAMS).verify([])


# ---------------------------------------------------------------------------
# Scenario-matrix cells through the sweep engine
# ---------------------------------------------------------------------------


def test_scenario_cells_shard_across_processes():
    from repro.scenarios import default_matrix, run_matrix

    specs = [
        spec for spec in default_matrix().expand()
        if spec.stack == "ubc" and spec.backend == "sequential"
    ][:6]
    assert len(specs) >= 2
    inline = run_matrix(specs, config=SweepConfig(executor="inline"))
    fanned = run_matrix(
        specs, config=SweepConfig(executor="process", workers=2, chunksize=2),
    )
    assert [cell.cell_id for cell in fanned.cells] == [
        cell.cell_id for cell in inline.cells
    ]
    assert [cell.digest for cell in fanned.cells] == [
        cell.digest for cell in inline.cells
    ]
    assert fanned.ok


def test_sbc_trial_worker_warmup_smoke():
    # The initializer path itself: one initialized process worker running the
    # default SBC trial runner end to end.
    sweep = SessionPool(
        runner=run_sbc_trial,
        config=SweepConfig(executor="process", workers=1),
        **PARAMS,
    )
    report = sweep.run([21])
    assert report.results[0].seed == 21
    assert report.results[0].outputs


# ---------------------------------------------------------------------------
# CLI edge cases
# ---------------------------------------------------------------------------


def test_cli_sweep_rejects_empty_session_count(capsys):
    from repro.cli import main

    assert main(["sweep", "--sessions", "0", "--executor", "inline"]) == 2
    assert "--sessions must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Plan fields
# ---------------------------------------------------------------------------


def test_plan_carries_material_and_adaptive_fields():
    sweep = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, material="disk",
        ),
        **PARAMS,
    )
    plan = sweep.plan(8)
    assert plan.material_source == "disk"
    summary = plan.summary()
    assert summary["material_source"] == "disk"
    # One sweep shape: the plan has no re-chunking or recycling fields.
    assert "adaptive" not in summary and "max_tasks_per_child" not in summary
