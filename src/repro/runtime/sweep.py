"""Multi-core sweep engine: shard one workload across process workers.

:class:`ParallelSweep` is a :class:`~repro.runtime.pool.SessionPool`
whose keyword-built config fans out to processes; it serves any
``(runner, task list)`` workload — repeated SBC trials, scenario-matrix
cells (each task is an index into a spec list), bench sweeps.  The
orchestration is the pool's, written once:

* :meth:`~repro.runtime.pool.SessionPool.plan` resolves the worker count
  and an explicit or automatic chunk size (a few chunks per worker, so
  IPC is amortised without losing load balancing) into the
  :class:`SweepPlan` that reports record;
* every process worker runs the shared crypto warm-up initializer before
  its first task, attaching the material the parent published once, so
  no trial pays fixed-base table construction;
* results keep deterministic task order whatever the executor, and
  :meth:`~repro.runtime.pool.SessionPool.verify` re-runs the same tasks
  inline and checks seed-for-seed trace-digest equality — the
  determinism contract held by the single-core engine, enforced across
  process boundaries.
"""

from __future__ import annotations

from repro.runtime.pool import SessionPool, SweepPlan, SweepVerification

__all__ = ["ParallelSweep", "SweepPlan", "SweepVerification"]


class ParallelSweep(SessionPool):
    """A :class:`~repro.runtime.pool.SessionPool` that defaults to processes.

    The only difference: a config built here from keyword knobs defaults
    to ``executor="process"``.  An explicit ``config=`` carries its own
    executor, exactly as for the pool.
    """

    default_executor = "process"
