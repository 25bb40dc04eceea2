"""One config object for every execution entry point.

Nine PRs of organic growth left ``SessionPool``, ``ParallelSweep``,
``run_matrix`` and four CLI subcommands each re-declaring the same ~20
execution knobs — and silently drifting (``run_matrix`` once lacked
the supervision, journal and trace knobs without anyone noticing).
:class:`SweepConfig` is the single source of truth: a frozen dataclass
holding every knob, with *all* validation in
:meth:`SweepConfig.__post_init__`, and an argparse bridge
(:func:`add_sweep_options` and :func:`add_fanout_options`, read back by
:meth:`SweepConfig.from_args`): ``sweep`` and ``scenarios run``
take both flag sets, ``serve`` only the first.  ``config=`` is the only
way into an entry point: ``SessionPool`` refuses a knob passed as a
loose keyword, since it would otherwise reach the runner and skip this
validation.

The knobs themselves are documented once, on :class:`SweepConfig`'s
fields below; ``SessionPool``'s docstring points here.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields, replace
from typing import Any, Optional, Sequence, Tuple, Union

from repro.runtime.backend import TRACE_MODES, ExecutionBackend

__all__ = [
    "EXECUTORS",
    "SweepConfig",
    "add_fanout_options",
    "add_sweep_options",
]

#: The executors every entry point understands, in one place (the CLI
#: ``choices`` and the validation error both read from it).
EXECUTORS: Tuple[str, ...] = ("inline", "process")


@dataclass(frozen=True)
class SweepConfig:
    """Every execution knob, validated once.

    Args:
        backend: Execution backend applied inside each session (name or
            :class:`~repro.runtime.backend.ExecutionBackend` instance);
            forwarded to runners as ``backend=``.
        executor: ``"inline"`` (one warm driver in this process, no
            worker overhead) or ``"process"`` (supervised process
            fan-out; workers live for the whole run).
        workers: Process worker count (default: all cores).
        chunksize: Tasks shipped per process dispatch, every chunk the
            same size.  Default: an auto plan whose chunks start at
            :func:`~repro.runtime.pool.auto_chunksize` and shrink
            toward the end of the sweep
            (:attr:`~repro.runtime.pool.SweepPlan.sizes`).
        material: Where online-mode randomness pools come from —
            ``"compute"`` (default: none, so ``online`` is refused),
            ``"disk"`` or ``"shared"`` (attach the preprocessing store's
            file, in every process worker or once inline).  Pools enter
            only online trials, so other runs' trace digests never
            depend on the source.
        material_groups: Parameter sets published to process workers,
            the sweep's and the service host's alike (default: the test
            group); the first one also backs ``online=True`` plans.
        online: Spend the preprocessed randomness pools inside trials.
            ``True`` partitions the pools across tasks by position; an
            explicit :class:`~repro.runtime.material.OnlinePlan` pins
            custom slot assignments.  Requires a pool-bearing
            ``material`` source.
        batch_verify: Batch verification-heavy rounds through one
            random-linear-combination multi-exp per round.  ``True``
            uses the stock :class:`~repro.crypto.batch.BatchPolicy`;
            an explicit policy pins seed/threshold/trace behaviour.
        retry_attempts: Dispatches per chunk before it is bisected
            (default: 3).  Process executor only.
        deadline_cap_s: Cap in seconds on a chunk's deadline (see
            :func:`~repro.runtime.supervisor.deadline_s`).  Process
            executor only.
        chaos: Fault-injection schedule — a
            :class:`~repro.runtime.supervisor.ChaosPlan` or a spec
            string (``"kill@3,exc@5:*"``).  Process executor only.
        journal: Path for a crash-safe
            :class:`~repro.runtime.supervisor.SweepJournal`.  Process
            executor only.
        resume: Resume from ``journal`` instead of starting fresh.
            Requires ``journal``.
        trace: Optional trace-mode override forwarded to runners
            (``"light"`` turns the EventLog off for throughput runs).
    """

    backend: Union[str, ExecutionBackend] = "pooled"
    executor: str = "inline"
    workers: Optional[int] = None
    chunksize: Optional[int] = None
    material: Optional[str] = None
    material_groups: Optional[Sequence[Any]] = None
    online: Any = False
    batch_verify: Any = False
    retry_attempts: Optional[int] = None
    deadline_cap_s: Optional[float] = None
    chaos: Optional[Any] = None
    journal: Optional[Any] = None
    resume: bool = False
    trace: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.runtime.backend import get_backend
        from repro.runtime.material import MATERIAL_COMPUTE, resolve_material_source

        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be {'/'.join(EXECUTORS)}, got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {self.chunksize}")
        if self.retry_attempts is not None and self.retry_attempts < 1:
            raise ValueError(f"retry_attempts must be >= 1, got {self.retry_attempts}")
        if self.deadline_cap_s is not None and self.deadline_cap_s <= 0:
            raise ValueError(f"deadline_cap_s must be > 0, got {self.deadline_cap_s}")
        get_backend(self.backend)  # unknown names raise here, not mid-sweep
        object.__setattr__(self, "material", resolve_material_source(self.material))
        if self.material_groups is not None:
            object.__setattr__(self, "material_groups", tuple(self.material_groups))
        if isinstance(self.chaos, str):
            # Lazy import: supervisor imports the runtime at top level,
            # so the reverse edge must stay inside functions.
            from repro.runtime.supervisor import ChaosPlan

            object.__setattr__(self, "chaos", ChaosPlan.parse(self.chaos))
        object.__setattr__(self, "resume", bool(self.resume))
        supervised = (
            self.retry_attempts is not None
            or self.deadline_cap_s is not None
            or self.chaos is not None
            or self.journal is not None
            or self.resume
        )
        if supervised and self.executor != "process":
            raise ValueError(
                "retry_attempts/deadline_cap_s/chaos/journal/resume configure the "
                "supervised process fan-out; they need executor='process' "
                "(chaos faults would kill the coordinator inline, and a "
                "journal of an unsupervised run could not be trusted)"
            )
        if self.resume and self.journal is None:
            raise ValueError(
                "resume restores completed chunks from the sweep journal; "
                "pass journal=<path> (the file the interrupted run wrote)"
            )
        if self.trace is not None and self.trace not in TRACE_MODES:
            raise ValueError(
                f"trace must be one of {TRACE_MODES} (or None), got {self.trace!r}"
            )
        if self.online and self.material == MATERIAL_COMPUTE:
            raise ValueError(
                "online mode spends the preprocessing store: pick "
                "material='disk' or 'shared' (compute has no pools)"
            )

    @property
    def batch_policy(self) -> Optional[Any]:
        """The resolved :class:`~repro.crypto.batch.BatchPolicy` (or None)."""
        if self.batch_verify is True:
            from repro.crypto.batch import BatchPolicy

            return BatchPolicy()
        return self.batch_verify or None

    def replace(self, **changes: Any) -> "SweepConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    @classmethod
    def knob_names(cls) -> Tuple[str, ...]:
        """Every knob's field name — the contract the entry points share."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_args(cls, args: argparse.Namespace, **overrides: Any) -> "SweepConfig":
        """Build a config from an :func:`add_sweep_options` namespace.

        Every flag carries its knob's name (``--retry-attempts`` sets
        ``retry_attempts``), so the knobs the namespace holds are copied
        and the rest keep their defaults: one builder serves ``sweep``,
        ``scenarios run`` and ``serve`` (which takes no
        :func:`add_fanout_options` flags).  The ``--chaos`` spec string
        is parsed by ``__post_init__``.  ``backend`` comes from
        ``overrides`` only, which win over the namespace: ``--backend``
        means different things per command.
        """
        kwargs = {
            name: getattr(args, name)
            for name in cls.knob_names()
            if name != "backend" and hasattr(args, name)
        }
        kwargs.update(overrides)
        return cls(**kwargs)


def add_sweep_options(
    parser: argparse.ArgumentParser,
    executor_default: str = "inline",
    trace_default: Optional[str] = "light",
) -> None:
    """Install the execution flags every session runner reads on ``parser``.

    One definition for ``sweep``/``scenarios run``/``serve``, so
    subcommands cannot drift apart again.  ``executor_default``/
    ``trace_default`` carry the per-command defaults (the matrix and
    ``serve`` stay inline, the sweep fans out to processes).  Commands
    that run a chunked sweep add :func:`add_fanout_options` too.
    """
    parser.add_argument(
        "--executor", choices=EXECUTORS, default=executor_default,
        help="how sessions map to workers "
             f"(default: {executor_default})",
    )
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count (default: all cores for processes)")
    parser.add_argument(
        "--material", choices=("compute", "disk", "shared"), default="compute",
        help="where --online pools come from: none (compute), or the "
             "preprocessing store file each worker attaches ('shared' is "
             "another spelling of 'disk'; see 'repro material build')",
    )
    parser.add_argument(
        "--online", action="store_true",
        help="spend the preprocessed randomness pools inside trials "
             "(offline/online protocol mode; requires --material "
             "disk or shared — see 'repro material build --for-sweep'). "
             "Each run spends its slices from index 0 of the store blob "
             "it planned against; a trial that finds another blob, or "
             "runs past its slice, samples instead (counted)",
    )
    parser.add_argument(
        "--batch-verify", action="store_true",
        help="batch verification rounds inside trials through one "
             "random-linear-combination multi-exp per round "
             "(outputs identical to per-item verification; batched "
             "runs are digest-pinned via verify.batch trace events)",
    )
    parser.add_argument(
        "--trace", choices=TRACE_MODES, default=trace_default,
        help="trace mode inside sessions (light = no EventLog, faster)",
    )


def add_fanout_options(parser: argparse.ArgumentParser) -> None:
    """Install the supervised chunked fan-out flags on ``parser``.

    Chunk size, journal and resume, chaos faults, retry and deadline
    shape a sweep's chunks and their supervision, so only the commands
    that run a sweep (``sweep`` and ``scenarios run``) take them;
    ``serve`` hosts sessions one by one and would ignore them.
    """
    parser.add_argument(
        "--chunksize", type=int, default=None,
        help="tasks per process dispatch, every chunk this size (default: "
             "auto, ~4 chunks/worker shrinking toward the end of the sweep)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="record each completed chunk to a crash-safe JSONL journal "
             "so a killed sweep can pick up where it left off",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore completed chunks from --journal instead of "
             "re-running them (the journaled online plan is replayed "
             "verbatim, so no material is double-spent)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject worker faults for resilience testing: "
             "comma-separated kind@task[:repeat] with kind in "
             "kill/exc/hang (a 30 s sleep) and ':*' for every dispatch "
             "(e.g. 'kill@3,exc@7:2'); recovery keeps the sweep "
             "digest-equal, so combine with --verify",
    )
    parser.add_argument(
        "--retry-attempts", type=int, default=None,
        help="max attempts per chunk before bisecting to the poison "
             "task (default: 3)",
    )
    parser.add_argument(
        "--deadline-cap-s", type=float, default=None,
        help="hard upper bound on the per-chunk deadline in seconds: a "
             "chunk silent that long gets its pool respawned and is "
             "retried (default: none — the EWMA-derived deadline rules; "
             "set a few seconds to exercise hang recovery)",
    )
