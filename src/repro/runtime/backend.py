"""Pluggable execution backends.

An :class:`ExecutionBackend` bundles the three runtime policies one knob
apart from protocol logic:

* which :class:`~repro.runtime.driver.RoundDriver` drives rounds;
* how the session's :class:`~repro.runtime.scheduler.BatchScheduler`
  drains per-round message queues (``fifo`` vs ``grouped``);
* how much of the event trace is kept (``full`` vs ``light``).

Four backends ship:

========== ============ ========= ======= ==========================================
name       driver       drain     trace   contract
========== ============ ========= ======= ==========================================
sequential sequential   fifo      full    byte-identical traces to the pre-runtime
                                          engine for any fixed seed (the default)
pooled     batched      fifo      full    traces identical to ``sequential``;
                                          trace-neutral elisions only — safe for
                                          determinism regressions and SessionPool
batched    batched      grouped   light   maximum throughput; per-recipient batch
                                          delivery, tracing off; protocol outputs
                                          equal, trace interleaving differs
async      async        fifo      full    the sequential round plus a yield at
                                          each round boundary, so sessions hosted
                                          on one event loop interleave; traces
                                          identical to ``sequential``
========== ============ ========= ======= ==========================================

Stack builders and the CLI accept either a backend name or an
:class:`ExecutionBackend` instance everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Type, Union

from repro.runtime.driver import (
    AsyncRoundDriver,
    BatchedRoundDriver,
    RoundDriver,
    SequentialRoundDriver,
)

#: Trace modes: ``full`` keeps the whole EventLog, ``light`` disables it.
TRACE_MODES = ("full", "light")


@dataclass(frozen=True)
class ExecutionBackend:
    """One named execution strategy for UC sessions.

    Attributes:
        name: Registry key (also what ``--backend`` accepts on the CLI).
        driver_cls: Round driver class instantiated per environment.
        scheduler_policy: Drain policy for per-round message queues.
        trace: Default trace mode for sessions created under this backend.
        description: One-line summary for ``--help`` and reports.
    """

    name: str
    driver_cls: Type[RoundDriver]
    scheduler_policy: str = "fifo"
    trace: str = "full"
    description: str = ""

    def make_driver(self, session, order: Optional[Sequence[str]] = None) -> RoundDriver:
        """Instantiate this backend's round driver for ``session``."""
        return self.driver_cls(session, order=order)

    def with_trace(self, trace: str) -> "ExecutionBackend":
        """A copy of this backend with a different trace mode."""
        if trace not in TRACE_MODES:
            raise ValueError(f"trace must be one of {list(TRACE_MODES)}, got {trace!r}")
        return replace(self, trace=trace)

    def warm_up(self, material=None, arith=None) -> "ExecutionBackend":
        """Pre-build the process-wide caches sessions under this backend use.

        Called once per worker by the pool initializer (and usable inline
        before timing-sensitive runs): warms the shared crypto
        acceleration caches so no session pays lazy construction mid-run.
        Custom backends with extra per-process state can extend this.

        Args:
            material: Where the caches come from — ``None``/``"compute"``
                rebuilds them locally, ``"disk"`` attaches the
                preprocessing store's serialized tables, and a
                :class:`~repro.runtime.material.MaterialHandle` attaches
                what the parent published (shared memory, mmap fallback).
                Every failure degrades to compute with a warning; the
                installed tables are value-identical either way.  A
                successful attach also registers the material's
                randomness pools with this process
                (:func:`~repro.runtime.material.attached_material`), so
                online-mode cursors can spend them without re-reading
                the blob per trial.
            arith: Optional arithmetic-backend name to select first
                (``"gmpy2"``/``"python"``/``"auto"``) — the pool
                initializer forwards the parent's selection so worker
                processes run the same tier.  Arithmetic backends are
                value-identical, so an unavailable name degrades to
                auto-detection with a warning rather than failing the
                worker.
        """
        from repro.runtime.material import warm_with_material

        if arith is not None:
            import warnings

            from repro.crypto.groups import set_arith_backend

            try:
                set_arith_backend(arith)
            except ValueError as exc:
                warnings.warn(
                    f"worker cannot select arith backend {arith!r} ({exc}); "
                    "falling back to auto-detection",
                    RuntimeWarning,
                    stacklevel=2,
                )
                set_arith_backend("auto")
        warm_with_material(material)
        return self


SEQUENTIAL = ExecutionBackend(
    name="sequential",
    driver_cls=SequentialRoundDriver,
    scheduler_policy="fifo",
    trace="full",
    description="reference engine: per-message callbacks, full trace (default)",
)

POOLED = ExecutionBackend(
    name="pooled",
    driver_cls=BatchedRoundDriver,
    scheduler_policy="fifo",
    trace="full",
    description="SessionPool driver: trace-identical to sequential, cached activation",
)

BATCHED = ExecutionBackend(
    name="batched",
    driver_cls=BatchedRoundDriver,
    scheduler_policy="grouped",
    trace="light",
    description="throughput engine: grouped batch delivery, tracing off",
)

ASYNC = ExecutionBackend(
    name="async",
    driver_cls=AsyncRoundDriver,
    description="sequential rounds that yield to the event loop between "
    "rounds; powers `repro serve`",
)

_REGISTRY: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Register ``backend`` under its name (last registration wins)."""
    _REGISTRY[backend.name] = backend
    return backend


for _backend in (SEQUENTIAL, POOLED, BATCHED, ASYNC):
    register_backend(_backend)


def available_backends() -> Dict[str, ExecutionBackend]:
    """Name -> backend for every registered backend."""
    return dict(_REGISTRY)


def get_backend(backend: Union[str, ExecutionBackend, None]) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Raises:
        ValueError: unknown backend name.
    """
    if backend is None:
        return SEQUENTIAL
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown backend {backend!r} (known: {known})") from None
