"""Build, drive and judge scenario cells; sweep matrices via SessionPool.

One cell = one UC execution: the runner builds the spec'd stack with a
fresh adversary instance, applies the fault plan (activation schedules,
staggered inputs, scheduler faults), drives the world for a
deterministic number of rounds, and evaluates the expected trace
properties against the finished execution.  Whole matrices run through
:class:`~repro.runtime.pool.SessionPool` — inline for determinism-
sensitive sweeps, process workers for wall-clock — and the
resulting :class:`CellResult` records are picklable and JSON-friendly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.config import SweepConfig
from repro.runtime.pool import (
    SessionPool,
    TrialResult,
    compare_trace_digests,
    trace_digest,
)
from repro.scenarios.adversaries import make_adversary
from repro.scenarios.faults import FaultPlan
from repro.scenarios.properties import PropertyResult, evaluate
from repro.scenarios.spec import (
    ScenarioSpec,
    expected_for,
    payload_for,
)
from repro.uc.adversary import Adversary
from repro.uc.environment import Action, Environment
from repro.uc.session import Session

__all__ = [
    "CellResult",
    "MatrixReport",
    "ScenarioOutcome",
    "evaluate_scenario",
    "extra_scenarios",
    "online_slots_for",
    "run_matrix",
    "run_scenario",
    "run_scenario_trial",
]


@dataclass
class ScenarioOutcome:
    """Everything a property predicate may inspect about one execution."""

    spec: ScenarioSpec
    session: Session
    adversary: Adversary
    #: Honest parties expected to produce output (corrupted ones excluded).
    expected_pids: List[str]
    #: pid -> flattened delivered view (messages in delivery order).
    delivered: Dict[str, List[Any]]
    #: (sender pid, payload, input round) for every scripted honest input.
    honest_inputs: List[Tuple[str, bytes, int]]
    #: (payload, earliest round a leak may contain it) — see
    #: :func:`repro.scenarios.properties.prop_plaintext_secrecy`.
    secrecy_deadlines: List[Tuple[bytes, int]]
    rounds: int
    wall_time_s: float
    digest: str


@dataclass(frozen=True)
class CellResult:
    """Picklable verdict for one executed cell."""

    cell_id: str
    stack: str
    adversary: str
    fault: str
    backend: str
    seed: int
    rounds: int
    messages: int
    wall_time_s: float
    digest: str
    properties: Tuple[PropertyResult, ...]

    @property
    def ok(self) -> bool:
        """All properties matched the paper's prediction."""
        return all(result.ok for result in self.properties)

    @property
    def mismatches(self) -> List[PropertyResult]:
        return [result for result in self.properties if not result.ok]

    def summary(self) -> Dict[str, Any]:
        """Uniform record for JSON emission."""
        return {
            "cell": self.cell_id,
            "stack": self.stack,
            "adversary": self.adversary,
            "fault": self.fault,
            "backend": self.backend,
            "seed": self.seed,
            "rounds": self.rounds,
            "ok": self.ok,
            "properties": {
                result.name: {
                    "holds": result.holds,
                    "expected": result.expected,
                    "detail": result.detail,
                }
                for result in self.properties
            },
        }


# ---------------------------------------------------------------------------
# Worlds: how each stack is built, scripted and read out
# ---------------------------------------------------------------------------


class _World:
    """One buildable/driveable stack.  Subclasses fill in the specifics."""

    def __init__(self, spec: ScenarioSpec, adversary: Adversary) -> None:
        self.spec = spec
        self.adversary = adversary
        self.honest_inputs: List[Tuple[str, bytes, int]] = []
        self.session: Session = None  # type: ignore[assignment]
        self.env: Environment = None  # type: ignore[assignment]
        self.parties: Dict[str, Any] = {}
        self._build()

    # -- subclass surface ---------------------------------------------------

    def _build(self) -> None:
        raise NotImplementedError

    def actions_by_round(self) -> Dict[int, List[Action]]:
        raise NotImplementedError

    def total_rounds(self) -> int:
        raise NotImplementedError

    def delivered(self) -> Dict[str, List[Any]]:
        raise NotImplementedError

    def secrecy_deadlines(self) -> List[Tuple[bytes, int]]:
        return []

    # -- shared helpers ------------------------------------------------------

    def _sender_inputs(self) -> List[Tuple[str, bytes, int]]:
        """The scripted ``(pid, payload, round)`` broadcast schedule."""
        if not self.honest_inputs:
            plan = self.spec.faults
            for index in range(self.spec.senders):
                pid = f"P{index}"
                self.honest_inputs.append(
                    (pid, payload_for(pid), plan.input_round(index))
                )
        return self.honest_inputs

    def _broadcast_actions(self) -> Dict[int, List[Action]]:
        actions: Dict[int, List[Action]] = {}
        for pid, payload, round_index in self._sender_inputs():
            actions.setdefault(round_index, []).append(
                (pid, lambda p, m=payload: p.broadcast(m))
            )
        return actions

    def _last_input_round(self) -> int:
        return max((r for _p, _m, r in self._sender_inputs()), default=0)

    def _honest_views(self, extract: Callable[[Any], List[Any]]) -> Dict[str, List[Any]]:
        return {
            pid: extract(party)
            for pid, party in self.parties.items()
            if not self.session.is_corrupted(pid)
        }

    def drive(self) -> None:
        """Run the scripted rounds under the fault plan's schedules."""
        plan = self.spec.faults
        pids = list(self.session.parties)
        actions = self.actions_by_round()
        for round_index in range(self.total_rounds()):
            self.env.run_round(
                actions.get(round_index, ()),
                order=plan.order_for_round(round_index, pids),
            )


class _UBCWorld(_World):
    """Raw ``FUBC``: the unfair baseline every attack beats."""

    def _build(self) -> None:
        from repro.functionalities.dummy import DummyBroadcastParty
        from repro.functionalities.ubc import UnfairBroadcast

        spec = self.spec
        session = Session(
            sid=f"scn-{spec.stack}", seed=spec.seed,
            adversary=self.adversary, backend=spec.backend,
        )
        spec.faults.install(session)
        self.ubc = UnfairBroadcast(session)
        self.parties = {
            f"P{i}": DummyBroadcastParty(session, f"P{i}", self.ubc)
            for i in range(spec.n)
        }
        self.session = session
        self.env = Environment(session)

    def actions_by_round(self) -> Dict[int, List[Action]]:
        return self._broadcast_actions()

    def total_rounds(self) -> int:
        return self._last_input_round() + 3

    def delivered(self) -> Dict[str, List[Any]]:
        return self._honest_views(
            lambda p: [m for kind, m, _s in p.outputs if kind == "Broadcast"]
        )

    def secrecy_deadlines(self) -> List[Tuple[bytes, int]]:
        # Sync bound: honest delivery completes within the input round;
        # any leak before the next round exposes the plaintext early —
        # and FUBC leaks at request time, which is the point.
        return [(m, r + 1) for _p, m, r in self._sender_inputs()]


class _DSUBCWorld(_World):
    """UBC over real Dolev–Strong runs: scheduler faults bite here."""

    def _build(self) -> None:
        from repro.functionalities.dummy import DummyBroadcastParty
        from repro.protocols.ds_ubc import DolevStrongUBCAdapter

        spec = self.spec
        session = Session(
            sid=f"scn-{spec.stack}", seed=spec.seed,
            adversary=self.adversary, backend=spec.backend,
        )
        spec.faults.install(session)
        pids = [f"P{i}" for i in range(spec.n)]
        self.ubc = DolevStrongUBCAdapter(session, pids=pids, t=spec.param("t", 1))
        self.parties = {}
        for pid in pids:
            party = DummyBroadcastParty(session, pid, self.ubc)
            self.ubc.attach(party)
            self.parties[pid] = party
        self.session = session
        self.env = Environment(session)

    def actions_by_round(self) -> Dict[int, List[Action]]:
        return self._broadcast_actions()

    def total_rounds(self) -> int:
        return self._last_input_round() + self.ubc.latency + 2

    def delivered(self) -> Dict[str, List[Any]]:
        return self._honest_views(
            lambda p: [m for kind, m, _s in p.outputs if kind == "Broadcast"]
        )


class _FBCWorld(_World):
    """Ideal ``F∆,α_FBC``: the fairness boundary."""

    def _build(self) -> None:
        from repro.functionalities.dummy import DummyBroadcastParty
        from repro.functionalities.fbc import FairBroadcast

        spec = self.spec
        session = Session(
            sid=f"scn-{spec.stack}", seed=spec.seed,
            adversary=self.adversary, backend=spec.backend,
        )
        spec.faults.install(session)
        self.delta = spec.param("delta", 3)
        self.alpha = spec.param("alpha", 1)
        self.fbc = FairBroadcast(session, delta=self.delta, alpha=self.alpha)
        self.parties = {
            f"P{i}": DummyBroadcastParty(session, f"P{i}", self.fbc)
            for i in range(spec.n)
        }
        self.session = session
        self.env = Environment(session)

    def actions_by_round(self) -> Dict[int, List[Action]]:
        return self._broadcast_actions()

    def total_rounds(self) -> int:
        return self._last_input_round() + self.delta + 2

    def delivered(self) -> Dict[str, List[Any]]:
        return self._honest_views(
            lambda p: [m for _kind, m in p.outputs]
        )

    def secrecy_deadlines(self) -> List[Tuple[bytes, int]]:
        # Figure 10: the adversary may first obtain the value ∆ − α
        # rounds after the request, never earlier.
        return [
            (m, r + self.delta - self.alpha) for _p, m, r in self._sender_inputs()
        ]


class _SBCWorld(_World):
    """ΠSBC over its hybrid or fully composed stack (Theorem 2 / Cor. 1)."""

    def _build(self) -> None:
        from repro.core.stacks import build_sbc_stack

        spec = self.spec
        self.stack = build_sbc_stack(
            n=spec.n,
            mode=spec.mode,
            seed=spec.seed,
            phi=spec.param("phi", 5),
            delta=spec.param("delta", 3),
            adversary=self.adversary,
            backend=spec.backend,
        )
        spec.faults.install(self.stack.session)
        self.session = self.stack.session
        self.env = self.stack.env
        self.parties = self.stack.parties

    def actions_by_round(self) -> Dict[int, List[Action]]:
        return self._broadcast_actions()

    def total_rounds(self) -> int:
        return self._last_input_round() + self.stack.phi + self.stack.delta + 2

    def delivered(self) -> Dict[str, List[Any]]:
        batches = self.stack.delivered()
        return {
            pid: list(batch) if batch else []
            for pid, batch in batches.items()
            if not self.session.is_corrupted(pid)
        }

    def secrecy_deadlines(self) -> List[Tuple[bytes, int]]:
        # The adversary's preview round is t_end + ∆ − α; t_end comes from
        # the protocol's own "awake" record (the wake-up may have been
        # delayed or destroyed by the attack).
        awake = self.session.log.filter(kind="awake")
        if not awake:
            return []
        t_end = min(event.detail[2] for event in awake)
        deadline = t_end + self.stack.delta - self.stack.sbc.alpha
        return [(m, deadline) for _p, m, _r in self._sender_inputs()]


class _DURSWorld(_World):
    """ΠDURS over the ideal SBC: the delayed randomness beacon."""

    def _build(self) -> None:
        from repro.core.stacks import build_durs_stack

        spec = self.spec
        self.stack = build_durs_stack(
            n=spec.n,
            mode="hybrid",
            seed=spec.seed,
            phi=spec.param("phi", 3),
            delta=spec.param("delta", 6),
            adversary=self.adversary,
            backend=spec.backend,
        )
        spec.faults.install(self.stack.session)
        self.session = self.stack.session
        self.env = self.stack.env
        self.parties = self.stack.parties

    def actions_by_round(self) -> Dict[int, List[Action]]:
        return {
            0: [(pid, lambda p: p.urs_request()) for pid in self.parties]
        }

    def total_rounds(self) -> int:
        return self.stack.delta + 2

    def delivered(self) -> Dict[str, List[Any]]:
        return self._honest_views(
            lambda p: [v for kind, v in p.outputs if kind == "URS"]
        )


_WORLDS: Dict[str, Callable[[ScenarioSpec, Adversary], _World]] = {
    "ubc": _UBCWorld,
    "ds-ubc": _DSUBCWorld,
    "fbc": _FBCWorld,
    "sbc-hybrid": _SBCWorld,
    "sbc-composed": _SBCWorld,
    "durs": _DURSWorld,
}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    cursor: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> ScenarioOutcome:
    """Build and drive one cell; returns the live outcome (session attached).

    With ``cursor`` (a :class:`~repro.runtime.material.MaterialCursor`)
    the cell spends its reserved slice of the preprocessed randomness
    pools and records the consumption in its trace — the online mode's
    digest-pinning rule, applied to scenario cells.  With ``batch`` (a
    :class:`~repro.crypto.batch.BatchPolicy`) verification-heavy rounds
    inside the cell batch their checks, pinned the same way via
    ``verify.batch`` events.

    Raises:
        KeyError: unknown stack or adversary strategy.
    """
    from repro.crypto.batch import batching
    from repro.crypto.randomness import spending
    from repro.runtime.pool import record_online_spend

    try:
        world_cls = _WORLDS[spec.stack]
    except KeyError:
        known = ", ".join(sorted(_WORLDS))
        raise KeyError(f"unknown stack {spec.stack!r} (known: {known})") from None
    adversary = make_adversary(spec)
    start = time.perf_counter()
    with spending(cursor), batching(batch):
        world = world_cls(spec, adversary)
        world.drive()
    elapsed = time.perf_counter() - start
    session = world.session
    record_online_spend(session, cursor)
    expected_pids = [
        pid for pid in world.parties if not session.is_corrupted(pid)
    ]
    return ScenarioOutcome(
        spec=spec,
        session=session,
        adversary=adversary,
        expected_pids=expected_pids,
        delivered=world.delivered(),
        honest_inputs=list(world.honest_inputs),
        secrecy_deadlines=world.secrecy_deadlines(),
        rounds=session.metrics.get("rounds.advanced"),
        wall_time_s=elapsed,
        digest=trace_digest(session.log),
    )


def evaluate_scenario(
    spec: ScenarioSpec,
    cursor: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> CellResult:
    """Run one cell and judge its expected properties."""
    outcome = run_scenario(spec, cursor=cursor, batch=batch)
    results = evaluate(outcome, spec.expectations())
    return CellResult(
        cell_id=spec.cell_id,
        stack=spec.stack,
        adversary=spec.adversary,
        fault=spec.faults.name,
        backend=spec.backend,
        seed=spec.seed,
        rounds=outcome.rounds,
        messages=outcome.session.metrics.get("messages.total"),
        wall_time_s=outcome.wall_time_s,
        digest=outcome.digest,
        properties=tuple(results),
    )


def run_scenario_trial(
    index: int,
    specs: Sequence[ScenarioSpec] = (),
    backend: Any = None,
    trace: Optional[str] = None,
    online: Optional[Any] = None,
    batch: Optional[Any] = None,
) -> TrialResult:
    """SessionPool trial runner: one matrix cell per "seed" (the index).

    ``backend``/``trace`` are accepted because :class:`SessionPool`
    forwards its own defaults to every runner, but each cell pins its
    backend as a matrix axis, so the pool-level values are ignored.
    ``online`` (an :class:`~repro.runtime.material.OnlinePlan`) gives
    the cell a cursor over its reserved pool slice; ``batch`` (a
    :class:`~repro.crypto.batch.BatchPolicy`) batches the cell's
    verification rounds.
    """
    cursor = online.open(index) if online is not None else None
    cell = evaluate_scenario(specs[index], cursor=cursor, batch=batch)
    return TrialResult(
        seed=index,
        wall_time_s=cell.wall_time_s,
        rounds=cell.rounds,
        messages=cell.messages,
        digest=cell.digest,
        outputs=cell,
        online=cursor.spend_summary() if cursor is not None else None,
    )


@dataclass
class MatrixReport:
    """Aggregate verdict over one matrix sweep."""

    cells: List[CellResult] = field(default_factory=list)
    executor: str = "inline"
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    def backend_mismatches(self) -> List[str]:
        """Cells whose trace digest differs across backends.

        Same stack + adversary + fault + seed must execute identically
        under every full-trace backend (the PR-1 determinism contract,
        now enforced under adversarial scenarios too).
        """
        groups: Dict[Tuple[str, str, str, int], Dict[str, str]] = {}
        for cell in self.cells:
            key = (cell.stack, cell.adversary, cell.fault, cell.seed)
            groups.setdefault(key, {})[cell.backend] = cell.digest
        mismatches = []
        for key, digests in groups.items():
            if len(digests) < 2:
                continue
            values = list(digests.items())
            reference_backend, reference = values[0]
            for backend, digest in values[1:]:
                if not compare_trace_digests(reference, digest):
                    mismatches.append(
                        f"{'/'.join(map(str, key))}: {reference_backend}!={backend}"
                    )
        return mismatches

    def summary(self) -> Dict[str, Any]:
        return {
            "cells": len(self.cells),
            "ok": sum(1 for cell in self.cells if cell.ok),
            "failed": len(self.failures),
            "executor": self.executor,
            "wall_time_s": round(self.wall_time_s, 6),
        }


def online_slots_for(specs: Sequence[ScenarioSpec]) -> List[int]:
    """Pool-slot assignment for a spec list in online mode.

    Cells that are the *same execution* replayed under a different
    backend must spend the same pool entries, or the matrix's
    cross-backend digest check would always fail in online mode.  The
    replay key is therefore the whole execution identity except the
    backend — stack, adversary, full fault plan, seed, party/sender
    counts and parameter overrides — so two cells only share a slot
    (and pool entries) when they are bit-for-bit the same execution;
    any genuinely distinct cell gets its own slot and can never
    double-spend.
    """
    groups: Dict[Tuple[Any, ...], int] = {}
    slots = []
    for spec in specs:
        key = (
            spec.stack, spec.adversary, spec.faults, spec.seed,
            spec.n, spec.senders, spec.params,
        )
        slots.append(groups.setdefault(key, len(groups)))
    return slots


def run_matrix(
    specs: Iterable[ScenarioSpec],
    config: Optional[SweepConfig] = None,
) -> MatrixReport:
    """Execute every cell through a :class:`~repro.runtime.pool.SessionPool`.

    Cells are dispatched by index into ``specs`` (the cell pins its own
    backend and seed), so results — and therefore the report's cell
    order — match the spec order under every executor.  ``config`` is
    the :class:`~repro.runtime.config.SweepConfig` the pool takes
    (default: ``SweepConfig()``, inline).  Two knobs are interpreted,
    not forwarded: the backend is forced to ``sequential`` at the pool
    level (each cell pins its own backend as a matrix axis), and
    ``online=True`` becomes an
    :class:`~repro.runtime.material.OnlinePlan` whose backend-variant
    replays of one execution share a pool slot (see
    :func:`online_slots_for`) — so the cross-backend digest check holds
    in online mode.  ``chaos``/``retry``/``deadline``/``journal``
    /``resume`` configure the supervised process fan-out exactly as in
    :class:`~repro.runtime.pool.SessionPool`.
    """
    specs = tuple(specs)
    if config is None:
        config = SweepConfig()
    online_plan: Any = config.online
    if config.online and isinstance(config.online, bool):
        from repro.runtime.material import OnlinePlan

        online_plan = OnlinePlan.for_tasks(
            range(len(specs)), slots=online_slots_for(specs)
        )
    config = config.replace(backend="sequential", online=online_plan)
    pool = SessionPool(run_scenario_trial, config=config, specs=specs)
    report = pool.run(range(len(specs)))
    return MatrixReport(
        cells=[trial.outputs for trial in report.results],
        executor=config.executor,
        wall_time_s=report.wall_time_s,
    )


def extra_scenarios(seed: int = 0) -> List[ScenarioSpec]:
    """Targeted one-off scenarios beyond the cross-product matrix.

    These pin the *timing-sensitive* halves of the paper's claims that a
    plain cross product cannot express: the FBC replacement window
    before the lock, Dolev–Strong under scheduler faults, and the
    beacon's bias resistance.
    """
    return [
        # Figure 10, the open half: replacement *before* the lock works.
        ScenarioSpec(
            name="fbc-replace-early",
            stack="fbc",
            adversary="replace-early",
            seed=seed,
            expect=(
                ("delivery", True),
                ("agreement", True),
                ("simultaneous_delivery", True),
                ("plaintext_secrecy", True),
                ("replacement_delivered", True),
                ("fbc_lock_before_open", True),
            ),
        ),
        # Dolev–Strong with one silently crashed party (all its traffic
        # dropped at the scheduler) plus batch reordering: within t = 1.
        ScenarioSpec(
            name="ds-crash",
            stack="ds-ubc",
            adversary="passive",
            seed=seed,
            faults=FaultPlan(
                name="crash", net_drop_from=("P2",), net_reorder=True
            ),
            expect=expected_for("ds-ubc", "passive"),
        ),
        # Dolev–Strong under maximal in-bound delay + reordering.
        ScenarioSpec(
            name="ds-net-chaos",
            stack="ds-ubc",
            adversary="passive",
            seed=seed,
            faults=FaultPlan(
                name="net-chaos",
                net_reorder=True,
                net_reorder_seed=7,
                net_delay_from=("P1",),
            ),
            expect=expected_for("ds-ubc", "passive"),
        ),
        # The last-mover must contribute blind through DURS (Figure 15).
        ScenarioSpec(
            name="durs-bias",
            stack="durs",
            adversary="bias",
            seed=seed,
            params=(("phi", 3),),
            expect=(
                ("delivery", True),
                ("agreement", True),
                ("simultaneous_delivery", True),
                ("bias_blind", True),
            ),
        ),
    ]
