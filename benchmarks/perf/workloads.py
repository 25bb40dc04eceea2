"""The benchmark's four workloads; ``run.py`` runs each in its own process.

Usage (``run.py`` spawns this; ``PYTHONPATH`` must reach ``src/`` and
``REPRO_MATERIAL_DIR`` must name a scratch directory)::

    python benchmarks/perf/workloads.py --workload NAME --seed S \\
        --seconds T --trace 0|1 --t0 MONOTONIC [--setup-only] [--out DIR]

The last line of standard output is one JSON object: the run's
``setup_s``, ``attempted`` and ``failed`` session counts, the first
failure messages, the host speed, and ``metrics`` — the end-to-end
metrics for ``--trace 0`` (with their uncorrected values under ``raw``),
the per-layer metrics for ``--trace 1``.

Every workload drives the library from outside through its public API.
Session seeds are ``S * 1_000_000 + i``; untimed warm-up sessions use
indices from :data:`WARMUP_OFFSET` so they never collide with timed ones.
Each session's output is checked as soon as it returns, and only its
timing is kept, so the process's memory does not grow with throughput.
Timings are corrected for host speed (see :mod:`probe`).  A traced run
spends the first half of ``--seconds`` untraced (the reference for the
tracing overhead) and the second half under :func:`spans.instrumented`;
no end-to-end number comes from it.
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import dataclasses
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.crypto.groups import TEST_GROUP, get_arith_backend
from repro.runtime import (
    AsyncSessionHost,
    MaterialStore,
    OnlinePlan,
    ParallelSweep,
    SweepConfig,
    TrialResult,
    async_voting_session,
    compare_trace_digests,
    online_ranges_disjoint,
    run_sbc_trial,
    run_voting_trial,
)

import probe
import spans

SEEDS_PER_RUN = 1_000_000
WARMUP_OFFSET = 999_000
WARMUP_SESSIONS = 5
#: Failure messages carried in the result line (the count is exact).
MAX_ERRORS = 5
#: Probe time after set-up, from which set-up's host speed is taken.
SETUP_PROBE_S = 0.01
#: An inline session's speed averages the probe batches of this many
#: sessions on each side of it, smoothing single-call batches.
SMOOTH = 2


def session_seed(seed: int, index: int) -> int:
    return seed * SEEDS_PER_RUN + index


class SweepStat(NamedTuple):
    """What a finished sweep's ``PoolReport`` says, without its results."""

    workers: int
    wall_s: float
    task_s: float
    chunksize: int
    supervision: Dict[str, Any]


def describe(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


@dataclass
class Phase:
    """Totals of one measured stretch of a workload.

    A *unit* is what the load generator waits on: one session for the
    closed-loop clients, one wave for the host, one sweep for the
    sweeper.  Each unit carries its raw seconds and the host speed
    measured next to it; each passing session carries its raw latency
    and the index of its unit, in flat arrays so that a sweep's hundred
    thousand sessions barely move the peak resident set.
    ``requests`` are ``(due, start, end)`` of the units, ``launches``
    ``(due, issued)`` of each generator action.  ``timed_s`` is the
    traced session time as the generator's own clocks read it, outside
    the span recorder: what the layer self times must add up to.
    """

    attempted: int = 0
    failures: Dict[int, str] = field(default_factory=dict)
    raw_latency_s: array = field(default_factory=lambda: array("d"))
    latency_unit: array = field(default_factory=lambda: array("l"))
    units: List[List[float]] = field(default_factory=list)
    batches: List[Tuple[int, float]] = field(default_factory=list)
    wall_s: float = 0.0
    requests: List[Tuple[float, float, float]] = field(default_factory=list)
    launches: List[Tuple[float, float]] = field(default_factory=list)
    messages: int = 0
    rounds: int = 0
    nonces_spent: int = 0
    nonces_sampled: int = 0
    sweeps: List["SweepStat"] = field(default_factory=list)
    layers: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    timed_s: float = 0.0

    def add(self, workload: "Workload", seed: int, result: Any, error: Optional[str],
            latency_s: float, unit: int) -> None:
        """Check one finished session and keep its timing if it passed."""
        self.attempted += 1
        reason = error if error is not None else workload.check(seed, result)
        if reason is not None:
            self.failures.setdefault(seed, reason)
            return
        self.raw_latency_s.append(latency_s)
        self.latency_unit.append(unit)
        self.messages += result.messages
        self.rounds += result.rounds
        if result.online:
            self.nonces_spent += result.online["nonces_spent"]
            self.nonces_sampled += result.online["nonces_sampled"]

    @property
    def passed(self) -> int:
        return len(self.raw_latency_s)

    def latency_s(self, corrected: bool = True) -> List[float]:
        if not corrected:
            return list(self.raw_latency_s)
        return [raw * self.units[unit][1] for raw, unit in zip(self.raw_latency_s, self.latency_unit)]

    def unit_s(self, corrected: bool = True) -> float:
        return sum(raw * (speed if corrected else 1.0) for raw, speed in self.units)

    def speed(self) -> float:
        return probe.speed(self.batches)


def smooth_speeds(phase: Phase) -> None:
    """Give each unit the speed of the probe batches within :data:`SMOOTH`
    units of it (one batch follows each unit)."""
    batches = phase.batches
    for index, unit in enumerate(phase.units):
        unit[1] = probe.speed(batches[max(0, index - SMOOTH):index + SMOOTH + 1])


def union_s(intervals: List[Tuple[float, float]]) -> float:
    """Seconds covered by at least one ``(start, end)`` interval."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def closed_loop(workload: "Workload", runner: Callable[[int], Any], seed: int, first: int,
                seconds: float, recorder: Optional[spans.Recorder]) -> Phase:
    """One client; the next session is due once the previous one is checked.

    A probe batch follows each session, for :data:`probe.BUDGET` of its
    duration.
    """
    phase = Phase()
    index = first
    start = ready = time.perf_counter()
    deadline = start + seconds
    while ready < deadline:
        session = session_seed(seed, index)
        begin = time.perf_counter()
        result, error = None, None
        try:
            if recorder is None:
                result = runner(session)
            else:
                with recorder.span("session", spans.PROTOCOLS, session=session):
                    result = runner(session)
        # A failed session is counted against the run, never fatal to it.
        except Exception as exc:
            error = describe(exc)
        end = time.perf_counter()
        phase.batches.append(probe.probe(probe.BUDGET * (end - begin)))
        phase.units.append([end - begin, 1.0])
        phase.timed_s += end - begin
        phase.requests.append((ready, begin, end))
        phase.launches.append((ready, begin))
        phase.add(workload, session, result, error, end - begin, len(phase.units) - 1)
        ready = time.perf_counter()
        index += 1
    phase.wall_s = ready - start
    smooth_speeds(phase)
    return phase


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set up once, run phases, check every session's output."""

    name = ""
    #: Every how many session indices a session is also replayed (0: never).
    replay_every = 0

    def setup(self, seed: int, seconds: float, phases: int) -> None:
        raise NotImplementedError

    def run(self, seed: int, first: int, seconds: float,
            recorder: Optional[spans.Recorder]) -> Phase:
        raise NotImplementedError

    def check_output(self, seed: int, result: Any) -> Optional[str]:
        raise NotImplementedError

    def replay(self, seed: int, result: Any) -> Optional[str]:
        return None

    def check(self, seed: int, result: Any) -> Optional[str]:
        reason = self.check_output(seed, result)
        if reason is None and self.replay_every and seed % SEEDS_PER_RUN % self.replay_every == 0:
            reason = self.replay(seed, result)
        return reason

    def throughput(self, phase: Phase, corrected: bool = True) -> float:
        """Passing sessions per second the client spent waiting on units."""
        return phase.passed / phase.unit_s(corrected)


def _sbc_outputs(seed: int, result: Any) -> Optional[str]:
    expected = sorted(f"m{seed}-{index}".encode() for index in range(2))
    if sorted(ast.literal_eval(result.outputs)) != expected:
        return f"seed {seed}: agreed batch {result.outputs} lacks {expected}"
    return None


def _tally(seed: int, result: Any, expected: Dict[str, int]) -> Optional[str]:
    tally = dict(ast.literal_eval(result.outputs))
    if tally != expected:
        return f"seed {seed}: tally {tally} != {expected}"
    return None


def _digest_replay(seed: int, result: Any, runner: Callable[..., Any],
                   **kwargs: Any) -> Optional[str]:
    replay = runner(seed, backend="pooled", **kwargs)
    if not compare_trace_digests(result.digest, replay.digest):
        return f"seed {seed}: digest differs from the pooled replay"
    return None


class SbcComposed(Workload):
    """Corollary 1: ΠSBC over ΠTLE over ΠFBC over ΠUBC, one closed-loop client."""

    name = "sbc-composed"
    replay_every = 50
    kwargs = dict(n=4, mode="composed", phi=5, delta=3, senders=2)

    def _trial(self, seed: int) -> Any:
        return run_sbc_trial(seed, backend="sequential", **self.kwargs)

    def setup(self, seed, seconds, phases):
        for index in range(WARMUP_SESSIONS):
            self._trial(session_seed(seed, WARMUP_OFFSET + index))

    def run(self, seed, first, seconds, recorder):
        return closed_loop(self, self._trial, seed, first, seconds, recorder)

    def check_output(self, seed, result):
        return _sbc_outputs(seed, result)

    def replay(self, seed, result):
        return _digest_replay(seed, result, run_sbc_trial, **self.kwargs)


class VotingHybrid(Workload):
    """Theorem 4's ΠSTVS over ideal FSBC, per-proof checks, sampled nonces."""

    name = "voting-hybrid"
    replay_every = 20
    kwargs = dict(voters=5, mode="hybrid")
    tally = {"yes": 3, "no": 2}

    def _trial(self, seed: int) -> Any:
        return run_voting_trial(seed, backend="sequential", **self.kwargs)

    def setup(self, seed, seconds, phases):
        for index in range(WARMUP_SESSIONS):
            self._trial(session_seed(seed, WARMUP_OFFSET + index))

    def run(self, seed, first, seconds, recorder):
        return closed_loop(self, self._trial, seed, first, seconds, recorder)

    def check_output(self, seed, result):
        return _tally(seed, result, self.tally)

    def replay(self, seed, result):
        return _digest_replay(seed, result, run_voting_trial, **self.kwargs)


class ServeVoting(Workload):
    """Open loop into ``AsyncSessionHost``: waves of 8 sessions every 0.8 s.

    Each wave is one ``serve()`` call on the benchmark's own event loop,
    spending leased slices of the preprocessed pools and batch-verifying
    ballots.  Latency counts from the wave's due time, so a stall is
    charged to every session it delays.  A sampler task on the same loop
    times one probe call every few milliseconds while a wave runs (about
    2% of the loop), and a wave's speed comes from its own samples.
    """

    name = "serve-voting"
    wave = 8
    period_s = 0.8
    #: Seconds between host-speed samples while a wave is in flight.
    sample_every_s = 0.005
    voters = 3
    tally = {"yes": 2, "no": 1}

    def __init__(self) -> None:
        self.recorder: Optional[spans.Recorder] = None
        self.stamps: Dict[int, Tuple[float, float]] = {}
        self.samples: List[Tuple[float, float]] = []
        self.samplers: List[asyncio.Task] = []
        self.inflight = 0

    def waves(self, seconds: float) -> int:
        return max(1, -(-int(seconds * 1000) // int(self.period_s * 1000)))

    def setup(self, seed, seconds, phases):
        timed = phases * self.waves(seconds / phases) * self.wave
        seeds = [session_seed(seed, index) for index in range(timed)]
        seeds += [session_seed(seed, WARMUP_OFFSET + index) for index in range(WARMUP_SESSIONS)]
        MaterialStore().build([TEST_GROUP], nonces=8 * len(seeds), feldman=2 * len(seeds))
        config = SweepConfig(
            backend="async", executor="inline", material="shared",
            online=OnlinePlan.for_tasks(seeds, group=TEST_GROUP), batch_verify=True,
        )
        self.host = AsyncSessionHost(self._session, config=config, voters=self.voters)
        asyncio.run(self.host.serve(seeds[timed:]))

    async def _session(self, seed: int, **kwargs: Any) -> Any:
        start = time.perf_counter()
        session = async_voting_session(seed, **kwargs)
        if self.recorder is None:
            result = await session
        else:
            result = await self.recorder.aspan("session", spans.PROTOCOLS, session, session=seed)
        self.stamps[seed] = (start, time.perf_counter())
        return result

    async def _sample(self) -> None:
        # At least one sample, even if the wave that started this
        # sampler has already failed.
        while True:
            if self.recorder is None:
                _, seconds = probe.probe(0.0)
            else:
                with self.recorder.span("probe", spans.PROBE):
                    _, seconds = probe.probe(0.0)
            self.samples.append((time.perf_counter(), seconds))
            if not self.inflight:
                return
            await asyncio.sleep(self.sample_every_s)

    async def _wave(self, seeds: List[int]) -> Tuple[float, float, Any, Optional[str]]:
        launched = time.perf_counter()
        self.inflight += 1
        if not self.samplers or self.samplers[-1].done():
            self.samplers.append(asyncio.get_running_loop().create_task(self._sample()))
        serve = self.host.serve(seeds)
        report, error = None, None
        try:
            if self.recorder is None:
                report = await serve
            else:
                report = await self.recorder.aspan("wave", spans.LOOP, serve)
        # One failed session fails its whole wave; the wave's sessions are
        # counted as failed and the generator keeps its schedule.
        except Exception as exc:
            error = describe(exc)
        finally:
            self.inflight -= 1
        return launched, time.perf_counter(), report, error

    async def _generate(self, waves: List[List[int]]) -> Tuple[float, List[Any]]:
        loop = asyncio.get_running_loop()
        if self.recorder is not None:
            loop.set_task_factory(self.recorder.task_factory)
        start = time.perf_counter()
        tasks: List[Tuple[float, List[int], Any]] = []
        for index, seeds in enumerate(waves):
            due = start + index * self.period_s
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            tasks.append((due, seeds, loop.create_task(self._wave(seeds))))
        outcomes = [(due, seeds, await task) for due, seeds, task in tasks]
        for sampler in self.samplers:
            await sampler
        return start, outcomes

    def run(self, seed, first, seconds, recorder):
        self.recorder, self.stamps, self.samples, self.samplers = recorder, {}, [], []
        waves = [
            [session_seed(seed, first + index * self.wave + slot) for slot in range(self.wave)]
            for index in range(self.waves(seconds))
        ]
        start, outcomes = asyncio.run(self._generate(waves))
        phase = Phase(batches=[(1, seconds_) for _, seconds_ in self.samples])
        results = []
        for index, (due, seeds, (launched, finished, report, error)) in enumerate(outcomes):
            during = [(1, s) for t, s in self.samples if launched <= t <= finished]
            phase.units.append([finished - launched, probe.speed(during or phase.batches)])
            phase.launches.append((due, launched))
            for position, session in enumerate(seeds):
                if error is not None:
                    phase.add(self, session, None, error, 0.0, index)
                    continue
                entry, exit_ = self.stamps[session]
                result = report.results[position]
                results.append(result)
                phase.requests.append((due, entry, exit_))
                phase.add(self, session, result, None, exit_ - due, index)
        phase.wall_s = max(end for _, _, end in phase.requests) - start
        phase.timed_s = union_s([(launched, finished) for _, _, (launched, finished, _, _)
                                 in outcomes])
        disjoint, spends = online_ranges_disjoint(results)
        if not disjoint or spends != len(results):
            reason = f"pool spends disjoint={disjoint}, {spends} spans for {len(results)} sessions"
            phase.failures.update({result.seed: reason for result in results})
        return phase

    def check_output(self, seed, result):
        return _tally(seed, result, self.tally)

    def throughput(self, phase: Phase, corrected: bool = True) -> float:
        """The achieved rate of the open loop: set by the offered load, so
        not corrected for host speed."""
        return phase.passed / phase.wall_s


@dataclass(frozen=True)
class SweepTrial(TrialResult):
    """A sweep trial plus what its worker measured besides it: a probe
    call's duration on the worker's CPU clock (every
    :data:`SWEEP_PROBE_EVERY`-th seed) and, in the traced pass, the
    traced session's duration on the worker's wall clock and the layer
    totals charged since the worker's previous trial (a worker's first
    trial also carries the pool initializer's material attach)."""

    probe_s: float = 0.0
    traced_s: float = 0.0
    layers: Optional[Dict[str, Any]] = None


#: Every how many seeds a sweep worker probes the host after its trial.
SWEEP_PROBE_EVERY = 25

#: A sweep slows more than its workers' probes when the host takes vCPUs
#: away: its rate goes as the probe speed to this power (least-squares
#: fits over 520 sweeps in two 4-minute windows on the reference host
#: gave 1.34 and 1.36).  A hand-off between the parent and a worker waits,
#: with no process's CPU clock running, while the other side's vCPU is
#: preempted, and a probe inside one process cannot see that wait.
SWEEP_SPEED_EXPONENT = 1.35


def sweep_trial(seed: int, **kwargs: Any) -> SweepTrial:
    """The sweep workload's runner: one ``run_sbc_trial`` plus the worker-side
    measurements.  Module-level so process pools can pickle it; forked
    workers inherit the traced pass's wrappers and recorder."""
    recorder = spans.active()
    traced_s, layers = 0.0, None
    if recorder is None:
        result = run_sbc_trial(seed, **kwargs)
    else:
        begin = time.perf_counter()
        with recorder.span("session", spans.PROTOCOLS, session=seed):
            result = run_sbc_trial(seed, **kwargs)
        traced_s = time.perf_counter() - begin
        layers = recorder.snapshot()
        recorder.reset()
    probe_s = probe.probe(0.0, time.thread_time)[1] if seed % SWEEP_PROBE_EVERY == 0 else 0.0
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(TrialResult)}
    return SweepTrial(**fields, probe_s=probe_s, traced_s=traced_s, layers=layers)


class SweepSbc(Workload):
    """Closed loop of ``ParallelSweep`` process sweeps of tiny hybrid SBC sessions.

    A sweep's speed comes from the probes its own workers ran (raised to
    :data:`SWEEP_SPEED_EXPONENT`), so it measures the vCPUs while the
    sweep used them.  The probes read the
    workers' CPU clocks, which stop while the sweep's parent process
    holds a worker's vCPU: work the parent adds (dispatch, result
    collection, supervision) slows the sweep without slowing the probe,
    so it is not corrected away.
    """

    name = "sweep-sbc"
    replay_every = 200
    tasks = 4000
    kwargs = dict(n=4, mode="hybrid", senders=2)
    config = SweepConfig(backend="batched", executor="process", workers=2, material="shared")

    def setup(self, seed, seconds, phases):
        warm = [session_seed(seed, WARMUP_OFFSET + index) for index in range(WARMUP_SESSIONS)]
        ParallelSweep(sweep_trial, config=self.config, **self.kwargs).run(warm)

    def run(self, seed, first, seconds, recorder):
        sweep = ParallelSweep(sweep_trial, config=self.config, **self.kwargs)
        phase = Phase()
        index = first
        start = ready = time.perf_counter()
        deadline = start + seconds
        while ready < deadline:
            seeds = [session_seed(seed, index + offset) for offset in range(self.tasks)]
            index += self.tasks
            begin = time.perf_counter()
            report, error = None, None
            try:
                if recorder is None:
                    report = sweep.run(seeds)
                else:
                    # The parent only waits here; the workers' own recorders
                    # report the layer time.
                    with recorder.span("sweep", "runtime.sweep"):
                        report = sweep.run(seeds)
            except Exception as exc:
                error = describe(exc)
            end = time.perf_counter()
            unit = len(phase.units)
            results = {result.seed: result for result in report.results} if report else {}
            probes = [r.probe_s for r in results.values() if r.probe_s]
            phase.batches.extend((1, seconds_) for seconds_ in probes)
            workers = report.workers if report else 1
            speed = probe.speed([(1, s) for s in probes]) ** SWEEP_SPEED_EXPONENT if probes else 1.0
            phase.units.append([end - begin - sum(probes) / workers, speed])
            phase.requests.append((ready, begin, end))
            phase.launches.append((ready, begin))
            for session in seeds:
                result = results.get(session)
                reason = error or (None if result else "quarantined by the supervisor")
                phase.add(self, session, result, reason,
                          result.wall_time_s if result else 0.0, unit)
            if recorder is not None and results:
                layers = [result.layers for result in results.values()]
                totals = None if None in layers else merge_totals(layers)
                phase.layers.append(totals)
                if totals is not None:
                    # The workers' material attaches run before any trial,
                    # outside the trials' own clocks.
                    attach_s = totals["spans"].get("attach", (0, 0.0))[1]
                    phase.timed_s += attach_s + sum(r.traced_s for r in results.values())
            if report is not None:
                phase.sweeps.append(SweepStat(
                    report.workers, report.wall_time_s,
                    sum(r.wall_time_s for r in results.values()), report.chunksize,
                    report.supervision or {},
                ))
            ready = time.perf_counter()
        phase.wall_s = ready - start
        return phase

    def throughput(self, phase: Phase, corrected: bool = True) -> float:
        """The median sweep's rate: its passing sessions per (corrected)
        second.  A sweep the host slowed more than its probes saw moves
        the median less than it would move a run-wide ratio."""
        passed = Counter(phase.latency_unit)
        return statistics.median(
            passed[index] / (raw * (speed if corrected else 1.0))
            for index, (raw, speed) in enumerate(phase.units)
        )

    def check_output(self, seed, result):
        return _sbc_outputs(seed, result)

    def replay(self, seed, result):
        inline = run_sbc_trial(seed, backend="batched", **self.kwargs)
        if inline.outputs != result.outputs:
            return f"seed {seed}: sweep outputs differ from an inline batched run"
        return None


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    workload.name: workload for workload in (SbcComposed, VotingHybrid, ServeVoting, SweepSbc)
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: List[float], fraction: float) -> float:
    """Inclusive-method quantile (no extrapolation past the samples)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload: Workload, phase: Phase, corrected: bool = True) -> Dict[str, float]:
    # Read the peak first: the latency list built below is the
    # benchmark's analysis, not the workload's footprint.
    rss = peak_rss_mb()
    latencies = phase.latency_s(corrected)
    return {
        "sessions_per_s": workload.throughput(phase, corrected),
        "session_p50_ms": 1e3 * statistics.median(latencies),
        "session_p95_ms": 1e3 * percentile(latencies, 0.95),
        "peak_rss_mb": rss,
    }


#: Per-session self-time metrics and the layer each one reads.  Together
#: they must account for all traced session time, as the load generator
#: clocks it (``bench.partition_error_frac``).
TIME_METRICS: Dict[str, str] = {
    "crypto.exp.ms_per_session": "crypto.exp",
    "crypto.multi_exp.ms_per_session": "crypto.multi_exp",
    "crypto.zkp.ms_per_session": "crypto.zkp",
    "crypto.batch.ms_per_session": "crypto.batch",
    "crypto.hashing.ms_per_session": "crypto.hashing",
    "tle.puzzle.ms_per_session": "tle.puzzle",
    "uc.trace.record_ms_per_session": "uc.trace.record",
    "uc.trace.digest_ms_per_session": "uc.trace.digest",
    "uc.encoding.ms_per_session": "uc.encoding",
    "runtime.driver.ms_per_session": "runtime.driver",
    "runtime.scheduler.ms_per_session": "runtime.scheduler",
    "runtime.aio.host_ms_per_session": spans.LOOP,
    "runtime.material.ms_per_session": "runtime.material",
    "protocols.other_ms_per_session": spans.PROTOCOLS,
}

#: Per-session count metrics and the counter each one reads.
COUNT_METRICS: Dict[str, str] = {
    "crypto.exp.calls_per_session": "crypto.exp.calls",
    "crypto.multi_exp.calls_per_session": "crypto.multi_exp.calls",
    "crypto.is_member.calls_per_session": "crypto.is_member.calls",
    "crypto.zkp.calls_per_session": "crypto.zkp.calls",
    "crypto.batch.items_per_session": "crypto.batch.items",
    "crypto.hashing.calls_per_session": "crypto.hashing.calls",
    "tle.puzzle.steps_per_session": "tle.puzzle.steps",
    "uc.trace.events_per_session": "uc.trace.events",
    "uc.encoding.calls_per_session": "uc.encoding.calls",
    "uc.metrics.ro_queries_per_session": "uc.metrics.ro_queries",
    "runtime.scheduler.drains_per_session": "runtime.scheduler.drains",
}


def merge_totals(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum recorder snapshots (sweep worker trials, then sweeps)."""
    merged: Dict[str, Any] = {"self_s": {}, "counts": {}, "spans": {}}
    for part in parts:
        for key in ("self_s", "counts"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, (count, seconds) in part["spans"].items():
            total = merged["spans"].setdefault(name, [0, 0.0])
            total[0] += count
            total[1] += seconds
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(untraced: Phase, traced: Phase, totals: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric, from the traced phase's layer totals.

    Times are scaled by the host speed of the phase they come from.
    Latency stamps and sweep/supervisor figures come from the untraced
    phase, where no wrapper slows the loop they describe.
    """
    sessions = traced.attempted
    ms = 1e3 * traced.speed()
    untraced_ms = 1e3 * untraced.speed()
    self_s, counts, span_totals = totals["self_s"], totals["counts"], totals["spans"]
    metrics = {name: ms * self_s.get(layer, 0.0) / sessions for name, layer in TIME_METRICS.items()}
    metrics.update({name: counts.get(key, 0) / sessions for name, key in COUNT_METRICS.items()})
    rounds, round_s = span_totals.get("round", (0, 0.0))
    attaches, attach_s = span_totals.get("attach", (0, 0.0))
    sweeps = untraced.sweeps
    supervision = [sweep.supervision for sweep in sweeps]
    pool_s = sum(sweep.workers * sweep.wall_s for sweep in sweeps)
    task_s = sum(sweep.task_s for sweep in sweeps)
    untraced_p50 = statistics.median(untraced.latency_s())
    traced_p50 = statistics.median(traced.latency_s())
    metrics.update({
        "crypto.batch.fallback_ratio": _ratio(counts.get("crypto.batch.fallback", 0),
                                              counts.get("crypto.batch.items", 0)),
        "uc.metrics.messages_per_session": traced.messages / traced.passed,
        "uc.metrics.rounds_per_session": traced.rounds / traced.passed,
        "runtime.driver.round_ms": ms * _ratio(round_s, rounds),
        "runtime.aio.queue_wait_p50_ms": untraced_ms * statistics.median(
            [start - due for due, start, _ in untraced.requests]),
        "runtime.aio.exec_p50_ms": untraced_ms * statistics.median(
            [end - start for _, start, end in untraced.requests]),
        "runtime.aio.gen_late_p95_ms": untraced_ms * percentile(
            [issued - due for due, issued in untraced.launches], 0.95),
        "runtime.material.attach_ms_per_host": ms * _ratio(attach_s, attaches),
        "runtime.material.nonces_per_session": traced.nonces_spent / traced.passed,
        "runtime.material.pool_hit_ratio": _ratio(
            traced.nonces_spent, traced.nonces_spent + traced.nonces_sampled),
        "runtime.sweep.dispatch_overhead_frac": 1.0 - task_s / pool_s if pool_s else 0.0,
        "runtime.sweep.chunksize": statistics.median([r.chunksize for r in sweeps] or [0]),
        "runtime.supervisor.retries": sum(int(s.get("retries", 0)) for s in supervision),
        "runtime.supervisor.respawns": sum(int(s.get("respawns", 0)) for s in supervision),
        "runtime.supervisor.quarantined": sum(int(s.get("quarantined", 0)) for s in supervision),
        "bench.trace_overhead_frac": (traced_p50 - untraced_p50) / untraced_p50,
    })
    # The recorder's self times against the generator's own clocks; the
    # serve sampler's probes are instrument time and left out of both.
    attributed = sum(self_s.get(layer, 0.0) for layer in TIME_METRICS.values())
    timed_s = traced.timed_s - self_s.get(spans.PROBE, 0.0)
    metrics["bench.partition_error_frac"] = abs(attributed - timed_s) / timed_s
    return metrics


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, t0: float,
                 setup_only: bool = False, out: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """Set up and run one workload; return the result record."""
    workload = WORKLOADS[name]()
    workload.setup(seed, seconds, 2 if trace else 1)
    raw_setup_s = time.monotonic() - t0
    setup_speed = probe.speed([probe.probe(SETUP_PROBE_S)])
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace),
        "setup_s": raw_setup_s * setup_speed, "raw_setup_s": raw_setup_s,
        "arith": get_arith_backend().name, "python": platform.python_version(),
    }
    if setup_only:
        return record
    if not trace:
        phases = [workload.run(seed, 0, seconds, None)]
    else:
        untraced = workload.run(seed, 0, seconds / 2, None)
        recorder = spans.Recorder()
        with spans.instrumented(recorder):
            traced = workload.run(seed, untraced.attempted, seconds / 2, recorder)
        phases = [untraced, traced]
    failures = {seed_: reason for phase in phases for seed_, reason in phase.failures.items()}
    record.update(
        attempted=sum(phase.attempted for phase in phases),
        failed=len(failures),
        errors=sorted(set(failures.values()))[:MAX_ERRORS],
        metrics={},
    )
    if not all(phase.passed for phase in phases):
        return record
    record["host_speed"] = probe.speed([batch for phase in phases for batch in phase.batches])
    if not trace:
        record["metrics"] = end_to_end(workload, phases[0])
        record["raw"] = end_to_end(workload, phases[0], corrected=False)
        return record
    if isinstance(workload, SweepSbc):
        if None in traced.layers:
            raise RuntimeError("sweep workers returned no layer totals (not forked with the wrappers?)")
        totals = merge_totals(traced.layers)
    else:
        totals = recorder.snapshot()
    record["metrics"] = layer_metrics(untraced, traced, totals)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        recorder.write_spans(out / f"{name}.spans.jsonl")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    if not os.environ.get("REPRO_MATERIAL_DIR"):
        parser.error("REPRO_MATERIAL_DIR must name a scratch directory for the material store")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.t0,
                          setup_only=args.setup_only, out=args.out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
