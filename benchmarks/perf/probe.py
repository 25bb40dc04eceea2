"""Host-speed probe: a fixed, stdlib-only task timed next to every measurement.

The benchmark runs on VMs whose vCPUs the hypervisor preempts.  The guest
counts preempted time as running time, so wall and CPU clocks stretch
alike while the host is busy.  On the 2-vCPU reference host, :func:`work`
timed in 0.25 s windows has an interquartile range of 11% of its median,
with dips of 30% lasting seconds, and 20-second runs of a workload spread
by 9–16%.  Every timing the benchmark reports is therefore multiplied by
the host's *speed* measured next to it: :data:`REFERENCE_S` over the
probe's duration at that time (1.0 at the reference host's median speed,
below 1 while the host takes the CPU away).  Corrected timings read as
if taken on the reference host at its median speed; the raw ones are
kept in each run's record.

The probe imports nothing from the repository, so no change to the
program can speed it up or slow it down.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Callable

#: Median duration of one :func:`work` call on the reference host (2 vCPU
#: Intel Xeon at 2.1 GHz, CPython 3.11.7), measured over 20 000 calls.
REFERENCE_S = 1.0e-4

#: Probe time spent after each measured unit, as a share of its duration.
BUDGET = 0.03

_BLOCK = bytes(range(256)) * 4
_MODULUS = (1 << 127) - 1


def work() -> int:
    """The fixed task: an interpreter loop, a SHA-256 and a modular power."""
    x = 0
    for i in range(300):
        x = (x * 31 + i) % 1_000_003
    digest = hashlib.sha256(_BLOCK).digest()
    return x + pow(3, int.from_bytes(digest, "big"), _MODULUS)


def probe(seconds: float, clock: "Callable[[], float]" = time.perf_counter) -> "tuple[int, float]":
    """Run :func:`work` for about ``seconds`` (at least once); return the
    batch as ``(calls, mean seconds per call)`` on ``clock``.

    ``time.thread_time`` suits a process that shares the vCPUs with
    others of the benchmark: this guest counts the hypervisor's
    preemption as running time, so the thread's CPU clock still sees the
    host slow down, but it stops while another process of the guest
    holds the vCPU.
    """
    calls = max(1, math.ceil(seconds / REFERENCE_S))
    start = clock()
    for _ in range(calls):
        work()
    return calls, (clock() - start) / calls


def speed(batches: "list[tuple[int, float]]") -> float:
    """Host speed from ``(calls, mean seconds per call)`` probe batches."""
    calls = sum(count for count, _ in batches)
    return REFERENCE_S * calls / sum(count * mean for count, mean in batches)
