"""The paper's cost units for Corollary 1 sessions, pinned over 60 seeds.

Corollary 1 stacks ΠSBC over ΠTLE over ΠFBC over ΠUBC.  Making its round
cheaper must not change what a round computes: the trace, the outputs,
the rounds, the messages and every ``Session.metrics`` counter (random
oracle queries per oracle and per querier, oracle batches and points,
signature operations) have to stay exactly what they were.

Each pin below is one SHA-256 over, per seed in order, the session's
trace digest, agreed output, rounds, messages, sorted counters and the
final state of the session RNG (so every draw is pinned too).  The
constants were recorded before the round was optimised; a change that
moves one of them changes a paper cost unit or the execution itself.

Two shapes are covered, matching the benchmark workloads that run these
protocols:

* ``composed``: n=4, Φ=5, ∆=3, two senders, ``sequential`` backend (the
  full Corollary 1 composition with a recorded trace);
* ``hybrid``: n=4, two senders, ``batched`` backend (light trace, so
  the digest part is empty and the counters carry the pin).
"""

import hashlib

import pytest

from repro.core import build_sbc_stack
from repro.core.stacks import session_timing
from repro.runtime import trace_digest

SEEDS = range(60)

PINS = {
    "composed": "a0faecab69f105872704dae2945a14024447f7415ac9e144373df0e3ed885ac3",
    "hybrid": "5c69cb5ac6bdc5333c4cdc8ed876b11dc4f0cdf08658e89209faf142b5596e04",
}

SHAPES = {
    "composed": dict(n=4, mode="composed", phi=5, delta=3, backend="sequential"),
    "hybrid": dict(n=4, mode="hybrid", backend="batched"),
}


def _session_record(seed, n, mode, backend, phi=None, delta=None, senders=2):
    phi, delta = session_timing(mode, phi, delta)
    stack = build_sbc_stack(n=n, mode=mode, seed=seed, phi=phi, delta=delta, backend=backend)
    for index in range(senders):
        stack.parties[f"P{index % n}"].broadcast(f"m{seed}-{index}".encode())
    stack.run_until_delivery()
    session = stack.session
    outputs = sorted(
        (pid, repr(view))
        for pid, view in stack.delivered().items()
        if not session.is_corrupted(pid)
    )
    counters = sorted(session.metrics.counters.items())
    return repr(
        (
            seed,
            trace_digest(session.log),
            outputs,
            session.metrics.get("rounds.advanced"),
            session.metrics.get("messages.total"),
            counters,
            session.rng.getstate(),
        )
    )


def shape_digest(shape):
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(_session_record(seed, **SHAPES[shape]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cost_units_match_the_recorded_pin(shape):
    assert shape_digest(shape) == PINS[shape]


def test_pinned_sessions_deliver_both_messages():
    """The pin covers sessions that did their job, not failed ones."""
    for shape in SHAPES:
        record = _session_record(0, **SHAPES[shape])
        assert "m0-0" in record and "m0-1" in record
