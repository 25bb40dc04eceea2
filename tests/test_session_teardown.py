"""A finished session is freed by reference counting alone.

Every session is one strongly connected object graph while it runs
(session -> parties -> routing closures -> parties, clock <-> session,
adversary <-> session).  :meth:`Session.close` unwires it, and each
trial runner calls it once the result is built, so a sweep of thousands
of sessions leaves nothing for the cyclic garbage collector to find.
"""

import asyncio
import gc

import pytest

from repro.core.stacks import build_sbc_stack
from repro.runtime import run_sbc_trial, run_voting_trial, trace_digest
from repro.runtime.pool import async_sbc_session
from repro.scenarios import default_matrix
from repro.scenarios.runner import run_scenario_trial

SCENARIO_SPECS = [
    spec for spec in default_matrix().expand() if spec.stack == "sbc-composed"
][:1]

TRIALS = {
    **{
        f"sbc-{mode}": (lambda mode=mode: run_sbc_trial(3, mode=mode))
        for mode in ("ideal", "hybrid", "composed")
    },
    **{
        f"voting-{mode}": (lambda mode=mode: run_voting_trial(3, mode=mode))
        for mode in ("ideal", "hybrid", "composed")
    },
    "async-sbc": lambda: asyncio.run(async_sbc_session(3)),
    "scenario-cell": lambda: run_scenario_trial(0, SCENARIO_SPECS),
}


@pytest.mark.parametrize("trial", list(TRIALS.values()), ids=list(TRIALS))
def test_a_finished_trial_leaves_no_cyclic_garbage(trial):
    trial()  # first run fills the per-process caches
    gc.collect()
    gc.disable()
    try:
        trial()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_closed_session_keeps_its_record():
    stack = build_sbc_stack(n=3, mode="hybrid", seed=5)
    stack.parties["P0"].broadcast(b"m")
    stack.run_until_delivery()
    session = stack.session
    session.corrupt("P2")
    digest = trace_digest(session.log)
    metrics = dict(session.metrics.counters)
    time = session.clock.time

    session.close()
    session.close()  # idempotent

    assert trace_digest(session.log) == digest
    assert dict(session.metrics.counters) == metrics
    assert session.is_corrupted("P2") and not session.is_corrupted("P0")
    assert session.clock.time == time
    assert session.parties == {} and session.functionalities == {}
    assert session.honest_parties == {}
    assert session.adversary.session is None
    assert all(not party.route for party in stack.parties.values())
    assert all(not party.clock_recipients for party in stack.parties.values())
