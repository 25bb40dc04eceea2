"""The paper's cost units for ΠSTVS elections, pinned over many seeds.

Theorem 4's self-tallying election is bound by group arithmetic, and the
exponentiation layer is free to take shortcuts (fixed-base tables, known
discrete logs, folded simulated branches) only as long as every value it
returns is the one ``pow`` would have returned.  This pin holds that
contract at the protocol level: the trace, the tallies, the rounds, the
messages, every ``Session.metrics`` counter (proof verdicts checked and
shared, RLC evaluations, membership screens, signature operations) and
the final session RNG state (so every nonce and simulated-branch draw)
have to stay exactly what they were.

Each pin below is one SHA-256 over, per seed in order, the session's
trace digest, honest tallies, rounds, messages, sorted counters and
final RNG state.  The constants were recorded before exponentiation
learned to use known discrete logs; a change that moves one of them
changes a paper cost unit or the execution itself.

Three shapes are covered, matching the benchmark workloads and the
composed application:

* ``hybrid``: 5 voters over ideal FSBC, ``sequential`` backend,
  per-proof checks (the ``voting-hybrid`` workload), seeds 0–59;
* ``serve``: 3 voters over ideal FSBC, ``async`` backend, ballots
  screened through one default :class:`BatchPolicy` batch (the
  ``serve-voting`` workload's verification path), seeds 0–59;
* ``composed``: 3 voters over the full Corollary 1 SBC stack, seeds 0–3.
"""

import hashlib

import pytest

from repro.core.stacks import build_voting_stack
from repro.crypto.batch import BatchPolicy, batching
from repro.runtime import trace_digest

CANDIDATES = ("yes", "no")

PINS = {
    "composed": "f0df3af375550c3d330178d2c5d98e90d27c6a2d68582aa7d2123f902b982ee3",
    "hybrid": "6ea1f6a688a273a5bc98b0b15c0c153a3344c61711964d87db4f011963b8e90f",
    "serve": "114e325e4099d916450150a5e10502d5d005ac12c5c9c0c4b66706b23854aaba",
}

SHAPES = {
    "hybrid": dict(voters=5, mode="hybrid", backend="sequential", batch=None, seeds=range(60)),
    "serve": dict(voters=3, mode="hybrid", backend="async", batch=BatchPolicy(), seeds=range(60)),
    "composed": dict(voters=3, mode="composed", backend="sequential", batch=None, seeds=range(4)),
}


def _session_record(seed, voters, mode, backend, batch):
    with batching(batch):
        stack = build_voting_stack(
            voters=voters, mode=mode, seed=seed, candidates=CANDIDATES, backend=backend
        )
        for authority in stack.authorities.values():
            authority.deal()
        stack.env.driver.run_rounds(1)
        for index in range(voters):
            stack.parties[f"V{index}"].vote(CANDIDATES[index % len(CANDIDATES)])
        stack.run_until_result()
    session = stack.session
    tallies = sorted(
        (pid, repr(tally))
        for pid, tally in stack.results().items()
        if not session.is_corrupted(pid)
    )
    counters = sorted(session.metrics.counters.items())
    return repr(
        (
            seed,
            trace_digest(session.log),
            tallies,
            session.metrics.get("rounds.advanced"),
            session.metrics.get("messages.total"),
            counters,
            session.rng.getstate(),
        )
    )


def shape_digest(shape):
    spec = dict(SHAPES[shape])
    seeds = spec.pop("seeds")
    h = hashlib.sha256()
    for seed in seeds:
        h.update(_session_record(seed, **spec).encode())
    return h.hexdigest()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cost_units_match_the_recorded_pin(shape):
    assert shape_digest(shape) == PINS[shape]


def test_pinned_sessions_tally_every_ballot():
    """The pin covers elections that tallied, not failed ones."""
    for shape, spec in SHAPES.items():
        spec = {key: value for key, value in spec.items() if key != "seeds"}
        record = _session_record(0, **spec)
        voters = spec["voters"]
        expected = repr({"yes": voters - voters // 2, "no": voters // 2})
        assert record.count(expected) == voters, shape
