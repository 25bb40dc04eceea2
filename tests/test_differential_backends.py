"""Cross-backend differential testing: every builder, every backend.

Each stack builder in :mod:`repro.core.stacks` runs one canonical script
under every registered backend.  The ``sequential`` run is the golden
reference: ``pooled`` and the round-yielding ``async`` driver must match
it digest-for-digest (via the guarded
:func:`~repro.runtime.pool.compare_trace_digests`, so a vacuous
empty-vs-empty comparison can never slip through), and ``batched``
(trace-off) must reproduce its protocol outputs exactly; with its trace
switched back on, ``batched`` must match the golden digests too.
Dolev–Strong is the one driver whose messages go through the session's
:class:`~repro.runtime.scheduler.BatchScheduler`, so it is where a
backend's drain order would show.
"""

import pytest

from repro.core import (
    build_durs_stack,
    build_sbc_stack,
    build_tle_stack,
    build_voting_stack,
)
from repro.crypto.batch import BatchPolicy, batching
from repro.crypto.groups import (
    available_arith_backends,
    get_arith_backend,
    set_arith_backend,
)
from repro.protocols.dolev_strong import make_dolev_strong_instance
from repro.runtime import (
    TraceDigestUnavailable,
    available_backends,
    compare_trace_digests,
    get_backend,
    trace_digest,
)
from repro.uc.environment import Environment
from repro.uc.session import Session

BACKENDS = sorted(available_backends())


def _drive_sbc(backend, mode="hybrid", **params):
    stack = build_sbc_stack(n=4, mode=mode, seed=11, backend=backend, **params)
    stack.parties["P0"].broadcast(b"diff-a")
    stack.parties["P1"].broadcast(b"diff-b")
    stack.run_until_delivery()
    return stack.session, stack.delivered()


def _drive_sbc_hybrid(backend):
    return _drive_sbc(backend, mode="hybrid", phi=4, delta=2)


def _drive_sbc_composed(backend):
    # Corollary 1 minima: the composed TLE advantage needs Φ > 3, ∆ ≥ 3.
    return _drive_sbc(backend, mode="composed")


def _drive_tle(backend):
    stack = build_tle_stack(n=3, mode="hybrid", seed=12, backend=backend)
    stack.enc("P0", b"diff-secret", 8)
    stack.run_rounds(8)
    triples = stack.parties["P0"].retrieve()
    outputs = {"triples": [(m, t) for m, _c, t in triples]}
    _m, ciphertext, _t = triples[0]
    outputs["dec"] = {
        pid: stack.dec(pid, ciphertext, 8) for pid in ("P0", "P1", "P2")
    }
    return stack.session, outputs


def _drive_durs(backend):
    stack = build_durs_stack(n=4, mode="hybrid", seed=13, backend=backend)
    for pid in stack.parties:
        stack.parties[pid].urs_request()
    stack.run_until_urs()
    return stack.session, stack.urs_values()


def _drive_voting(backend):
    stack = build_voting_stack(voters=3, mode="hybrid", seed=14, backend=backend)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    for index, candidate in enumerate(("yes", "no", "yes")):
        stack.parties[f"V{index}"].vote(candidate)
    stack.run_until_result()
    return stack.session, stack.results()


def _drive_dolev_strong(backend):
    t = 3
    session = Session(seed=15, backend=backend)
    parties = make_dolev_strong_instance(
        session, [f"P{i}" for i in range(5)], "P0", t=t
    )
    env = Environment(session)
    for party in parties.values():
        party.arm(0)
    parties["P0"].broadcast(b"diff-ds")
    env.run_rounds(t + 2)
    return session, {pid: party.outputs for pid, party in parties.items()}


DRIVERS = {
    "dolev-strong": _drive_dolev_strong,
    "sbc-hybrid": _drive_sbc_hybrid,
    "sbc-composed": _drive_sbc_composed,
    "tle-hybrid": _drive_tle,
    "durs-hybrid": _drive_durs,
    "voting-hybrid": _drive_voting,
}


@pytest.fixture(scope="module")
def golden():
    """Sequential reference run per builder: (digest, outputs)."""
    results = {}
    for name, driver in DRIVERS.items():
        session, outputs = driver("sequential")
        results[name] = (trace_digest(session.log), outputs)
    return results


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_pooled_matches_sequential_golden(name, golden):
    reference_digest, reference_outputs = golden[name]
    session, outputs = DRIVERS[name]("pooled")
    assert compare_trace_digests(trace_digest(session.log), reference_digest)
    assert outputs == reference_outputs


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_async_matches_sequential_golden(name, golden):
    """The async driver's core contract: byte-identical event traces.

    It runs the sequential round body and only adds a yield between
    rounds, so every builder's canonical script must digest-equal the
    sequential reference, seed for seed.
    """
    reference_digest, reference_outputs = golden[name]
    session, outputs = DRIVERS[name]("async")
    assert compare_trace_digests(trace_digest(session.log), reference_digest)
    assert outputs == reference_outputs


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_batched_matches_sequential_outputs(name, golden):
    reference_digest, reference_outputs = golden[name]
    session, outputs = DRIVERS[name]("batched")
    assert outputs == reference_outputs
    # The trace is off: the digest comparison must refuse, not pass.
    assert trace_digest(session.log) == ""
    second_session, _ = DRIVERS[name]("batched")
    with pytest.raises(TraceDigestUnavailable):
        compare_trace_digests(
            trace_digest(session.log), trace_digest(second_session.log)
        )


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_batched_full_trace_matches_sequential_golden(name, golden):
    """``batched`` is the reference engine with the trace off: turning the
    trace back on must reproduce the sequential golden digest."""
    reference_digest, reference_outputs = golden[name]
    session, outputs = DRIVERS[name](get_backend("batched").with_trace("full"))
    assert compare_trace_digests(trace_digest(session.log), reference_digest)
    assert outputs == reference_outputs


def test_every_registered_backend_is_covered():
    """New backends must be added to this differential suite knowingly."""
    assert BACKENDS == ["async", "batched", "pooled", "sequential"], (
        "a backend was registered without extending the differential tests"
    )


# ---------------------------------------------------------------------------
# Orthogonal seams: arithmetic tier and batch verification must be
# digest-invariant against the same golden references.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arith", available_arith_backends())
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_arith_backends_reproduce_golden_digests(name, arith, golden):
    """Every arithmetic tier must be byte-invisible in traces and outputs."""
    reference_digest, reference_outputs = golden[name]
    before = get_arith_backend().name
    set_arith_backend(arith)
    try:
        session, outputs = DRIVERS[name]("sequential")
    finally:
        set_arith_backend(before)
    assert compare_trace_digests(trace_digest(session.log), reference_digest)
    assert outputs == reference_outputs


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_batched_verification_reproduces_golden_digests(name, golden):
    """A silent batching policy (record_trace=False) is digest-neutral.

    Verification routes through one RLC multi-exp per round instead of
    per-item checks, yet the trace and outputs stay byte-identical to the
    per-item golden run — the correctness contract that lets ``verify()``
    cross-check batched sweeps against inline references.
    """
    reference_digest, reference_outputs = golden[name]
    with batching(BatchPolicy(record_trace=False)):
        session, outputs = DRIVERS[name]("sequential")
    assert compare_trace_digests(trace_digest(session.log), reference_digest)
    assert outputs == reference_outputs
