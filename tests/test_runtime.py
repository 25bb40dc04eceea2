"""Tests for the pluggable execution runtime.

Covers the runtime's three contracts:

* the default (``sequential``) backend reproduces the pre-runtime engine
  **byte for byte** — pinned against golden trace digests captured from
  the seed engine before the runtime extraction;
* every full-trace backend (``sequential``, ``pooled``, ``async``)
  produces *identical* event traces for any fixed seed — one round body,
  whose two shortcuts are pinned against pre-fold digests;
* :class:`~repro.runtime.pool.SessionPool` sweeps are deterministic and
  complete across >= 32 seeds.

Plus unit coverage for the scheduler policies, the backend registry, the
session topology caches and the accelerated group arithmetic.
"""

import random

import pytest

from repro.core import RepeatedSBC, build_sbc_stack, build_voting_stack
from repro.crypto.groups import GROUP_2048, TEST_GROUP, SchnorrGroup
from repro.runtime import (
    BatchScheduler,
    SequentialRoundDriver,
    SessionPool,
    SweepConfig,
    available_backends,
    get_backend,
    run_sbc_trial,
    trace_digest,
)
from repro.uc.entity import Party
from repro.uc.session import Session
from tests.test_adaptive_sbc import CorruptAtRound

# ---------------------------------------------------------------------------
# Golden digests: captured from the seed engine (commit 0dc83b5) before the
# runtime extraction.  The default backend must reproduce them forever.
# ---------------------------------------------------------------------------

GOLDEN_SBC_COMPOSED = {
    0: "9f53833c36cc9c2a182e7e2980bc70f316c3b02914647e96833cb1e817495add",
    1: "34ae70ec8b5902925721304333aaa85e325feb76930fc9ae1a462e1dc0e8a85c",
    7: "e257058c58c0e0268f5d98004e0954c428fc9e3b210e0970e333685d7890ba5b",
}
GOLDEN_SBC_HYBRID_SEED5 = (
    "65fca327855e32b290cebe6612eb30adcaf320a26e4766408cf2e83e003667cc"
)
# Re-derived when trace_digest moved from repr to canonical_detail: the
# voting trace carries the tally as a dict, whose repr depends on
# insertion order (the non-canonical rendering the digest fix removes).
# The underlying event trace is unchanged — only that dict's rendering is
# now sorted; the SBC goldens above were unaffected (tuple-only details).
GOLDEN_VOTING_HYBRID_SEED3 = (
    "f4297794b2609f4281fe15fb8c19b7ba798a22e7bb6798bd28e87373a8c89af7"
)


def _run_sbc(seed: int, mode: str = "composed", backend=None, **kwargs):
    stack = build_sbc_stack(n=4, mode=mode, seed=seed, backend=backend, **kwargs)
    stack.parties["P0"].broadcast(b"m0")
    stack.parties["P1"].broadcast(b"m1")
    stack.run_until_delivery()
    return stack


@pytest.mark.parametrize("seed", sorted(GOLDEN_SBC_COMPOSED))
def test_default_backend_matches_pre_runtime_engine(seed):
    stack = _run_sbc(seed)
    assert trace_digest(stack.session.log) == GOLDEN_SBC_COMPOSED[seed]


def test_default_backend_golden_hybrid_and_voting():
    stack = build_sbc_stack(n=3, mode="hybrid", seed=5, phi=4, delta=2)
    stack.parties["P0"].broadcast(b"x")
    stack.run_until_delivery()
    assert trace_digest(stack.session.log) == GOLDEN_SBC_HYBRID_SEED5

    voting = build_voting_stack(voters=3, mode="hybrid", seed=3)
    for authority in voting.authorities.values():
        authority.deal()
    voting.run_rounds(1)
    for index, candidate in enumerate(("yes", "no", "yes")):
        voting.parties[f"V{index}"].vote(candidate)
    voting.run_until_result()
    assert trace_digest(voting.session.log) == GOLDEN_VOTING_HYBRID_SEED3
    assert voting.results()["V0"] == {"yes": 2, "no": 1}


# ---------------------------------------------------------------------------
# Determinism regression: sequential vs pooled backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_sequential_and_pooled_traces_identical(seed):
    sequential = _run_sbc(seed, backend="sequential")
    pooled = _run_sbc(seed, backend="pooled")
    assert trace_digest(sequential.session.log) == trace_digest(pooled.session.log)
    assert sequential.delivered() == pooled.delivered()


def test_sequential_and_pooled_traces_identical_voting():
    digests = []
    for backend in ("sequential", "pooled"):
        stack = build_voting_stack(voters=3, mode="hybrid", seed=9, backend=backend)
        for authority in stack.authorities.values():
            authority.deal()
        stack.run_rounds(1)
        for index, candidate in enumerate(("no", "no", "yes")):
            stack.parties[f"V{index}"].vote(candidate)
        stack.run_until_result()
        digests.append(trace_digest(stack.session.log))
    assert digests[0] == digests[1]


def test_batched_backend_same_outputs_lighter_trace():
    sequential = _run_sbc(2, backend="sequential")
    batched = _run_sbc(2, backend="batched")
    assert batched.delivered() == sequential.delivered()
    assert len(batched.session.log) == 0  # light trace: no events kept
    # Deterministic: a second batched run delivers identically.
    again = _run_sbc(2, backend="batched")
    assert again.delivered() == batched.delivered()


# ---------------------------------------------------------------------------
# The round body's two shortcuts (the activation list cached per topology
# epoch, the no-op adversary hook skipped) pinned against digests recorded
# on ``sequential`` before the drivers were folded into one round body.
# ---------------------------------------------------------------------------

FULL_TRACE_BACKENDS = ("sequential", "pooled", "async")
PIN_REORDERED = "b95586addcc4e1bdf8ebfd29fccd82143cd78c370000ce22a4a92be8f4068355"
PIN_HOOK_CORRUPTS = "6dfe3e3157bc739a67df7b667a08a3969e26f3dc2b97cfb5a3d9f67698d06218"
PIN_BOUNDARY = "56d51df4437604bb0317cb4df5bd4849551201da90afd34fbb14c34e1b0da119"


def test_order_reassignment_invalidates_pooled_cache():
    for backend in FULL_TRACE_BACKENDS:
        stack = build_sbc_stack(
            n=4, mode="hybrid", seed=6, phi=4, delta=2, backend=backend
        )
        stack.run_rounds(1)  # populate the cached activation list
        stack.env.order = ["P3", "P2", "P1", "P0"]  # then flip the order
        stack.parties["P0"].broadcast(b"o")
        # An explicit per-round order bypasses the cache for one round.
        stack.env.run_round((), order=["P1", "P3", "P0", "P2"])
        stack.run_until_delivery()
        assert trace_digest(stack.session.log) == PIN_REORDERED, backend
        assert stack.delivered() == {pid: [b"o"] for pid in ("P0", "P1", "P2", "P3")}


@pytest.mark.parametrize("backend", FULL_TRACE_BACKENDS)
def test_corruption_at_round_boundary_is_pinned(backend):
    stack = build_sbc_stack(
        n=4, mode="hybrid", seed=12, phi=4, delta=2,
        adversary=CorruptAtRound("P1", at_round=2), backend=backend,
    )
    stack.parties["P0"].broadcast(b"b0")
    stack.parties["P1"].broadcast(b"b1")
    stack.run_until_delivery()
    assert trace_digest(stack.session.log) == PIN_BOUNDARY
    assert stack.delivered()["P1"] is None
    assert stack.delivered()["P2"] == [b"b0", b"b1"]


def test_session_pool_honors_backend_instance_overrides():
    from repro.runtime import POOLED

    report = SessionPool(
        n=3, mode="hybrid", config=SweepConfig(backend=POOLED.with_trace("light")),
    ).run([0])
    assert report.results[0].digest == ""  # the trace override reached the session


def test_repeated_sbc_accepts_backend():
    runner = RepeatedSBC(n=3, seed=4, phi=4, delta=2, backend="pooled")
    delivered = runner.run_period({"P0": b"warm"})
    assert all(batch == [b"warm"] for batch in delivered.values())


# ---------------------------------------------------------------------------
# SessionPool
# ---------------------------------------------------------------------------


def test_session_pool_smoke_32_seeds():
    seeds = list(range(32))
    pool = SessionPool(
        n=3, mode="hybrid", phi=4, delta=2, config=SweepConfig(backend="pooled"),
    )
    report = pool.run(seeds)
    assert report.sessions == 32
    assert [result.seed for result in report.results] == seeds
    # Every session delivered and advanced the same round schedule.
    assert all(result.rounds == report.results[0].rounds for result in report.results)
    assert all(result.outputs for result in report.results)
    # Same-seed determinism across pool runs.
    again = pool.run(seeds)
    assert [r.digest for r in again.results] == [r.digest for r in report.results]
    # Distinct seeds produce distinct traces.
    assert len({result.digest for result in report.results}) == 32


def test_session_pool_matches_sequential_loop_digests():
    # The full-trace pool replays a plain loop of sequential trials digest
    # for digest, and the light-trace pool runs it round for round, hybrid
    # and composed.
    seeds = list(range(6))
    for params in (
        dict(n=3, mode="hybrid", phi=4, delta=2),
        dict(n=4, mode="composed", phi=5, delta=3, senders=2),
    ):
        baseline = [run_sbc_trial(seed, backend="sequential", **params) for seed in seeds]
        pooled = SessionPool(config=SweepConfig(backend="pooled"), **params).run(seeds)
        assert [r.digest for r in pooled.results] == [r.digest for r in baseline]
        light = SessionPool(config=SweepConfig(backend="pooled", trace="light"), **params).run(seeds)
        assert (light.total_rounds, light.total_messages) == (
            sum(r.rounds for r in baseline), sum(r.messages for r in baseline),
        )
        assert [r.outputs for r in light.results] == [r.outputs for r in baseline]


def test_run_sbc_trial_is_self_contained():
    result = run_sbc_trial(17, n=3, mode="hybrid", backend="sequential")
    assert result.seed == 17
    assert result.rounds > 0 and result.messages > 0
    assert result.digest and result.outputs


def test_light_trace_digest_is_empty_not_constant():
    # A trace-off log must digest to "" (falsy), never to the constant
    # hash of zero events — distinct executions would compare equal.
    result = run_sbc_trial(0, n=3, mode="hybrid", backend="batched")
    assert result.digest == ""
    light = run_sbc_trial(1, n=3, mode="hybrid", backend="pooled", trace="light")
    assert light.digest == ""


def _hooked_run(backend):
    """A run whose instance-assigned hook corrupts P2 mid-round 2."""
    from repro.uc.adversary import PassiveAdversary

    adversary = PassiveAdversary()
    seen = []

    def hook(party):  # instance-level hook, not a subclass override
        now = adversary.session.clock.time
        seen.append((now, party.pid))
        if party.pid == "P0" and now == 2:
            adversary.corrupt("P2")  # P2 activates later in this round

    adversary.on_party_activated = hook
    stack = build_sbc_stack(
        n=4, mode="hybrid", seed=8, phi=4, delta=2,
        adversary=adversary, backend=backend,
    )
    stack.parties["P0"].broadcast(b"h0")
    stack.parties["P1"].broadcast(b"h1")
    stack.run_until_delivery()
    return stack, seen


def test_pooled_driver_fires_instance_assigned_hook():
    for backend in FULL_TRACE_BACKENDS:
        stack, seen = _hooked_run(backend)
        assert trace_digest(stack.session.log) == PIN_HOOK_CORRUPTS, backend
        # Exactly once per honest party per round; P2 is skipped from the
        # round it was corrupted in onwards.
        for now in range(stack.session.clock.time):
            activated = [pid for time, pid in seen if time == now]
            honest = ["P0", "P1", "P2", "P3"] if now < 2 else ["P0", "P1", "P3"]
            assert activated == honest, (backend, now)


# ---------------------------------------------------------------------------
# Backend registry and scheduler units
# ---------------------------------------------------------------------------


def test_backend_registry():
    backends = available_backends()
    assert {"sequential", "pooled", "batched"} <= set(backends)
    assert get_backend(None).name == "sequential"
    # pooled and batched are spellings of the reference engine.
    assert get_backend("pooled").driver_cls is SequentialRoundDriver
    assert get_backend("batched").driver_cls is SequentialRoundDriver
    assert get_backend("batched").trace == "light"
    assert get_backend(backends["batched"]) is backends["batched"]
    with pytest.raises(ValueError):
        get_backend("warp-drive")


def test_scheduler_fifo_preserves_global_order():
    scheduler = BatchScheduler()
    scheduler.enqueue("net", "A", 1)
    scheduler.enqueue("net", "B", 2)
    scheduler.enqueue("net", "A", 3)
    assert scheduler.pending("net") == 3
    assert scheduler.drain("net") == [("A", 1), ("B", 2), ("A", 3)]
    assert scheduler.pending("net") == 0
    assert scheduler.drain("net") == []


# ---------------------------------------------------------------------------
# Session topology caches + randomness guard
# ---------------------------------------------------------------------------


class _Probe(Party):
    pass


def test_honest_parties_cache_invalidation():
    session = Session(seed=1)
    a = _Probe(session, "A")
    assert list(session.honest_parties) == ["A"]
    assert session.honest_pids == frozenset({"A"})
    first_epoch = session.topology_epoch

    _Probe(session, "B")  # registration invalidates
    assert session.topology_epoch > first_epoch
    assert list(session.honest_parties) == ["A", "B"]

    session.corrupt("A")  # corruption invalidates
    assert list(session.honest_parties) == ["B"]
    assert session.honest_pids == frozenset({"B"})
    assert a.corrupted


def test_honest_parties_cached_between_changes():
    session = Session(seed=1)
    _Probe(session, "A")
    view = session.honest_parties
    assert session.honest_parties is view  # cached object, no rebuild


def test_random_bytes_zero_is_guarded_and_stateless():
    session = Session(seed=42)
    state = session.rng.getstate()
    assert session.random_bytes(0) == b""
    assert session.rng.getstate() == state  # the guard must not consume RNG
    assert len(session.random_bytes(16)) == 16


# ---------------------------------------------------------------------------
# Accelerated group arithmetic
# ---------------------------------------------------------------------------


def _cold_group() -> SchnorrGroup:
    return SchnorrGroup(p=TEST_GROUP.p, q=TEST_GROUP.q, g=TEST_GROUP.g)


def test_fixed_base_table_bit_identical():
    group = _cold_group()
    rng = random.Random(7)
    exponents = [0, 1, 2, group.q - 1, group.q, group.q + 5]
    exponents += [rng.randrange(group.q) for _ in range(100)]
    expected = [pow(group.g, e % group.q, group.p) for e in exponents]
    assert [group.power_of_g(e) for e in exponents] == expected
    group.precompute_fixed_base()  # idempotent
    assert [group.power_of_g(e) for e in exponents] == expected


def test_fixed_base_lazy_for_large_groups():
    group = SchnorrGroup(p=GROUP_2048.p, q=GROUP_2048.q, g=GROUP_2048.g)
    assert group.power_of_g(12345) == pow(group.g, 12345, group.p)
    assert group._fb_state is None  # big modulus: no table after one call
    group.precompute_fixed_base()
    assert group._fb_state is not None
    assert group.power_of_g(12345) == pow(group.g, 12345, group.p)


def test_multi_exp_equivalence():
    rng = random.Random(8)
    for group in (TEST_GROUP,):
        for count in (0, 1, 2, 4):
            pairs = [
                (rng.randrange(2, group.p), rng.randrange(group.q))
                for _ in range(count)
            ]
            expected = 1
            for base, e in pairs:
                expected = expected * pow(base, e % group.q, group.p) % group.p
            assert group.multi_exp(pairs) == expected
    # exponent-1 and generator folding
    element = TEST_GROUP.random_element(rng)
    assert TEST_GROUP.multi_exp(((element, 1),)) == element
    assert TEST_GROUP.multi_exp(((TEST_GROUP.g, 5), (TEST_GROUP.g, 7))) == (
        TEST_GROUP.power_of_g(12)
    )


def test_multi_exp_interleaved_path():
    rng = random.Random(9)
    group = GROUP_2048
    pairs = [(rng.randrange(2, group.p), rng.randrange(2, group.q)) for _ in range(3)]
    expected = 1
    for base, e in pairs:
        expected = expected * pow(base, e, group.p) % group.p
    assert group._interleaved_multi_exp(pairs) == expected
    assert group.multi_exp(pairs) == expected


def test_bsgs_matches_linear_scan_contract():
    group = TEST_GROUP
    for exponent in (0, 1, 5, 99, 1000, 65537):
        assert group.discrete_log_small(group.power_of_g(exponent)) == exponent
    base = group.power_of_g(11)
    assert group.discrete_log_small(pow(base, 321, group.p), base=base) == 321
    # Bound semantics: exponent must lie in [0, bound).
    assert group.discrete_log_small(group.power_of_g(99), bound=100) == 99
    with pytest.raises(ValueError):
        group.discrete_log_small(group.power_of_g(100), bound=100)
    with pytest.raises(ValueError):
        group.discrete_log_small(group.power_of_g(12345), bound=1000)


def test_bsgs_small_order_base_smallest_exponent():
    group = TEST_GROUP
    # The identity has order 1: every exponent maps to 1; the scan
    # returned the smallest (0) and BSGS must as well.
    assert group.discrete_log_small(1, base=1) == 0
    with pytest.raises(ValueError):
        group.discrete_log_small(5, base=1)


def test_element_encoding_cached():
    group = _cold_group()
    element = group.power_of_g(3)
    first = group.element_to_bytes(element)
    assert group.element_to_bytes(element) is first  # memoised
    assert int.from_bytes(first, "big") == element
    assert len(first) == (group.p.bit_length() + 7) // 8


# ---------------------------------------------------------------------------
# Canonical trace digests (cross-process stability)
# ---------------------------------------------------------------------------


def test_canonical_detail_matches_repr_for_simple_payloads():
    from repro.runtime import canonical_detail

    # The historical digest hashed repr() of these shapes; canonical_detail
    # must render them identically so pre-fix golden digests keep holding.
    for payload in (
        None, 7, -1, "text", b"bytes", (1, b"m", "P0"), ("one",), (),
        [1, 2], [], (1, (2, (3,))), "quote'and\"quote",
    ):
        assert canonical_detail(payload) == repr(payload)


def test_canonical_detail_sorts_dicts_and_sets():
    from repro.runtime import canonical_detail

    assert canonical_detail({"b": 1, "a": 2}) == canonical_detail({"a": 2, "b": 1})
    assert canonical_detail({"a": 2, "b": 1}) == "{'a': 2, 'b': 1}"
    assert canonical_detail({2, 1, 3}) == "{1, 2, 3}"
    assert canonical_detail(frozenset((2, 1))) == "frozenset({1, 2})"
    assert canonical_detail(set()) == "set()"
    assert canonical_detail(frozenset()) == "frozenset()"
    # Nested inside the tuple shape events actually use.
    assert canonical_detail(("Result", {"yes": 2, "no": 1}, None)) == (
        "('Result', {'no': 1, 'yes': 2}, None)"
    )


def test_trace_digest_stable_across_dict_insertion_orders():
    from repro.uc.trace import EventLog

    forward = EventLog()
    forward.record(0, "output", "P0", {"yes": 2, "no": 1})
    backward = EventLog()
    backward.record(0, "output", "P0", {"no": 1, "yes": 2})
    assert trace_digest(forward) == trace_digest(backward)
    # repr-hashing (the pre-fix digest) would have diverged here:
    assert repr({"yes": 2, "no": 1}) != repr({"no": 1, "yes": 2})


# ---------------------------------------------------------------------------
# Empty pool reports must be loud, never vacuous
# ---------------------------------------------------------------------------


def test_empty_pool_report_summary_raises():
    from repro.runtime import PoolReport

    empty = PoolReport(backend="pooled", executor="inline", wall_time_s=0.0)
    with pytest.raises(ValueError, match="no trials"):
        empty.summary()


def test_reports_match_rejects_empty_reports():
    from repro.runtime import PoolReport, reports_match

    empty = PoolReport(backend="pooled", executor="inline", wall_time_s=0.0)
    full = SessionPool(
        n=3, mode="hybrid", config=SweepConfig(backend="pooled"),
    ).run([0])
    with pytest.raises(ValueError, match="empty"):
        reports_match(empty, empty)
    with pytest.raises(ValueError, match="empty"):
        reports_match(empty, full)
    assert reports_match(full, full)


# ---------------------------------------------------------------------------
# Cross-party agreement inside pooled trials
# ---------------------------------------------------------------------------


def test_ensure_agreement_returns_common_view():
    from repro.runtime import ensure_agreement

    view = [b"m0", b"m1"]
    assert ensure_agreement({"P0": list(view), "P1": list(view)}) == view
    with pytest.raises(ValueError, match="no delivered views"):
        ensure_agreement({})


def test_ensure_agreement_flags_disagreeing_party():
    from repro.runtime import TrialDisagreement, ensure_agreement

    with pytest.raises(TrialDisagreement, match="P2"):
        ensure_agreement(
            {"P0": [b"m"], "P1": [b"m"], "P2": [b"forged"]}, seed=13
        )


def test_run_sbc_trial_catches_disagreeing_stack(monkeypatch):
    # A trial whose stack delivers different batches to different parties
    # must abort the sweep, not archive P0's view as "the" output.
    import repro.core.stacks as stacks

    from repro.runtime import TrialDisagreement

    real_build = stacks.build_sbc_stack

    class _TamperedStack:
        def __init__(self, stack):
            self._stack = stack

        def __getattr__(self, name):
            return getattr(self._stack, name)

        def delivered(self):
            views = dict(self._stack.delivered())
            victim = sorted(views)[-1]
            views[victim] = (views[victim] or []) + [b"forged"]
            return views

    monkeypatch.setattr(
        stacks, "build_sbc_stack", lambda **kw: _TamperedStack(real_build(**kw))
    )
    with pytest.raises(TrialDisagreement):
        run_sbc_trial(3, n=3, mode="hybrid")


# ---------------------------------------------------------------------------
# Chunked process fan-out
# ---------------------------------------------------------------------------


def test_auto_chunksize_targets_chunks_per_worker():
    from repro.runtime import auto_chunksize

    assert auto_chunksize(64, 4) == 4   # 16 chunks for 4 workers
    assert auto_chunksize(7, 4) == 1
    assert auto_chunksize(0, 4) == 1
    assert auto_chunksize(1000, 1) == 250


def test_resolve_workers_validation():
    from repro.runtime import resolve_workers

    assert resolve_workers(3) == 3
    assert resolve_workers(None) >= 1
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_session_pool_rejects_bad_fanout_config():
    with pytest.raises(ValueError, match="chunksize"):
        SweepConfig(chunksize=0)
    with pytest.raises(ValueError, match="executor"):
        SweepConfig(executor="fiber")


def test_session_pool_process_executor_digests_match_inline():
    seeds = list(range(4))
    params = dict(n=3, mode="hybrid", phi=4, delta=2)
    inline = SessionPool(config=SweepConfig(backend="pooled"), **params).run(seeds)
    fanned = SessionPool(
        config=SweepConfig(
            backend="pooled", executor="process", workers=2, chunksize=2,
        ),
        **params,
    ).run(seeds)
    assert [r.seed for r in fanned.results] == seeds  # deterministic order
    assert [r.digest for r in fanned.results] == [r.digest for r in inline.results]
    assert fanned.workers == 2 and fanned.chunksize == 2
    assert fanned.summary()["chunksize"] == 2
