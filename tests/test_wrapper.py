"""Wq resource wrapper: batch semantics, budgets, the corrupted pool.

The key modeling property (Figure 5): one Evaluate *batch* of arbitrarily
many points costs one of the q per-round queries — q bounds sequential
depth, not parallel width.
"""

import pytest

from repro.functionalities.random_oracle import RandomOracle
from repro.functionalities.wrapper import QueryWrapper
from repro.uc.entity import Party
from repro.uc.errors import ResourceExhausted
from repro.uc.session import Session


@pytest.fixture
def wrapper(session):
    oracle = RandomOracle(session, fid="F*RO")
    return QueryWrapper(session, oracle, q=3)


def test_batch_counts_once(session, wrapper):
    Party(session, "P0")
    responses = wrapper.evaluate("P0", [b"a", b"b", b"c", b"d"])
    assert len(responses) == 4
    assert wrapper.used("P0") == 1
    assert wrapper.remaining("P0") == 2


def test_budget_exhaustion(session, wrapper):
    Party(session, "P0")
    for _ in range(3):
        wrapper.evaluate("P0", [b"x"])
    with pytest.raises(ResourceExhausted):
        wrapper.evaluate("P0", [b"y"])


def test_budgets_are_per_party(session, wrapper):
    Party(session, "P0")
    Party(session, "P1")
    for _ in range(3):
        wrapper.evaluate("P0", [b"x"])
    wrapper.evaluate("P1", [b"y"])  # P1's budget untouched by P0
    assert wrapper.remaining("P1") == 2


def test_budget_resets_each_round(session, env, wrapper):
    Party(session, "P0")
    for _ in range(3):
        wrapper.evaluate("P0", [b"x"])
    env.run_rounds(1)
    assert wrapper.remaining("P0") == 3
    wrapper.evaluate("P0", [b"x"])
    assert wrapper.used("P0") == 1


def test_corrupted_coalition_shares_one_budget(session, wrapper):
    Party(session, "P0")
    Party(session, "P1")
    Party(session, "P2")
    session.corrupt("P0")
    session.corrupt("P1")
    wrapper.evaluate("P0", [b"a"])
    wrapper.evaluate("P1", [b"b"])
    wrapper.evaluate("P0", [b"c"])
    # Three batches spent by the coalition as a whole:
    with pytest.raises(ResourceExhausted):
        wrapper.evaluate("P1", [b"d"])
    # Honest party unaffected:
    wrapper.evaluate("P2", [b"e"])


def test_corruption_mid_round_merges_budget(session, wrapper):
    Party(session, "P0")
    Party(session, "P1")
    session.corrupt("P0")
    wrapper.evaluate("P0", [b"a"])
    wrapper.evaluate("P0", [b"b"])
    wrapper.evaluate("P0", [b"c"])
    session.corrupt("P1")  # P1 joins the coalition: pool is exhausted
    with pytest.raises(ResourceExhausted):
        wrapper.evaluate("P1", [b"d"])


def test_responses_match_oracle(session):
    oracle = RandomOracle(session, fid="F*RO")
    wrapper = QueryWrapper(session, oracle, q=2)
    Party(session, "P0")
    (response,) = wrapper.evaluate("P0", [b"point"])
    assert response == oracle.query(b"point")


def test_invalid_q_rejected(session):
    oracle = RandomOracle(session, fid="F*RO")
    with pytest.raises(ValueError):
        QueryWrapper(session, oracle, q=0)


def test_hash_fn_closure_metered(session, wrapper):
    Party(session, "P0")
    h = wrapper.hash_fn("P0")
    h(b"1")
    h(b"2")
    h(b"3")
    with pytest.raises(ResourceExhausted):
        h(b"4")


def _reference_evaluate(wrapper, entity_id, inputs):
    """``QueryWrapper.evaluate`` as it was: charge, count, then one
    ``query`` call per point (the oracle's per-point semantics are pinned
    against a copy in ``tests/test_random_oracle.py``)."""
    key = (wrapper._budget_key(entity_id), wrapper.time)
    wrapper._used[key] = wrapper._used.get(key, 0) + 1
    wrapper.session.metrics.inc("ro.batches")
    wrapper.session.metrics.inc("ro.points", len(inputs))
    return [wrapper.oracle.query(x, querier=entity_id) for x in inputs]


def _twin_wrappers():
    twins = []
    for _ in range(2):
        session = Session(seed=5)
        for pid in ("P0", "P1"):
            Party(session, pid)
        oracle = RandomOracle(session, fid="F*RO")
        oracle.program(b"prog", b"\x01" * 32)
        twins.append(QueryWrapper(session, oracle, q=3))
    return twins


def _state(wrapper):
    oracle, session = wrapper.oracle, wrapper.session
    return (
        dict(wrapper._used),
        dict(oracle._table),
        {point: set(who) for point, who in oracle.queried_by.items()},
        dict(session.metrics.counters),
        session.rng.getstate(),
    )


def test_batch_matches_per_point_reference():
    batched, reference = _twin_wrappers()
    for pid, points in [
        ("P0", [b"a", b"prog", b"a", b"b"]),
        ("P1", [b"b", b"c"]),
        ("P0", []),
    ]:
        assert batched.evaluate(pid, points) == _reference_evaluate(reference, pid, points)
        assert _state(batched) == _state(reference)


def test_non_bytes_batch_is_neither_resolved_nor_charged():
    wrapper, _ = _twin_wrappers()
    wrapper.evaluate("P0", [b"a"])
    before = _state(wrapper)
    with pytest.raises(TypeError):
        wrapper.evaluate("P0", [b"fresh", 7])
    assert _state(wrapper) == before
    assert wrapper.remaining("P0") == 2
