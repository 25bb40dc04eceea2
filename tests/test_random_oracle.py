"""FRO: consistency, independence, programmability and its limits."""

import pytest

from repro.functionalities.random_oracle import ProgrammingConflict, RandomOracle
from repro.uc.session import Session


def test_consistent_responses(session):
    ro = RandomOracle(session)
    assert ro.query(b"x") == ro.query(b"x")


def test_distinct_points_distinct_responses(session):
    ro = RandomOracle(session)
    # 32-byte uniform outputs collide with negligible probability.
    assert ro.query(b"x") != ro.query(b"y")


def test_distinct_oracles_independent(session):
    ro1 = RandomOracle(session, fid="FRO1")
    ro2 = RandomOracle(session, fid="FRO2")
    assert ro1.query(b"x") != ro2.query(b"x")


def test_digest_size_parameter(session):
    ro = RandomOracle(session, fid="wide", digest_size=128)
    assert len(ro.query(b"x")) == 128


def test_non_bytes_rejected(session):
    ro = RandomOracle(session)
    with pytest.raises(TypeError):
        ro.query("string")


def test_query_attribution(session):
    ro = RandomOracle(session)
    ro.query(b"x", querier="P0")
    assert ro.was_queried(b"x")
    assert ro.was_queried(b"x", by="P0")
    assert not ro.was_queried(b"x", by="P1")
    assert not ro.was_queried(b"y")


def test_programming_unqueried_point(session):
    ro = RandomOracle(session)
    ro.program(b"p", bytes(32))
    assert ro.query(b"p") == bytes(32)


def test_programming_queried_point_conflicts(session):
    """The simulation-abort event: equivocation after the adversary queried."""
    ro = RandomOracle(session)
    ro.query(b"p", querier="A")
    with pytest.raises(ProgrammingConflict):
        ro.program(b"p", bytes(32))


def test_programming_twice_same_value_ok(session):
    ro = RandomOracle(session)
    ro.program(b"p", bytes(32))
    ro.program(b"p", bytes(32))


def test_programming_twice_different_value_conflicts(session):
    ro = RandomOracle(session)
    ro.program(b"p", bytes(32))
    with pytest.raises(ProgrammingConflict):
        ro.program(b"p", b"\x01" * 32)


def test_programming_wrong_size_rejected(session):
    ro = RandomOracle(session)
    with pytest.raises(ValueError):
        ro.program(b"p", b"short")


def test_hash_fn_closure(session):
    ro = RandomOracle(session)
    h = ro.hash_fn(querier="P7")
    assert h(b"z") == ro.query(b"z")
    assert ro.was_queried(b"z", by="P7")


def test_metrics_count_queries(session):
    ro = RandomOracle(session)
    ro.query(b"a", querier="P0")
    ro.query(b"b", querier="P0")
    assert session.metrics.get("ro.total") == 2
    assert session.metrics.get("ro.by.P0") == 2


# -- batches: one loop, the same effects as per-point queries ------------------


def _reference_query(oracle, x, querier):
    """``RandomOracle.query`` as it was before batches resolved in one loop."""
    if not isinstance(x, bytes):
        raise TypeError("oracle inputs are byte strings")
    if x not in oracle._table:
        oracle._table[x] = oracle.session.random_bytes(oracle.digest_size)
    oracle.queried_by.setdefault(x, set()).add(querier)
    oracle.session.metrics.count_ro_query(oracle.fid, querier)
    return oracle._table[x]


def _observable(oracle):
    session = oracle.session
    return (
        dict(oracle._table),
        {point: set(who) for point, who in oracle.queried_by.items()},
        dict(session.metrics.counters),
        session.rng.getstate(),
    )


def _twin_oracles():
    """Two identical oracles on identical sessions, a point programmed in each."""
    twins = []
    for _ in range(2):
        oracle = RandomOracle(Session(seed=99), fid="F*RO")
        oracle.program(b"prog", b"\x07" * 32)
        twins.append(oracle)
    return twins


BATCHES = [
    ("P0", [b"a", b"b", b"a", b"prog", b"c"]),  # repeat within one batch
    ("P1", [b"c", b"d", b"prog"]),  # points already sampled, new querier
    ("P0", []),
]


def test_query_many_matches_per_point_queries():
    batched, reference = _twin_oracles()
    for querier, points in BATCHES:
        responses = batched.query_many(points, querier)
        expected = [_reference_query(reference, x, querier) for x in points]
        assert responses == expected
        assert _observable(batched) == _observable(reference)
    assert batched.query_many([b"prog"], "P2") == [b"\x07" * 32]
    assert batched.session.metrics.get("ro.total") == 9


def test_query_matches_reference():
    single, reference = _twin_oracles()
    for querier, points in BATCHES:
        for x in points:
            assert single.query(x, querier) == _reference_query(reference, x, querier)
    assert _observable(single) == _observable(reference)


def test_query_many_rejects_non_bytes_before_any_effect():
    oracle, _ = _twin_oracles()
    oracle.query_many([b"a"], "P0")
    before = _observable(oracle)
    with pytest.raises(TypeError):
        oracle.query_many([b"fresh", "not-bytes", b"a"], "P0")
    assert _observable(oracle) == before
    assert not oracle.was_queried(b"fresh")
