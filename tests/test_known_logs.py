"""Exponentiation through known discrete logs and registered tables.

``SchnorrGroup.register_fixed_base(base, log=...)`` lets a caller that
knows ``base = g^log`` have ``base``'s powers served as ``g``-powers; one
private resolver routes :meth:`exp` and :meth:`multi_exp` to ``g``'s
table, a verified log, a registered table or plain ``pow``.  Every route
must return exactly what ``pow`` returns.  Bookkeeping that logs share
with tables (the ``g`` no-op, pickling, the FIFO bound, thread races)
is tested with both kinds in ``tests/test_groups.py``.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.groups import (
    _TABLE_PENDING,
    TEST_GROUP,
    SchnorrGroup,
    available_arith_backends,
)

P, Q, G = TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g

#: Bounded, derandomized profile: identical examples on every run.
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

EXPONENTS = (0, 1, Q - 1, Q, Q + 1, -1, -12345, 2 * Q + 5)


def _cold_group() -> SchnorrGroup:
    return SchnorrGroup(p=P, q=Q, g=G)


def _reference_multi_exp(pairs):
    result = 1
    for base, exponent in pairs:
        result = result * pow(base, exponent % Q, P) % P
    return result


def _registered_group():
    """A cold group with one base of each kind and their logs."""
    group = _cold_group()
    logged = 0x10C
    table_log = 0x7AB1E
    log_base, table_base = pow(G, logged, P), pow(G, table_log, P)
    group.register_fixed_base(log_base, log=logged)
    group.register_fixed_base(table_base)
    return group, log_base, table_base


def test_log_registered_base_gets_no_table(use_arith):
    use_arith("python")  # the tier that walks tables
    group, log_base, table_base = _registered_group()
    assert group._fb_bases[log_base] == 0x10C
    assert group._fb_bases[table_base] is _TABLE_PENDING  # built on the first walk
    assert group.exp(table_base, 5) == pow(table_base, 5, P)
    window, table = group._fb_bases[table_base]
    assert window >= 1 and table
    assert group._fb_bases[log_base] == 0x10C


@pytest.mark.skipif("openssl" not in available_arith_backends(), reason="no libcrypto")
def test_openssl_walks_no_registered_table(use_arith):
    use_arith("openssl")
    group, log_base, table_base = _registered_group()
    for e in EXPONENTS:
        assert group.exp(table_base, e) == pow(table_base, e % Q, P)
        assert group.exp(log_base, e) == pow(log_base, e % Q, P)
    assert group.multi_exp(((table_base, 7), (log_base, 9), (G, 3))) == _reference_multi_exp(
        ((table_base, 7), (log_base, 9), (G, 3))
    )
    assert group._fb_bases == {log_base: 0x10C, table_base: _TABLE_PENDING}
    assert group._fb_state is None


@pytest.mark.parametrize("kind", ("log", "table", "plain", "g"))
def test_exp_on_every_route_equals_pow(kind):
    group, log_base, table_base = _registered_group()
    base = {"log": log_base, "table": table_base, "plain": pow(G, 99, P), "g": G}[kind]
    rng = random.Random(kind)
    for e in EXPONENTS + tuple(rng.randrange(-Q, 3 * Q) for _ in range(20)):
        assert group.exp(base, e) == pow(base, e % Q, P), e


def test_multi_exp_on_every_route_equals_pow():
    group, log_base, table_base = _registered_group()
    plain = pow(G, 99, P)
    rng = random.Random(7)
    for e in EXPONENTS:
        pairs = ((log_base, e), (table_base, e), (G, e), (plain, e), (3, e))
        assert group.multi_exp(pairs) == _reference_multi_exp(pairs), e
    for _ in range(30):
        pairs = [
            (rng.choice((log_base, table_base, G, plain, log_base + P)), rng.randrange(-Q, 2 * Q))
            for _ in range(rng.randrange(1, 9))
        ]
        pairs.append((rng.choice((log_base, table_base)), 1))
        assert group.multi_exp(pairs) == _reference_multi_exp(pairs)


@PROPERTY
@given(
    log=st.integers(min_value=-Q, max_value=3 * Q),
    exponents=st.lists(st.integers(min_value=-2 * Q, max_value=2 * Q), min_size=1, max_size=6),
    table_log=st.integers(min_value=1, max_value=Q - 1),
)
def test_log_and_table_routes_match_pow(log, exponents, table_log):
    group = _cold_group()
    base = pow(G, log % Q, P)
    table_base = pow(G, table_log, P)
    group.register_fixed_base(base, log=log)
    group.register_fixed_base(table_base)
    for e in exponents:
        assert group.exp(base, e) == pow(base, e % Q, P)
        assert group.exp(table_base, e) == pow(table_base, e % Q, P)
    pairs = [(base, e) for e in exponents] + [(table_base, e) for e in exponents]
    assert group.multi_exp(pairs) == _reference_multi_exp(pairs)


@pytest.mark.parametrize(
    "base, log",
    (
        (pow(G, 5, P), 6),  # off by one
        (pow(G, 5, P) + P, 5),  # right log, unreduced base
        (P - 1, 0),  # a non-member has no log to g
        (G, 2),  # g's log is 1
    ),
    ids=("wrong-log", "unreduced-base", "non-member", "g-wrong-log"),
)
def test_wrong_log_raises_and_registers_nothing(base, log):
    group, log_base, table_base = _registered_group()
    before = dict(group._fb_bases)
    with pytest.raises(ValueError, match="log"):
        group.register_fixed_base(base, log=log)
    assert group._fb_bases == before
    assert list(group._fb_bases) == list(before)


def test_wrong_log_for_a_registered_base_leaves_its_entry():
    group, log_base, table_base = _registered_group()
    before = dict(group._fb_bases)
    for base in (log_base, table_base):
        with pytest.raises(ValueError):
            group.register_fixed_base(base, log=1)
    assert group._fb_bases == before


def test_log_registration_is_idempotent_and_reduces_mod_q():
    group = _cold_group()
    base = pow(G, 42, P)
    group.register_fixed_base(base, log=42 + 3 * Q)
    assert group._fb_bases == {base: 42}
    group.register_fixed_base(base, log=42)
    group.register_fixed_base(base)  # a table request keeps the known log
    assert group._fb_bases == {base: 42}


def test_a_log_for_a_table_registered_base_keeps_the_table(use_arith):
    use_arith("python")  # the tier that walks tables
    group = _cold_group()
    base = pow(G, 42, P)
    group.register_fixed_base(base)
    group.exp(base, 3)  # the first walk builds the table
    state = group._fb_bases[base]
    assert type(state) is tuple
    group.register_fixed_base(base, log=42)
    assert group._fb_bases == {base: state}
    for e in EXPONENTS:
        assert group.exp(base, e) == pow(base, e % Q, P)
