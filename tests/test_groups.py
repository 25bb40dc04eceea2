"""Schnorr group: parameter validity and group-law sanity."""

import pytest

from repro.crypto.groups import (
    FIXED_BASE_REGISTERED_MAX,
    GROUP_2048,
    TEST_GROUP,
    SchnorrGroup,
)


def _is_probable_prime(n: int, rounds: int = 30) -> bool:
    import random

    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    prng = random.Random(0xBEEF)
    for _ in range(rounds):
        a = prng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_test_group_is_safe_prime():
    assert _is_probable_prime(TEST_GROUP.p)
    assert _is_probable_prime(TEST_GROUP.q)
    assert TEST_GROUP.p == 2 * TEST_GROUP.q + 1


def test_test_group_size():
    assert TEST_GROUP.p.bit_length() == 256


def test_generator_has_order_q():
    assert pow(TEST_GROUP.g, TEST_GROUP.q, TEST_GROUP.p) == 1
    assert TEST_GROUP.g != 1


def test_group_2048_structure():
    assert GROUP_2048.p.bit_length() == 2048
    assert pow(GROUP_2048.g, GROUP_2048.q, GROUP_2048.p) == 1


def test_exponent_reduction(rng):
    x = TEST_GROUP.random_scalar(rng)
    assert TEST_GROUP.power_of_g(x) == TEST_GROUP.power_of_g(x + TEST_GROUP.q)


def test_mul_inv(rng):
    a = TEST_GROUP.random_element(rng)
    assert TEST_GROUP.mul(a, TEST_GROUP.inv(a)) == 1


def test_membership(rng):
    assert TEST_GROUP.is_member(TEST_GROUP.g)
    assert TEST_GROUP.is_member(TEST_GROUP.random_element(rng))
    assert not TEST_GROUP.is_member(0)
    assert not TEST_GROUP.is_member(TEST_GROUP.p)
    # p-1 is a non-residue (order 2) for a safe-prime group.
    assert not TEST_GROUP.is_member(TEST_GROUP.p - 1)


def test_element_to_bytes_fixed_width(rng):
    width = (TEST_GROUP.p.bit_length() + 7) // 8
    assert len(TEST_GROUP.element_to_bytes(1)) == width
    assert len(TEST_GROUP.element_to_bytes(TEST_GROUP.random_element(rng))) == width


def test_discrete_log_small():
    for exponent in (0, 1, 5, 1000):
        target = TEST_GROUP.power_of_g(exponent)
        assert TEST_GROUP.discrete_log_small(target, bound=2000) == exponent


def test_discrete_log_out_of_bound():
    target = TEST_GROUP.power_of_g(5000)
    with pytest.raises(ValueError):
        TEST_GROUP.discrete_log_small(target, bound=100)


def test_bad_generator_rejected():
    with pytest.raises(ValueError):
        SchnorrGroup(p=23, q=11, g=1)


@pytest.mark.parametrize("group", [SchnorrGroup(p=23, q=11, g=4), TEST_GROUP, GROUP_2048],
                         ids=["p23", "test", "2048"])
def test_safe_prime_non_residue_generator_rejected(group):
    # p - 1 has order 2, not q: the Jacobi screen must refuse it.
    with pytest.raises(ValueError, match="order q"):
        SchnorrGroup(p=group.p, q=group.q, g=group.p - 1)


def test_safe_prime_generator_check_agrees_with_pow():
    # The Jacobi screen accepts exactly what the full-width pow accepted.
    for g in range(-3, 50):
        try:
            SchnorrGroup(p=23, q=11, g=g)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (pow(g, 11, 23) == 1 and g not in (0, 1)), g


def test_non_safe_prime_group_keeps_the_pow_check():
    # p = 13 = 4 * 3 + 1: the order-3 subgroup is not the residues.
    assert SchnorrGroup(p=13, q=3, g=3).q == 3
    with pytest.raises(ValueError):
        SchnorrGroup(p=13, q=3, g=4)  # a residue of order 6


# ---------------------------------------------------------------------------
# Cache thread-safety and pickling (shared instances under SessionPool)
# ---------------------------------------------------------------------------


def _cold_group() -> SchnorrGroup:
    return SchnorrGroup(p=TEST_GROUP.p, q=TEST_GROUP.q, g=TEST_GROUP.g)


def test_lazy_caches_thread_safe_under_stress(use_arith):
    # One cold group hammered by 8 threads released simultaneously: the
    # fixed-base table build, the encoding-cache population and the
    # registered-base map (table and log inserts, lazy table builds, FIFO
    # evictions) race on first use, and every accelerated result must
    # still be exact.  The python tier is the one that walks tables.
    import random
    import threading

    use_arith("python")
    group = _cold_group()
    # More shared bases than the map holds, so threads also race evictions.
    logs = [1000 + i for i in range(FIXED_BASE_REGISTERED_MAX + 4)]
    bases = [pow(group.g, log, group.p) for log in logs]
    barrier = threading.Barrier(8)
    failures = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        barrier.wait()  # maximise contention on the cold caches
        for _ in range(40):
            e = rng.randrange(group.q)
            value = group.power_of_g(e)
            if value != pow(group.g, e, group.p):
                failures.append(("pow", seed, e))
            encoded = group.element_to_bytes(value)
            if int.from_bytes(encoded, "big") != value:
                failures.append(("encode", seed, e))
            index = rng.randrange(len(bases))
            base = bases[index]
            if rng.random() < 0.5:
                group.register_fixed_base(base)
            else:
                group.register_fixed_base(base, log=logs[index])
            if group.exp(base, e) != pow(base, e, group.p):
                failures.append(("registered", seed, e))
            pairs = ((base, e), (bases[0], e + 1))
            expected = pow(base, e, group.p) * pow(bases[0], e + 1, group.p) % group.p
            if group.multi_exp(pairs) != expected:
                failures.append(("multi", seed, e))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    assert group._fb_state is not None  # the table was built exactly once
    assert len(group._fb_bases) == FIXED_BASE_REGISTERED_MAX  # bound held


def test_warm_up_idempotent_and_concurrent(use_arith):
    # g's table warms up on the first walk: racing first walks build it
    # once, and later walks reuse it.
    import threading

    use_arith("python")
    group = _cold_group()
    threads = [threading.Thread(target=group.power_of_g, args=(12345,)) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    state = group._fb_state
    assert state is not None
    assert group.power_of_g(54321) == pow(group.g, 54321, group.p)
    assert group._fb_state is state  # second pass reuses, never rebuilds


def test_group_pickles_without_acceleration_state():
    # Process workers receive groups by value; locks don't pickle, so the
    # reduced state is the (p, q, g) identity and caches rebuild cold.
    import pickle

    group = _cold_group()
    group.precompute_fixed_base()
    group.register_fixed_base(pow(group.g, 7, group.p))
    group.register_fixed_base(pow(group.g, 8, group.p), log=8)
    clone = pickle.loads(pickle.dumps(group))
    assert clone == group
    assert clone._fb_state is None  # caches did not travel
    assert clone._fb_bases == {}  # nor did registered tables or logs
    assert clone.power_of_g(12345) == group.power_of_g(12345)
    clone.precompute_fixed_base()
    assert clone._fb_state is not None


def test_precompute_repeated_default_calls_are_cheap_noops():
    group = _cold_group()
    group.precompute_fixed_base()
    state = group._fb_state
    # Repeated calls must reuse the existing table.
    group.precompute_fixed_base()
    assert group._fb_state is state


# ---------------------------------------------------------------------------
# Registered fixed bases (exp's table path for bases other than g)
# ---------------------------------------------------------------------------


_Q = TEST_GROUP.q
_MEMBER = pow(TEST_GROUP.g, 0x5EED, TEST_GROUP.p)


@pytest.mark.parametrize(
    "base",
    (_MEMBER, 1, TEST_GROUP.p - 1, _MEMBER + TEST_GROUP.p),
    ids=("random-element", "one", "non-member-p-1", "unreduced-b+p"),
)
def test_registered_base_exp_is_exact(base):
    group = _cold_group()
    group.register_fixed_base(base)
    assert base in group._fb_bases
    for e in (0, 1, _Q - 1, _Q, _Q + 1, -1, 2 * _Q + 5):
        assert group.exp(base, e) == pow(base, e % _Q, group.p), e


def test_registering_g_is_a_noop():
    group = _cold_group()
    group.register_fixed_base(group.g)
    group.register_fixed_base(group.g, log=1 + _Q)  # g's own log, unreduced
    assert group._fb_bases == {}
    assert group.exp(group.g, _Q + 3) == pow(group.g, 3, group.p)


def test_registration_is_idempotent_by_value():
    group = _cold_group()
    group.register_fixed_base(_MEMBER)
    state = group._fb_bases[_MEMBER]
    group.register_fixed_base(int(str(_MEMBER)))  # equal value, new object
    assert group._fb_bases[_MEMBER] is state
    assert len(group._fb_bases) == 1


def test_registration_past_the_bound_evicts_the_oldest():
    # Tables and logs share one bound: registered alone or interleaved,
    # the oldest entry of either kind goes first.
    logs = [100 + i for i in range(FIXED_BASE_REGISTERED_MAX + 1)]
    for kinds in (("table",), ("log",), ("log", "table")):
        group = _cold_group()
        bases = [pow(group.g, log, group.p) for log in logs]
        for index, base in enumerate(bases):
            if kinds[index % len(kinds)] == "log":
                group.register_fixed_base(base, log=logs[index])
            else:
                group.register_fixed_base(base)
        assert list(group._fb_bases) == bases[1:], kinds  # FIFO: the first one went
        for base in bases:  # evicted or not, the values are exact
            for e in (0, 1, _Q - 1, _Q + 1, -1):
                assert group.exp(base, e) == pow(base, e % _Q, group.p)
