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


# ---------------------------------------------------------------------------
# Cache thread-safety and pickling (shared instances under SessionPool)
# ---------------------------------------------------------------------------


def _cold_group() -> SchnorrGroup:
    return SchnorrGroup(p=TEST_GROUP.p, q=TEST_GROUP.q, g=TEST_GROUP.g)


def test_lazy_caches_thread_safe_under_stress():
    # One cold group hammered by 8 threads released simultaneously: the
    # fixed-base table build, the encoding-cache population and the
    # registered-base map (inserts and FIFO evictions) race on first use,
    # and every accelerated result must still be exact.
    import random
    import threading

    group = _cold_group()
    # More shared bases than the map holds, so threads also race evictions.
    bases = [pow(group.g, 1000 + i, group.p) for i in range(FIXED_BASE_REGISTERED_MAX + 4)]
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
            base = rng.choice(bases)
            group.register_fixed_base(base)
            if group.exp(base, e) != pow(base, e, group.p):
                failures.append(("registered", seed, e))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    assert group._fb_table is not None  # the table was built exactly once
    assert len(group._fb_bases) == FIXED_BASE_REGISTERED_MAX  # bound held


def test_warm_up_idempotent_and_concurrent():
    import threading

    group = _cold_group()
    threads = [threading.Thread(target=group.warm_up) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    table = group._fb_table
    assert table is not None
    group.warm_up()
    assert group._fb_table is table  # second pass reuses, never rebuilds


def test_group_pickles_without_acceleration_state():
    # Process workers receive groups by value; locks don't pickle, so the
    # reduced state is the (p, q, g) identity and caches rebuild cold.
    import pickle

    group = _cold_group()
    group.warm_up()
    group.register_fixed_base(pow(group.g, 7, group.p))
    clone = pickle.loads(pickle.dumps(group))
    assert clone == group
    assert clone._fb_table is None  # caches did not travel
    assert clone._fb_bases == {}  # nor did registered-base tables
    assert clone.power_of_g(12345) == group.power_of_g(12345)
    clone.warm_up()
    assert clone._fb_table is not None


def test_precompute_repeated_default_calls_are_cheap_noops():
    group = _cold_group()
    group.precompute_fixed_base()
    table = group._fb_table
    # Default and same-window calls must reuse the existing table.
    group.precompute_fixed_base()
    assert group._fb_table is table
    group.precompute_fixed_base(group._fb_window)
    assert group._fb_table is table


def test_precompute_explicit_window_rebuilds_consistently():
    group = _cold_group()
    group.precompute_fixed_base()
    default_window = group._fb_window
    reference = group.power_of_g(123456789)
    group.precompute_fixed_base(default_window + 2)
    assert group._fb_window == default_window + 2
    assert group.power_of_g(123456789) == reference  # values never change


def test_fb_table_bytes_tracks_the_serialized_footprint():
    group = _cold_group()
    assert group.fb_table_bytes == 0
    group.precompute_fixed_base()
    rows = len(group._fb_table)
    cols = len(group._fb_table[0])
    width = (group.p.bit_length() + 7) // 8
    assert group.fb_table_bytes == rows * cols * width


def test_install_fixed_base_accepts_only_matching_tables():
    import pytest

    donor = _cold_group()
    donor.precompute_fixed_base()
    table, window = donor._fb_table, donor._fb_window
    target = _cold_group()
    target.install_fixed_base(table, window)
    assert target.power_of_g(54321) == pow(target.g, 54321, target.p)

    with pytest.raises(ValueError, match="shape"):
        _cold_group().install_fixed_base(table[:-1], window)
    with pytest.raises(ValueError, match="window"):
        _cold_group().install_fixed_base(table, 0)
    doctored = [list(row) for row in table]
    doctored[0][1] = 12345  # not g
    with pytest.raises(ValueError, match="row 0"):
        _cold_group().install_fixed_base(doctored, window)
    mangled = [list(row) for row in table]
    mangled[-1][1] = mangled[-1][2]  # break the base ladder in the top row
    with pytest.raises(ValueError, match="chain"):
        _cold_group().install_fixed_base(mangled, window)


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
    group = _cold_group()
    bases = [pow(group.g, 100 + i, group.p) for i in range(FIXED_BASE_REGISTERED_MAX + 1)]
    for base in bases:
        group.register_fixed_base(base)
    assert list(group._fb_bases) == bases[1:]  # FIFO: the first one went
    oldest = bases[0]
    for e in (0, 1, _Q - 1, _Q + 1, -1):
        assert group.exp(oldest, e) == pow(oldest, e % _Q, group.p)
