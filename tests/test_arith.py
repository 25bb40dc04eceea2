"""Arithmetic tier: backend selection, value parity, int normalization.

The :class:`~repro.crypto.groups.ArithBackend` seam must be invisible in
results: whatever backend computes, every value crossing a public API
boundary is a built-in ``int`` and equals what the pure-python reference
produces.  These tests pin the selection machinery (explicit, env var,
auto-detection) and the normalization contract that keeps pickled groups,
material blobs and trace digests byte-identical across backends.
"""

from __future__ import annotations

import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import repro.crypto.groups as groups
from repro.crypto.groups import (
    GROUP_2048,
    TEST_GROUP,
    Gmpy2Arith,
    OpenSSLArith,
    PythonArith,
    SchnorrGroup,
    _init_arith_from_env,
    available_arith_backends,
    get_arith_backend,
    jacobi,
    set_arith_backend,
)
from repro.crypto.preprocessing import build_material, deserialize_material, serialize_material

BACKENDS = available_arith_backends()
HAVE_GMPY2 = "gmpy2" in BACKENDS
HAVE_OPENSSL = "openssl" in BACKENDS
needs_openssl = pytest.mark.skipif(not HAVE_OPENSSL, reason="libcrypto not loadable")

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(autouse=True)
def _restore_arith():
    """Every test leaves the process-global backend as it found it."""
    before = get_arith_backend().name
    yield
    set_arith_backend(before)


def fresh_group() -> SchnorrGroup:
    """A TEST_GROUP clone with cold caches (the shipped singleton may be warm)."""
    return SchnorrGroup(p=TEST_GROUP.p, q=TEST_GROUP.q, g=TEST_GROUP.g)


# -- selection --------------------------------------------------------------


def test_python_backend_always_available():
    assert "python" in BACKENDS


def test_set_by_name_and_auto():
    assert set_arith_backend("python").name == "python"
    auto = set_arith_backend("auto")
    expected = next(name for name in ("gmpy2", "openssl", "python") if name in BACKENDS)
    assert auto.name == expected
    assert set_arith_backend(None).name == auto.name


def test_unknown_backend_raises_listing_choices():
    with pytest.raises(ValueError, match="auto"):
        set_arith_backend("bignum9000")


@pytest.mark.skipif(HAVE_GMPY2, reason="gmpy2 installed: the name resolves")
def test_gmpy2_unavailable_raises():
    with pytest.raises(ValueError, match="gmpy2"):
        set_arith_backend("gmpy2")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_ARITH", "python")
    _init_arith_from_env()
    assert get_arith_backend().name == "python"


def test_env_var_unavailable_warns_and_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_ARITH", "bignum9000")
    with pytest.warns(RuntimeWarning, match="falling back"):
        _init_arith_from_env()
    assert get_arith_backend().name in BACKENDS


# -- jacobi / membership fast path ------------------------------------------


def test_jacobi_euler_criterion_on_safe_prime(rng):
    p, q = TEST_GROUP.p, TEST_GROUP.q
    for _ in range(50):
        a = rng.randrange(1, p)
        assert (jacobi(a, p) == 1) == (pow(a, q, p) == 1)


def test_jacobi_edge_cases():
    p = TEST_GROUP.p
    assert jacobi(0, p) == 0
    assert jacobi(p, p) == 0
    assert jacobi(1, p) == 1
    # Multiplicativity: (ab/p) = (a/p)(b/p).
    assert jacobi(6, p) == jacobi(2, p) * jacobi(3, p)


def test_membership_matches_order_check(rng):
    group = fresh_group()
    for _ in range(30):
        a = rng.randrange(1, group.p)
        assert group.is_member(a) == (pow(a, group.q, group.p) == 1)
    assert not group.is_member(0)
    assert not group.is_member(group.p)
    assert not group.is_member(-1)


def test_non_safe_prime_group_keeps_order_check():
    # p = 23 = 2*11 + 1 is safe; use p = 13, q = 3, g = 3 (3^3 = 27 = 1 mod 13)
    # where p != 2q + 1, so membership must run the direct order check.
    group = SchnorrGroup(p=13, q=3, g=3)
    assert not group._safe_prime
    members = {pow(group.g, e, 13) for e in range(3)}
    for a in range(1, 13):
        assert group.is_member(a) == (a in members)


# -- cross-backend value parity ----------------------------------------------


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_group_ops_identical_across_backends(name, rng):
    reference = fresh_group()
    set_arith_backend("python")
    x = reference.random_scalar(rng)
    y = reference.random_scalar(rng)
    h = reference.exp(reference.g, y)
    expected = (
        reference.power_of_g(x),
        reference.exp(h, x),
        reference.inv(h),
        reference.multi_exp(((h, x), (reference.g, y), (reference.exp(h, 3), 5))),
    )
    set_arith_backend(name)
    group = fresh_group()
    actual = (
        group.power_of_g(x),
        group.exp(h, x),
        group.inv(h),
        group.multi_exp(((h, x), (group.g, y), (group.exp(h, 3), 5))),
    )
    assert actual == expected
    assert all(type(value) is int for value in actual)
    group.register_fixed_base(h)  # exp(h, .) now walks a registered-base table
    registered = group.exp(h, x)
    assert registered == expected[1] and type(registered) is int


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_results_are_builtin_ints(name, rng):
    set_arith_backend(name)
    group = fresh_group()
    group.precompute_fixed_base()
    _w, table = group._fb_state
    assert all(type(entry) is int for row in table for entry in row)
    assert type(group.power_of_g(12345)) is int
    assert type(group.exp(group.g + 1, 7)) is int
    assert type(group.inv(5)) is int
    assert type(group.multi_exp(((9, 3), (25, 4)))) is int


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_warmed_group_pickle_round_trip(name):
    # Regression: fixed-base tables built under gmpy2 used to hold mpz
    # entries, which survived into pickles.  A group whose table is
    # built must pickle to pure ints and rebuild cleanly.
    set_arith_backend(name)
    group = fresh_group()
    group.precompute_fixed_base()
    clone = pickle.loads(pickle.dumps(group))
    assert (clone.p, clone.q, clone.g) == (group.p, group.q, group.g)
    assert clone._fb_state is None  # caches never travel
    assert clone.power_of_g(777) == group.power_of_g(777)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_material_blob_identical_across_backends(name):
    set_arith_backend("python")
    reference = serialize_material(build_material(TEST_GROUP, nonces=4, feldman=2))
    set_arith_backend(name)
    blob = serialize_material(build_material(TEST_GROUP, nonces=4, feldman=2))
    assert blob == reference
    material = deserialize_material(blob)
    assert all(type(value) is int for pair in material.nonces for value in (pair.k, pair.r))
    assert material.matches(fresh_group())


# -- property-based parity ---------------------------------------------------


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
@settings(max_examples=60, deadline=None)
@given(
    base=st.integers(min_value=1, max_value=TEST_GROUP.p - 1),
    exponent=st.integers(min_value=0, max_value=TEST_GROUP.q - 1),
)
def test_gmpy2_powmod_matches_python(base, exponent):
    python, native = PythonArith(), BACKENDS["gmpy2"]
    assert isinstance(native, Gmpy2Arith)
    result = native.powmod(base, exponent, TEST_GROUP.p)
    assert result == python.powmod(base, exponent, TEST_GROUP.p)
    assert type(result) is int


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
@settings(max_examples=60, deadline=None)
@given(a=st.integers(min_value=1, max_value=TEST_GROUP.p - 1))
def test_gmpy2_invert_and_jacobi_match_python(a):
    python, native = PythonArith(), BACKENDS["gmpy2"]
    assert native.invert(a, TEST_GROUP.p) == python.invert(a, TEST_GROUP.p)
    assert native.jacobi(a, TEST_GROUP.p) == python.jacobi(a, TEST_GROUP.p)


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
def test_gmpy2_invert_error_type():
    with pytest.raises(ValueError):
        BACKENDS["gmpy2"].invert(0, TEST_GROUP.p)
    with pytest.raises(ValueError):
        PythonArith().invert(0, TEST_GROUP.p)


class _FakeMpz(int):
    """Stands in for gmpy2.mpz: an int subclass, so ``type(x) is int`` fails."""


class _FakeGmpy2:
    """API-faithful gmpy2 stub so Gmpy2Arith's wrapper logic (int
    normalization, error conversion) is covered on python-only hosts."""

    mpz = _FakeMpz

    @staticmethod
    def powmod(base, exponent, modulus):
        return _FakeMpz(pow(int(base), int(exponent), int(modulus)))

    @staticmethod
    def invert(a, modulus):
        try:
            return _FakeMpz(pow(int(a), -1, int(modulus)))
        except ValueError:
            raise ZeroDivisionError("invert() no inverse exists") from None

    @staticmethod
    def jacobi(a, n):
        return jacobi(int(a), int(n))


def test_gmpy2_wrapper_normalizes_and_converts_errors():
    backend = Gmpy2Arith(_FakeGmpy2())
    p = TEST_GROUP.p
    result = backend.powmod(3, 20, p)
    assert result == pow(3, 20, p) and type(result) is int
    inverse = backend.invert(7, p)
    assert inverse == pow(7, -1, p) and type(inverse) is int
    with pytest.raises(ValueError, match="not invertible"):
        backend.invert(0, p)
    assert backend.jacobi(p - 1, p) == jacobi(p - 1, p)
    assert isinstance(backend.to_native(5), _FakeMpz)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=0, max_value=1 << 512))
def test_jacobi_matches_euler_criterion_2048(a):
    p, q = GROUP_2048.p, GROUP_2048.q
    value = a % p
    if value == 0:
        assert jacobi(value, p) == 0
    else:
        assert (jacobi(value, p) == 1) == (pow(value, q, p) == 1)


# -- the libcrypto backend ------------------------------------------------------


def _openssl() -> OpenSSLArith:
    backend = groups._ARITH_BACKENDS["openssl"]
    assert isinstance(backend, OpenSSLArith)
    return backend


@needs_openssl
@pytest.mark.parametrize("group", (TEST_GROUP, GROUP_2048), ids=("256", "2048"))
def test_openssl_powmod_edge_cases_match_pow(group):
    native, p, q = _openssl(), group.p, group.q
    cases = [
        (5, 0),  # exponent 0
        (0, 0),
        (0, 7),  # base 0
        (p, 3),  # base >= p
        (p + 5, q - 1),
        (3 * p + 2, q),
        (-1, 3),  # negative bases reduce into [0, p)
        (-p - 7, q + 1),
        (p - 1, q),  # base p - 1
        (p - 1, 2),
        (1, q - 1),
        (group.g, q - 1),
        (group.g, (1 << 300) + 1),  # exponent wider than the modulus
    ]
    for base, exponent in cases:
        result = native.powmod(base, exponent, p)
        assert result == pow(base, exponent, p), (base, exponent)
        assert type(result) is int


@needs_openssl
def test_openssl_powmod_falls_back_to_pow_where_bn_cannot_serve():
    native = _openssl()
    assert native.powmod(5, 3, 1) == pow(5, 3, 1) == 0  # modulus 1
    for modulus in (2, 10, 1 << 64, TEST_GROUP.p + 1):  # even moduli
        assert native.powmod(7, 12345, modulus) == pow(7, 12345, modulus)
    p = TEST_GROUP.p
    assert native.powmod(3, -1, p) == pow(3, -1, p)  # negative exponent: an inverse
    assert native.powmod(3, -5, p) == pow(3, -5, p)
    with pytest.raises(ValueError):
        native.powmod(0, -1, p)
    with pytest.raises(ValueError):
        native.powmod(3, 2, 0)
    assert native.jacobi(5, 1) == jacobi(5, 1)
    assert native.jacobi(3, 9) == jacobi(3, 9)  # odd composite: BN_kronecker
    assert native.invert(7, p) == pow(7, -1, p)


@needs_openssl
@settings(max_examples=80, deadline=None)
@given(
    base=st.integers(min_value=-(1 << 300), max_value=1 << 300),
    exponent=st.integers(min_value=0, max_value=1 << 260),
    modulus=st.sampled_from((TEST_GROUP.p, TEST_GROUP.q, 97, 3, (1 << 127) - 1)),
)
def test_openssl_powmod_matches_pow(base, exponent, modulus):
    result = _openssl().powmod(base, exponent, modulus)
    assert result == pow(base, exponent, modulus)
    assert type(result) is int


@needs_openssl
@settings(max_examples=80, deadline=None)
@given(
    a=st.integers(min_value=-(1 << 300), max_value=1 << 300),
    n=st.integers(min_value=1, max_value=1 << 260).map(lambda k: 2 * k + 1),
)
def test_openssl_jacobi_matches_python(a, n):
    native = _openssl()
    assert native.jacobi(a, n) == jacobi(a, n)
    assert native.jacobi(a, TEST_GROUP.p) == jacobi(a, TEST_GROUP.p)


@needs_openssl
def test_openssl_powmod_is_exact_under_eight_threads():
    # Each thread gets its own BN_CTX and scratch BIGNUMs; shared state
    # would show as one thread reading another's result.  A short switch
    # interval lets threads interleave between the calls of one powmod.
    import random
    import sys
    import threading

    native = _openssl()
    barrier = threading.Barrier(8)
    failures = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        barrier.wait()
        for _ in range(150):
            group = TEST_GROUP if rng.random() < 0.9 else GROUP_2048
            # 256-bit exponents keep the 2048-bit reference pow cheap.
            base, exponent = rng.randrange(group.p), rng.randrange(TEST_GROUP.q)
            if native.powmod(base, exponent, group.p) != pow(base, exponent, group.p):
                failures.append((seed, base, exponent))
            if native.jacobi(base, group.p) != jacobi(base, group.p):
                failures.append(("jacobi", seed, base))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


@needs_openssl
def test_openssl_keeps_a_bounded_set_of_moduli_per_thread():
    native = _openssl()
    moduli = [(1 << 89) - 1 + 2 * k for k in range(groups._BN_MODULI_MAX + 3)]
    for modulus in moduli:
        assert native.powmod(3, 1000, modulus) == pow(3, 1000, modulus)
    held = native._thread().moduli
    assert len(held) == groups._BN_MODULI_MAX
    assert list(held)[-1] == moduli[-1]  # the oldest went first
    assert native.powmod(3, 1000, moduli[0]) == pow(3, 1000, moduli[0])


@needs_openssl
def test_openssl_process_sweep_matches_inline_digests():
    from repro.runtime import SessionPool, SweepConfig, run_voting_trial

    set_arith_backend("python")
    reference = SessionPool(
        run_voting_trial, config=SweepConfig(executor="inline"), voters=3
    ).run(range(4))
    set_arith_backend("openssl")
    verdict = SessionPool(
        run_voting_trial,
        config=SweepConfig(executor="process", workers=2, chunksize=2),
        voters=3,
    ).verify(range(4))
    assert verdict.matched
    assert verdict.report.executor == "process"
    digests = [r.digest for r in verdict.report.results]
    assert digests == [r.digest for r in reference.results]
    assert [r.outputs for r in verdict.report.results] == [r.outputs for r in reference.results]
    assert all(digests)


def test_loader_oserror_falls_back_to_python_silently(monkeypatch):
    import ctypes

    def refuse(*_args, **_kwargs):
        raise OSError("no libcrypto here")

    monkeypatch.setattr(ctypes, "PyDLL", refuse)
    monkeypatch.setattr(ctypes, "CDLL", refuse)
    detected = groups._detect_backends()
    assert "openssl" not in detected
    monkeypatch.setattr(groups, "_ARITH_BACKENDS", detected)
    monkeypatch.delenv("REPRO_ARITH", raising=False)
    _init_arith_from_env()  # RuntimeWarnings are errors in this module
    assert get_arith_backend().name == ("gmpy2" if HAVE_GMPY2 else "python")
