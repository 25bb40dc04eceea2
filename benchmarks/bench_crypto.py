"""E15 — Group arithmetic acceleration: fixed-base windows, multi-exp, BSGS.

Claims: (i) fixed-base exponentiation via the precomputed window table is
at least 3x faster than naive ``pow`` at test parameters (and the results
are bit-identical); (ii) baby-step/giant-step recovers small discrete
logs orders of magnitude faster than the former linear scan; (iii) the
accelerated paths speed up the real voting hot path (ballot proof
generation + verification).
"""

import random
import time
from functools import partial

import pytest
from conftest import emit, once

from repro.crypto.groups import TEST_GROUP, SchnorrGroup
from repro.crypto.zkp import ballot_prove, ballot_verify


def _fresh_group() -> SchnorrGroup:
    """A TEST_GROUP clone with cold caches (tables build per instance)."""
    return SchnorrGroup(p=TEST_GROUP.p, q=TEST_GROUP.q, g=TEST_GROUP.g)


def _best_of(repeats, fn):
    """Min wall time over ``repeats`` passes — robust to background load
    (a spike inflates a single pass, never the minimum)."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


@pytest.mark.parametrize("base_kind", ("g", "registered"))
def test_e15_fixed_base_speedup(benchmark, base_kind):
    """``g`` uses its own table; a registered base (an election's ``w`` or
    ``r``) uses the narrower per-base table behind :meth:`exp`."""

    def sweep():
        group = _fresh_group()
        rng = random.Random(15)
        exponents = [rng.randrange(1, group.q) for _ in range(2000)]
        if base_kind == "g":
            base, op = group.g, "power_of_g"
            warm, windowed = group.precompute_fixed_base, group.power_of_g
        else:
            base, op = group.power_of_g(rng.randrange(1, group.q)), "exp"
            warm = partial(group.register_fixed_base, base)
            windowed = partial(group.exp, base)

        naive_s, naive = _best_of(3, lambda: [pow(base, e, group.p) for e in exponents])
        warm()
        fast_s, fast = _best_of(3, lambda: [windowed(e) for e in exponents])

        assert naive == fast  # bit-identical results
        speedup = naive_s / fast_s
        assert speedup >= 3.0, f"fixed-base speedup only {speedup:.2f}x ({base_kind})"
        return [
            {
                "op": op,
                "base": base_kind,
                "exps": len(exponents),
                "naive_us": round(naive_s / len(exponents) * 1e6, 2),
                "windowed_us": round(fast_s / len(exponents) * 1e6, 2),
                "speedup": round(speedup, 2),
            }
        ]

    rows = once(benchmark, sweep)
    if base_kind == "g":
        experiment, title = "E15", "Fixed-base window table: >= 3x over naive pow, bit-identical"
    else:
        experiment, title = "E15d", "Registered-base window table: >= 3x over naive pow, bit-identical"
    emit(
        experiment,
        title,
        rows,
        protocol="crypto-groups",
        n=None,
        rounds=None,
        op=rows[0]["op"],
    )


def test_e15_bsgs_vs_linear(benchmark):
    def sweep():
        group = TEST_GROUP
        rows = []
        for exponent in (1_000, 50_000, 900_000):
            target = group.power_of_g(exponent)

            start = time.perf_counter()
            found = group.discrete_log_small(target)
            bsgs_s = time.perf_counter() - start
            assert found == exponent

            # The former linear scan, timed on the same target.
            start = time.perf_counter()
            accumulator = 1
            linear = None
            for candidate in range(1 << 20):
                if accumulator == target:
                    linear = candidate
                    break
                accumulator = group.mul(accumulator, group.g)
            linear_s = time.perf_counter() - start
            assert linear == exponent

            rows.append(
                {
                    "exponent": exponent,
                    "bsgs_ms": round(bsgs_s * 1000, 3),
                    "linear_ms": round(linear_s * 1000, 3),
                    "speedup": round(linear_s / bsgs_s, 1),
                }
            )
        # The tally-sized cases must be dramatically faster.
        assert rows[-1]["speedup"] > 10
        return rows

    rows = once(benchmark, sweep)
    emit(
        "E15b",
        "Baby-step/giant-step discrete log vs the former linear scan",
        rows,
        protocol="crypto-groups",
        n=None,
        rounds=None,
        op="discrete_log_small",
    )


def test_e15_ballot_hot_path(benchmark):
    def sweep():
        group = TEST_GROUP
        rng = random.Random(16)
        choices = list(range(4))
        seed_elt = group.random_element(rng)
        trials = 40

        start = time.perf_counter()
        checked = 0
        for _ in range(trials):
            secret = group.random_scalar(rng)
            w = group.power_of_g(secret)
            vote = rng.choice(choices)
            ballot = group.mul(group.exp(seed_elt, secret), group.power_of_g(vote))
            proof = ballot_prove(
                group, seed_elt, w, ballot, secret, vote, choices, rng
            )
            assert ballot_verify(group, seed_elt, w, ballot, proof, choices)
            checked += 1
        elapsed = time.perf_counter() - start
        return [
            {
                "ballots": checked,
                "choices": len(choices),
                "prove_verify_ms": round(elapsed / trials * 1000, 3),
            }
        ]

    rows = once(benchmark, sweep)
    emit(
        "E15c",
        "Voting hot path: ballot OR-proof prove+verify under acceleration",
        rows,
        protocol="voting-zkp",
        n=None,
        rounds=None,
        op="ballot_prove+verify",
    )


def test_e15_fixed_base_wallclock(benchmark):
    group = TEST_GROUP
    group.precompute_fixed_base()
    rng = random.Random(17)
    benchmark(lambda: group.power_of_g(rng.randrange(1, group.q)))


# ---------------------------------------------------------------------------
# E20 — Arithmetic tier: gmpy2 vs pure-python primitives
# ---------------------------------------------------------------------------


def test_e20_arith_backend_speedup(benchmark):
    """E20: native (gmpy2) vs pure-python big-integer arithmetic.

    Asserted only where gmpy2 is importable (the optional ``native``
    extra); a python-only host records an honest fallback row instead —
    values are identical across tiers either way, so the record is purely
    about speed.
    """
    from repro.crypto.groups import (
        GROUP_2048,
        available_arith_backends,
        get_arith_backend,
        set_arith_backend,
    )

    have_gmpy2 = "gmpy2" in available_arith_backends()

    def sweep():
        rng = random.Random(20)
        group = GROUP_2048
        exponents = [rng.randrange(1, group.q) for _ in range(40)]
        bases = [pow(group.g, e, group.p) for e in exponents[:8]]
        pairs = tuple(zip(bases, exponents[:8]))

        before = get_arith_backend().name
        timings = {}
        results = {}
        try:
            for name in ("python", "gmpy2") if have_gmpy2 else ("python",):
                backend = set_arith_backend(name)
                scratch = SchnorrGroup(p=group.p, q=group.q, g=group.g)
                modexp_s, modexp = _best_of(
                    2,
                    lambda backend=backend: [
                        backend.powmod(base, exponent, group.p)
                        for base, exponent in zip(bases * 5, exponents)
                    ],
                )
                multi_s, multi = _best_of(2, lambda scratch=scratch: scratch.multi_exp(pairs))
                timings[name] = (modexp_s, multi_s)
                results[name] = (modexp, multi)
        finally:
            set_arith_backend(before)

        rows = []
        if have_gmpy2:
            assert results["gmpy2"] == results["python"]  # value parity
            modexp_speedup = timings["python"][0] / timings["gmpy2"][0]
            assert modexp_speedup >= 1.2, (
                f"gmpy2 modexp only {modexp_speedup:.2f}x over python"
            )
            for name in ("python", "gmpy2"):
                modexp_s, multi_s = timings[name]
                rows.append(
                    {
                        "backend": name,
                        "modexp_2048_ms": round(modexp_s * 1000, 2),
                        "multi_exp_8_ms": round(multi_s * 1000, 2),
                        "modexp_speedup": round(
                            timings["python"][0] / modexp_s, 2
                        ),
                    }
                )
        else:
            modexp_s, multi_s = timings["python"]
            rows.append(
                {
                    "backend": "python",
                    "modexp_2048_ms": round(modexp_s * 1000, 2),
                    "multi_exp_8_ms": round(multi_s * 1000, 2),
                    "modexp_speedup": "n/a (gmpy2 unavailable)",
                }
            )
        return rows

    rows = once(benchmark, sweep)
    emit(
        "E20",
        "Arithmetic tier: gmpy2 vs pure-python (2048-bit primitives)",
        rows,
        protocol="crypto-arith",
        n=None,
        rounds=None,
        op="powmod+multi_exp",
        gmpy2_available=have_gmpy2,
        speedup_asserted=have_gmpy2,
    )
