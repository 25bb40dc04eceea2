"""E19 — online mode: spend preprocessed nonce pools vs sample per call.

Claim: Schnorr signing that *spends* a preprocessed ``(k, g^k)`` pool
entry (the online phase of the offline/online split) is at least 2x
faster per signature than sampling the nonce and exponentiating inside
the call, because the fixed-base exponentiation — the dominant cost at
production parameters — moved to the offline phase.  The ratio is a
single-process crypto property, so unlike E17/E18 it is asserted on
every host; an end-to-end online voting sweep (ballots burn pool
nonces) is verified for seed-for-seed digest equality alongside, with
its wall-clock recorded for the cross-PR trajectory.
"""

import os
import tempfile
import time

from conftest import emit, once

from repro.crypto.groups import GROUP_2048, TEST_GROUP, SchnorrGroup
from repro.crypto.preprocessing import build_material
from repro.crypto.randomness import spending
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from repro.runtime import MaterialStore, SessionPool, SweepConfig, run_voting_trial
from repro.runtime.material import MaterialCursor

ONLINE_SPEEDUP_FLOOR = 2.0
SIGNATURES = 48
SWEEP_SESSIONS = 8


def _fresh_2048() -> SchnorrGroup:
    return SchnorrGroup(p=GROUP_2048.p, q=GROUP_2048.q, g=GROUP_2048.g)


def _sign_many(keypair, rng, count):
    start = time.perf_counter()
    signatures = [
        schnorr_sign(keypair, f"msg{i}".encode(), rng) for i in range(count)
    ]
    return time.perf_counter() - start, signatures


def test_e19_online_signing_beats_per_call(benchmark):
    import random

    def run():
        group = _fresh_2048()
        group.precompute_fixed_base()  # warm, as an attached worker would be
        material = build_material(group, nonces=SIGNATURES, feldman=0)
        keypair = schnorr_keygen(random.Random(7), group=group)

        # Per-call baseline: every signature samples k and pays g^k.
        percall_s, percall_sigs = _sign_many(
            keypair, random.Random(11), SIGNATURES
        )

        # Online: the same signatures spend the preprocessed pool.
        cursor = MaterialCursor(
            material.fingerprint, material, nonce_range=(0, SIGNATURES)
        )
        with spending(cursor):
            online_s, online_sigs = _sign_many(
                keypair, random.Random(11), SIGNATURES
            )

        # Correctness before speed: every signature verifies, the whole
        # pool was spent, and nothing fell back to sampling.
        for i, signature in enumerate(percall_sigs + online_sigs):
            assert schnorr_verify(
                group, keypair.public, f"msg{i % SIGNATURES}".encode(), signature
            )
        spend = cursor.spend_summary()
        assert spend["nonces_spent"] == SIGNATURES
        assert spend["nonces_sampled"] == 0

        speedup = percall_s / max(online_s, 1e-9)
        assert speedup >= ONLINE_SPEEDUP_FLOOR, (
            f"online signing only {speedup:.2f}x faster than per-call "
            f"({online_s * 1000:.1f}ms vs {percall_s * 1000:.1f}ms for "
            f"{SIGNATURES} signatures)"
        )

        # End to end: an online voting sweep over the disk store, digest
        # -verified against the inline reference spending the same plan.
        with tempfile.TemporaryDirectory() as root:
            os.environ["REPRO_MATERIAL_DIR"] = root
            try:
                MaterialStore(root).build(
                    [TEST_GROUP], nonces=SWEEP_SESSIONS * 8, feldman=8
                )
                sweep = SessionPool(
                    runner=run_voting_trial,
                    voters=3,
                    config=SweepConfig(
                        executor="process", workers=min(os.cpu_count() or 1, 4),
                        material="shared", online=True, trace="full",
                    ),
                )
                verdict = sweep.verify(range(SWEEP_SESSIONS))
                assert verdict.matched, "online sweep diverged from inline replay"
                assert verdict.report.online_spend["nonces_spent"] > 0
                sweep_s = verdict.report.wall_time_s
            finally:
                del os.environ["REPRO_MATERIAL_DIR"]

        rows = [
            {
                "path": "sample per call (g^k online)",
                "signatures": SIGNATURES,
                "wall_ms": round(percall_s * 1000, 2),
                "per_sig_us": round(percall_s / SIGNATURES * 1e6, 1),
            },
            {
                "path": "spend preprocessed pool",
                "signatures": SIGNATURES,
                "wall_ms": round(online_s * 1000, 2),
                "per_sig_us": round(online_s / SIGNATURES * 1e6, 1),
            },
        ]
        stats = {
            "percall_s": percall_s,
            "online_s": online_s,
            "speedup": speedup,
            "sweep_s": sweep_s,
        }
        return rows, stats

    (rows, stats) = once(benchmark, run)
    emit(
        "E19",
        f"GROUP_2048 signing: pool spend vs per-call ({SIGNATURES} signatures)",
        rows,
        protocol="schnorr",
        n=None,
        rounds=None,
        backend="pooled",
        material_source="disk",
        online=True,
        online_speedup=round(stats["speedup"], 3),
        percall_ms=round(stats["percall_s"] * 1000, 3),
        online_ms=round(stats["online_s"] * 1000, 3),
        online_sweep_s=round(stats["sweep_s"], 6),
        sweep_sessions=SWEEP_SESSIONS,
        signatures=SIGNATURES,
    )
