"""E18 — preprocessing store: store-file attach vs per-worker recompute.

Claim: attaching the offline-built GROUP_2048 fixed-base table (read the
store file, deserialize, install — what every worker's initializer does)
is >= 3x faster than each worker rebuilding the table with
``precompute_fixed_base`` — so cold-start warm-up drops off the sweep's
critical path, and a process sweep with attached material is no slower
than the recompute-warm-up baseline.  Both speedups are asserted only on
hosts with >= 4 real cores (elsewhere the record still documents the
measurement honestly — the attach ratio is hardware-independent, the
sweep comparison is not).
"""

import os
import tempfile
import time

from conftest import emit, once

from repro.crypto.groups import GROUP_2048, TEST_GROUP, SchnorrGroup
from repro.crypto.preprocessing import deserialize_material
from repro.runtime import SessionPool, SweepConfig
from repro.runtime.material import MaterialStore

SPEEDUP_MIN_CORES = 4
ATTACH_SPEEDUP_FLOOR = 3.0
SWEEP_SESSIONS = 16
SWEEP_PARAMS = dict(n=3, mode="hybrid", phi=4, delta=2)


def _fresh_2048() -> SchnorrGroup:
    return SchnorrGroup(p=GROUP_2048.p, q=GROUP_2048.q, g=GROUP_2048.g)


def _best_of(repeats, fn):
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_e18_store_attach_beats_recompute(benchmark):
    cores = os.cpu_count() or 1

    def run():
        with tempfile.TemporaryDirectory() as root:
            store = MaterialStore(root)
            offline_start = time.perf_counter()
            store.build([GROUP_2048], nonces=16, feldman=4)
            offline_s = time.perf_counter() - offline_start
            blob = store.load_blob(GROUP_2048)

            # What every worker paid before the store: rebuild the table.
            compute_s = _best_of(
                2, lambda: _fresh_2048().precompute_fixed_base()
            )

            # The online phase, exactly as a worker runs it: read the
            # store file, deserialize, install.  A real worker attaches
            # into the module singleton (which exists before the
            # initializer runs), so the target group is constructed
            # outside the timed region.
            path = store.path_for(GROUP_2048)
            target = _fresh_2048()

            def attach():
                deserialize_material(path.read_bytes()).attach(target)

            attach_s = _best_of(2, attach)

            # Correctness before speed: attached == recomputed, entry
            # for entry.
            recomputed = _fresh_2048()
            recomputed.precompute_fixed_base()
            attached = _fresh_2048()
            deserialize_material(blob).attach(attached)
            assert attached._fb_table == recomputed._fb_table

            # Cold sweep wall-clock: shared material vs recompute
            # warm-up, same seeds, both verified against inline digests.
            os.environ["REPRO_MATERIAL_DIR"] = root
            try:
                store.build([TEST_GROUP])  # the sweep workers' parameter set
                sweeps = {}
                for source in ("compute", "shared"):
                    sweep = SessionPool(
                        config=SweepConfig(
                            executor="process", workers=min(cores, 4), material=source,
                        ),
                        **SWEEP_PARAMS,
                    )
                    verdict = sweep.verify(range(SWEEP_SESSIONS))
                    assert verdict.matched
                    sweeps[source] = verdict.report.wall_time_s
            finally:
                del os.environ["REPRO_MATERIAL_DIR"]

        attach_speedup = compute_s / max(attach_s, 1e-9)
        if cores >= SPEEDUP_MIN_CORES:
            assert attach_speedup >= ATTACH_SPEEDUP_FLOOR, (
                f"store-file attach only {attach_speedup:.2f}x faster than "
                f"per-worker recompute on {cores} cores"
            )
            assert sweeps["shared"] <= sweeps["compute"] * 1.05, (
                "shared-material sweep slower than recompute warm-up: "
                f"{sweeps['shared']:.3f}s vs {sweeps['compute']:.3f}s"
            )
        rows = [
            {
                "phase": "offline build (once)",
                "wall_ms": round(offline_s * 1000, 2),
                "per_worker": "no",
            },
            {
                "phase": "recompute in worker",
                "wall_ms": round(compute_s * 1000, 2),
                "per_worker": "yes",
            },
            {
                "phase": "store-file attach in worker",
                "wall_ms": round(attach_s * 1000, 2),
                "per_worker": "yes",
            },
        ]
        stats = {
            "offline_s": offline_s,
            "compute_s": compute_s,
            "attach_s": attach_s,
            "attach_speedup": attach_speedup,
            "blob_bytes": len(blob),
            "sweep_compute_s": sweeps["compute"],
            "sweep_shared_s": sweeps["shared"],
        }
        return rows, stats

    (rows, stats) = once(benchmark, run)
    cores = os.cpu_count() or 1
    emit(
        "E18",
        f"GROUP_2048 warm-up: store-file attach vs recompute ({cores} cores)",
        rows,
        protocol="material",
        n=None,
        rounds=None,
        backend="pooled",
        material_source="shared",
        attach_speedup=round(stats["attach_speedup"], 3),
        attach_ms=round(stats["attach_s"] * 1000, 3),
        compute_ms=round(stats["compute_s"] * 1000, 3),
        offline_build_ms=round(stats["offline_s"] * 1000, 3),
        blob_bytes=stats["blob_bytes"],
        sweep_sessions=SWEEP_SESSIONS,
        sweep_compute_s=round(stats["sweep_compute_s"], 6),
        sweep_shared_s=round(stats["sweep_shared_s"], 6),
        speedup_asserted=cores >= SPEEDUP_MIN_CORES,
    )
