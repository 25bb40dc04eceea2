"""Online-mode tests: spend the preprocessed pools, deterministically.

The offline/online contract, end to end:

* the :class:`~repro.crypto.randomness.RandomnessSource` seam is
  digest-neutral by default — routing signing/proving/sharing through
  it changed nothing for sample-per-call runs;
* a :class:`~repro.runtime.material.MaterialCursor` spends exactly its
  reserved slice, never double-spends across tasks or workers, and
  falls back to counted sampling on exhaustion;
* pool-consuming runs are digest-pinned separately from per-call runs
  (the spend lands in the trace) yet seed-for-seed reproducible and
  ``--verify``-able across process boundaries;
* a plan pins the exact store blob it was made against, so a rebuilt
  store is sampled, never spent;
* the store ledgers consumption sums so ``repro material inspect``
  reports them, and flags misnamed blobs with a non-zero exit.
"""

import random
import warnings

import pytest

from repro.crypto.groups import TEST_GROUP, SchnorrGroup
from repro.crypto.preprocessing import build_material, group_fingerprint
from repro.crypto.randomness import (
    SampleSource,
    current_source,
    install_source,
    spending,
)
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from repro.crypto.shamir import feldman_share, feldman_verify
from repro.crypto.zkp import cp_prove, cp_verify, pok_prove, pok_verify
from repro.runtime import (
    MaterialCursor,
    MaterialStore,
    OnlinePlan,
    SessionPool,
    SweepConfig,
    online_pool_requirement,
    run_voting_trial,
)
from repro.runtime.material import DEFAULT_NONCES_PER_TASK

VOTING = dict(runner=run_voting_trial, voters=3)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An isolated store that both this process and forked workers see."""
    monkeypatch.setenv("REPRO_MATERIAL_DIR", str(tmp_path))
    return MaterialStore(tmp_path)


def _material(nonces=32, feldman=8, threshold=2):
    return build_material(
        TEST_GROUP, nonces=nonces, feldman=feldman, feldman_threshold=threshold
    )


# ---------------------------------------------------------------------------
# The seam: default source is the ambient one and samples per call
# ---------------------------------------------------------------------------


def test_default_source_is_sample_and_scoped_install_restores():
    assert isinstance(current_source(), SampleSource)
    material = _material()
    cursor = MaterialCursor(material.fingerprint, material, nonce_range=(0, 4))
    with spending(cursor):
        assert current_source() is cursor
    assert isinstance(current_source(), SampleSource)
    previous = install_source(cursor)
    try:
        assert current_source() is cursor
    finally:
        install_source(previous)


def test_sample_source_matches_historical_rng_consumption():
    """The seam must replicate the pre-seam draws exactly (digest pin)."""
    keypair = schnorr_keygen(random.Random(1))
    signature = schnorr_sign(keypair, b"m", random.Random(2))
    rng = random.Random(2)
    k = TEST_GROUP.random_scalar(rng)
    assert signature.r == TEST_GROUP.power_of_g(k)
    e_free_rng_state = rng.random()
    rng2 = random.Random(2)
    TEST_GROUP.random_scalar(rng2)
    assert e_free_rng_state == rng2.random()


# ---------------------------------------------------------------------------
# MaterialCursor: reserved slices, exhaustion, fallback accounting
# ---------------------------------------------------------------------------


def test_cursor_spends_its_reserved_slice_in_order():
    material = _material()
    cursor = MaterialCursor(material.fingerprint, material, nonce_range=(4, 8))
    keypair = schnorr_keygen(random.Random(1))
    rng = random.Random(9)
    with spending(cursor):
        signatures = [schnorr_sign(keypair, bytes([i]), rng) for i in range(4)]
    for i, signature in enumerate(signatures):
        assert signature.r == material.nonces[4 + i].r
        assert schnorr_verify(TEST_GROUP, keypair.public, bytes([i]), signature)
    summary = cursor.spend_summary()
    assert summary["nonces_spent"] == 4
    assert summary["nonces_sampled"] == 0
    assert summary["nonce_range"] == (4, 8)


def test_cursor_exhaustion_falls_back_to_sampling_with_counted_warning():
    material = _material(nonces=2)
    cursor = MaterialCursor(material.fingerprint, material, nonce_range=(0, 8))
    keypair = schnorr_keygen(random.Random(1))
    rng = random.Random(3)
    with spending(cursor):
        with pytest.warns(RuntimeWarning, match="falling back to sampling"):
            signatures = [schnorr_sign(keypair, bytes([i]), rng) for i in range(5)]
    for i, signature in enumerate(signatures):
        assert schnorr_verify(TEST_GROUP, keypair.public, bytes([i]), signature)
    summary = cursor.spend_summary()
    assert summary["nonces_spent"] == 2  # the whole built pool
    assert summary["nonces_sampled"] == 3  # the exhausted tail, counted


def test_cursor_pok_and_cp_proofs_spend_pool_nonces():
    material = _material()
    cursor = MaterialCursor(material.fingerprint, material, nonce_range=(0, 8))
    rng = random.Random(5)
    secret = 1234567
    public = TEST_GROUP.power_of_g(secret)
    base2 = TEST_GROUP.power_of_g(99)
    public2 = TEST_GROUP.exp(base2, secret)
    with spending(cursor):
        pok = pok_prove(TEST_GROUP, TEST_GROUP.g, public, secret, rng)
        cp = cp_prove(
            TEST_GROUP, TEST_GROUP.g, public, base2, public2, secret, rng
        )
    assert pok_verify(TEST_GROUP, TEST_GROUP.g, public, pok)
    assert cp_verify(TEST_GROUP, TEST_GROUP.g, public, base2, public2, cp)
    assert pok.a == material.nonces[0].r  # g-based commitment straight off the pool
    assert cursor.spend_summary()["nonces_spent"] == 2


def test_cursor_feldman_entry_spend_verifies_and_respects_threshold():
    material = _material(feldman=4, threshold=2)
    cursor = MaterialCursor(
        material.fingerprint, material, feldman_range=(1, 3)
    )
    rng = random.Random(7)
    with spending(cursor):
        shares, commitment = feldman_share(TEST_GROUP, 42, 2, 5, rng)
    for share in shares:
        assert feldman_verify(TEST_GROUP, share, commitment)
    # Tail commitments came straight from the pool entry; C_0 = g^42.
    assert commitment.commitments[1:] == material.feldman[1].commitments[1:]
    assert commitment.commitments[0] == TEST_GROUP.power_of_g(42)
    assert cursor.spend_summary()["feldman_spent"] == 1
    # A mismatched threshold cannot use the entry: counted fallback.
    with spending(cursor):
        with pytest.warns(RuntimeWarning):
            shares3, commitment3 = feldman_share(TEST_GROUP, 7, 3, 5, rng)
    assert len(commitment3.commitments) == 4
    for share in shares3:
        assert feldman_verify(TEST_GROUP, share, commitment3)
    assert cursor.spend_summary()["feldman_sampled"] == 1


def test_cursor_wrong_group_samples_instead_of_misspending():
    material = _material()
    other = SchnorrGroup(p=23, q=11, g=2)
    cursor = MaterialCursor(material.fingerprint, material, nonce_range=(0, 8))
    with spending(cursor):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            k = current_source().nonce_scalar(other, random.Random(1))
    assert 1 <= k < other.q
    assert cursor.spend_summary()["nonces_spent"] == 0
    assert cursor.spend_summary()["nonces_sampled"] == 1


# ---------------------------------------------------------------------------
# OnlinePlan: partitioning, sizing, slot assignment
# ---------------------------------------------------------------------------


def test_plan_partitions_tasks_into_disjoint_slices(store):
    store.build([TEST_GROUP], nonces=64, feldman=16)
    plan = OnlinePlan.for_tasks([10, 11, 12], store=store)
    ranges = [plan.ranges_for(plan.slot_of(task)) for task in (10, 11, 12)]
    nonce_ranges = [r[0] for r in ranges]
    assert nonce_ranges == [(0, 8), (8, 16), (16, 24)]
    for i, (start, stop) in enumerate(nonce_ranges):
        for j, (start2, stop2) in enumerate(nonce_ranges):
            if i != j:
                assert stop <= start2 or stop2 <= start  # pairwise disjoint
    with pytest.raises(KeyError):
        plan.slot_of(99)


def test_plan_explicit_slots_must_cover_tasks(store):
    store.build([TEST_GROUP], nonces=16, feldman=4)
    with pytest.raises(ValueError, match="slots"):
        OnlinePlan.for_tasks([1, 2, 3], slots=[0, 1], store=store)
    plan = OnlinePlan.for_tasks([1, 2, 3], slots=[0, 0, 1], store=store)
    assert plan.slot_of(1) == plan.slot_of(2) == 0  # shared replay slot
    assert plan.required_pools()["nonces"] == 2 * DEFAULT_NONCES_PER_TASK


def test_online_pool_requirement_sizes_linearly():
    assert online_pool_requirement(16) == {"nonces": 128, "feldman": 32}
    assert online_pool_requirement(0) == {"nonces": 0, "feldman": 0}
    with pytest.raises(ValueError):
        online_pool_requirement(-1)


def test_plan_open_without_material_degrades_to_counted_sampling(store, monkeypatch):
    store.build([TEST_GROUP], nonces=8, feldman=2)
    plan = OnlinePlan.for_tasks([0], store=store)
    store.clear()
    # An attach left in this process's registry by an earlier test would
    # serve the plan; start from an empty one.
    monkeypatch.setattr("repro.runtime.material._ATTACHED", {})
    # Material gone (and the plan's pool shape matches nothing cached):
    # the cursor must keep the trial alive, sampling everything.
    with pytest.warns(RuntimeWarning, match="unavailable or stale"):
        cursor = plan.open(0)
    keypair = schnorr_keygen(random.Random(1))
    with spending(cursor):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            signature = schnorr_sign(keypair, b"m", random.Random(2))
    assert schnorr_verify(TEST_GROUP, keypair.public, b"m", signature)
    assert cursor.spend_summary()["nonces_spent"] == 0
    assert cursor.spend_summary()["nonces_sampled"] == 1


# ---------------------------------------------------------------------------
# Pools and sweeps: digest pinning, reproducibility, verify
# ---------------------------------------------------------------------------


def test_online_requires_pool_bearing_material_and_warmup():
    with pytest.raises(ValueError, match="material"):
        SweepConfig(online=True)
    with pytest.raises(ValueError, match="warmup"):
        SweepConfig(online=True, material="disk", warmup=False)


def test_online_run_is_digest_pinned_and_reproducible(store):
    store.build([TEST_GROUP], nonces=64, feldman=16)
    online = SessionPool(
        config=SweepConfig(
            executor="inline", material="disk", online=True, trace="full",
        ),
        **VOTING,
    ).run(range(3))
    baseline = SessionPool(
        config=SweepConfig(executor="inline", trace="full"), **VOTING,
    ).run(range(3))
    replay = SessionPool(
        config=SweepConfig(
            executor="inline", material="disk", online=True, trace="full",
        ),
        **VOTING,
    ).run(range(3))
    for spent, plain, again in zip(
        online.results, baseline.results, replay.results
    ):
        assert spent.online["nonces_spent"] == 3  # one ballot proof per voter
        assert plain.online is None
        # Pool-consuming digests are pinned apart from per-call digests...
        assert spent.digest != plain.digest
        # ...but seed-for-seed reproducible against the same plan.
        assert spent.digest == again.digest
    assert online.online_spend["nonces_spent"] == 9
    assert online.summary()["online"] is True


def _pool_online_run():
    return SessionPool(
        config=SweepConfig(executor="inline", material="disk", online=True), **VOTING,
    ).run(range(2))


def _host_online_run():
    from repro.runtime import AsyncSessionHost

    config = SweepConfig(
        backend="async", executor="inline", material="disk", online=True
    )
    return AsyncSessionHost(config=config, voters=3).run(range(2))


@pytest.mark.parametrize(
    "run", [_pool_online_run, _host_online_run], ids=["pool", "host"]
)
def test_failed_ledger_write_warns_and_still_reports_spend(store, monkeypatch, run):
    store.build([TEST_GROUP], nonces=64, feldman=16)

    def refuse(*args, **kwargs):
        raise OSError("read-only store")

    monkeypatch.setattr(MaterialStore, "record_spend", refuse)
    with pytest.warns(RuntimeWarning, match="could not record"):
        report = run()
    assert report.online_spend["nonces_spent"] == 6  # 2 sessions x 3 ballots
    assert report.online_spend["nonces_sampled"] == 0


def test_online_spend_event_recorded_in_trace(store):
    store.build([TEST_GROUP], nonces=64, feldman=16)
    plan = OnlinePlan.for_tasks([5], store=store)
    from repro.runtime import warm_with_material

    warm_with_material("disk")
    from repro.runtime.pool import run_voting_trial as trial

    result = trial(5, voters=3, online=plan, trace="full", backend="sequential")
    assert result.online["nonce_range"] == (0, 8)
    assert result.online["fingerprint"] == plan.fingerprint
    # The spend summary itself is what got hashed into the digest: rerun
    # with a *different* slot and the digest moves even though the
    # election itself is identical only when the spent entries differ.
    plan2 = OnlinePlan.for_tasks([5], slots=[1], store=store)
    result2 = trial(5, voters=3, online=plan2, trace="full", backend="sequential")
    assert result2.online["nonce_range"] == (8, 16)
    assert result.digest != result2.digest


def test_process_sweep_verify_and_no_double_spend(store):
    store.build([TEST_GROUP], nonces=6 * 8, feldman=12)
    sweep = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, material="shared", online=True, trace="full",
        ),
        **VOTING,
    )
    verdict = sweep.verify(range(6))
    assert verdict.matched  # process spend == inline replay, seed for seed
    ranges = [result.online["nonce_range"] for result in verdict.report.results]
    assert len(set(ranges)) == len(ranges)
    for i, (start, stop) in enumerate(ranges):
        for j, (start2, stop2) in enumerate(ranges):
            if i != j:
                assert stop <= start2 or stop2 <= start, (
                    f"workers double-spent: {ranges}"
                )
    assert verdict.report.online_spend["nonces_spent"] == 18
    assert verdict.report.online_spend["nonces_sampled"] == 0


def test_exhausted_pool_mid_sweep_still_verifies(store):
    # Pools sized for ~1.5 tasks: later slots run dry and sample, and the
    # sweep must stay digest-equal to the inline replay (the fallback is
    # part of the pinned behavior, not a divergence).
    store.build([TEST_GROUP], nonces=4, feldman=2)
    sweep = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, material="shared", online=True, trace="full",
        ),
        **VOTING,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        verdict = sweep.verify(range(4))
    assert verdict.matched
    spend = verdict.report.online_spend
    assert spend["nonces_spent"] > 0
    assert spend["nonces_sampled"] > 0  # the counted fallback
    assert spend["nonces_spent"] + spend["nonces_sampled"] == 4 * 3


def test_sweep_plan_and_report_carry_the_online_axis(store):
    store.build([TEST_GROUP], nonces=32, feldman=8)
    sweep = SessionPool(
        config=SweepConfig(executor="process", workers=2, material="disk", online=True),
        **VOTING,
    )
    plan = sweep.plan(4)
    assert plan.online is True
    assert plan.summary()["online"] is True
    offline = SessionPool(
        config=SweepConfig(executor="process", workers=2), **VOTING,
    ).plan(4)
    assert offline.online is False


# ---------------------------------------------------------------------------
# Scenario matrix: shared slots for backend replays
# ---------------------------------------------------------------------------


def test_matrix_online_slots_share_backend_replays():
    from repro.scenarios import default_matrix
    from repro.scenarios.runner import online_slots_for

    specs = default_matrix(seed=0).expand()[:12]
    slots = online_slots_for(specs)
    by_key = {}
    for spec, slot in zip(specs, slots):
        key = (spec.stack, spec.adversary, spec.faults.name, spec.seed)
        by_key.setdefault(key, set()).add(slot)
    for key, assigned in by_key.items():
        assert len(assigned) == 1, f"replay group {key} split across slots"
    assert len({next(iter(v)) for v in by_key.values()}) == len(by_key)


def test_matrix_online_run_keeps_cross_backend_digests(store):
    from repro.scenarios import default_matrix
    from repro.scenarios.runner import run_matrix

    store.build([TEST_GROUP], nonces=64, feldman=16)
    specs = [
        spec for spec in default_matrix(seed=0).expand()
        if spec.stack == "ubc"
    ][:6]
    report = run_matrix(
        specs, config=SweepConfig(executor="inline", material="disk", online=True),
    )
    assert report.ok
    assert report.backend_mismatches() == []


# ---------------------------------------------------------------------------
# Store ledger and inspect
# ---------------------------------------------------------------------------


def test_sweep_ledgers_consumption_and_inspect_reports_it(store):
    store.build([TEST_GROUP], nonces=64, feldman=16)
    SessionPool(
        config=SweepConfig(executor="inline", material="disk", online=True), **VOTING,
    ).run(range(2))
    records = {
        r["fingerprint"]: r for r in store.inspect() if r.get("ok")
    }
    record = records[group_fingerprint(TEST_GROUP)]
    assert record["nonces"] == 64
    assert record["nonces_spent"] == 6
    assert record["feldman_spent"] == 0
    assert "nonces_remaining" not in record


def test_inspect_flags_misnamed_blob_as_integrity_failure(store):
    paths = store.build([TEST_GROUP], nonces=4, feldman=1)
    assert len(paths) == 1
    source = store.path_for(TEST_GROUP)
    renamed = store.root / ("0" * 16 + store.SUFFIX)
    source.rename(renamed)
    records = store.inspect()
    assert len(records) == 1
    assert records[0]["ok"] is False
    assert "named" in records[0]["error"]


# ---------------------------------------------------------------------------
# Blob pinning: a plan spends only the blob it was made against
# ---------------------------------------------------------------------------


def test_same_seed_rebuild_is_sampled_never_spent(store, monkeypatch):
    """A rebuild under the same seed keeps the nonce prefix but redraws
    every Feldman entry (the build draws them after the nonces from one
    stream).  A plan made before the rebuild must not spend the new
    blob: with the registry cleared, its cursor samples, counted."""
    store.build([TEST_GROUP], nonces=24, feldman=8, seed=0)
    planned = store.load(TEST_GROUP)
    plan = OnlinePlan.for_tasks([0], store=store)
    rebuilt = store.build([TEST_GROUP], nonces=32, feldman=8, seed=0)[0]
    assert rebuilt.nonces[:24] == planned.nonces
    assert all(
        new.coefficients != old.coefficients
        for new, old in zip(rebuilt.feldman, planned.feldman)
    )
    monkeypatch.setattr("repro.runtime.material._ATTACHED", {})
    rng = random.Random(7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cursor = plan.open(0)
        with spending(cursor):
            _, commitment = feldman_share(TEST_GROUP, 42, 2, 5, rng)
            schnorr_sign(schnorr_keygen(random.Random(1)), b"m", rng)
    rebuilt_tails = {entry.commitments[1:] for entry in rebuilt.feldman}
    assert commitment.commitments[1:] not in rebuilt_tails
    summary = cursor.spend_summary()
    assert (summary["feldman_spent"], summary["feldman_sampled"]) == (0, 1)
    assert (summary["nonces_spent"], summary["nonces_sampled"]) == (0, 1)
    assert any("unavailable or stale" in str(w.message) for w in caught)


def test_plan_pins_the_blob_and_open_reads_no_store(store, monkeypatch):
    store.build([TEST_GROUP], nonces=16, feldman=4)
    plan = OnlinePlan.for_tasks([0, 1], store=store)
    assert plan.blob_sha256 == store.load_blob(TEST_GROUP)[4:36].hex()
    assert (plan.pool_nonces, plan.pool_feldman) == (16, 4)
    plan.open(0)  # the first open may load the blob into the registry

    def refuse(*args, **kwargs):
        raise AssertionError("per-session open read the store")

    monkeypatch.setattr(MaterialStore, "load_fingerprint", refuse)
    cursor = plan.open(1)
    assert cursor.material is not None
    assert cursor.nonce_range == (8, 16)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_material_build_for_sweep_sizes_pools(store, capsys):
    from repro.cli import main

    assert main(["material", "build", "--for-sweep", "6", "--feldman", "2"]) == 0
    out = capsys.readouterr().out
    assert "sized for a 6-task online sweep: 128 nonces, 12 feldman" in out
    record = next(r for r in store.inspect() if r["bits"] == 256)
    assert record["nonces"] == 128  # --nonces default already covers 6*8
    assert record["feldman"] == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["material", "build", "--nonces", "-1"],
        ["material", "build", "--feldman", "-1"],
    ],
)
def test_cli_material_negative_pool_sizes_exit_2(store, capsys, argv):
    from repro.cli import main

    assert main(argv) == 2
    assert f"{argv[2]} must be >= 0" in capsys.readouterr().err
    assert store.inspect() == []


def test_cli_sweep_online_verify_json(store, capsys):
    import json

    from repro.cli import main

    assert main(["material", "build", "--for-sweep", "6"]) == 0
    capsys.readouterr()
    code = main([
        "sweep", "--sessions", "6", "--workload", "voting",
        "--executor", "process", "--workers", "2",
        "--material", "shared", "--online", "--verify", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["digests_match"] is True
    assert payload["plan"]["online"] is True
    assert payload["report"]["online"] is True
    assert payload["report"]["nonces_spent"] == 6 * 4  # one per ballot, n=4
    assert payload["reference"]["nonces_spent"] == 6 * 4


def test_cli_sweep_online_requires_pool_material(capsys):
    from repro.cli import main

    assert main(["sweep", "--sessions", "2", "--online"]) == 2
    assert "material" in capsys.readouterr().err


def test_cli_bench_online_skips_digest_comparison(store, capsys):
    from repro.cli import main

    store.build([TEST_GROUP], nonces=64, feldman=8)
    code = main([
        "bench", "--sessions", "3", "--n", "3", "--executor", "inline",
        "--material", "disk", "--online", "--trace", "full", "--compare",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "digest-pinned separately" in out
    assert "match sequential reference" not in out


def test_cli_scenarios_online_smoke(store, capsys):
    from repro.cli import main

    store.build([TEST_GROUP], nonces=64, feldman=8)
    code = main([
        "scenarios", "run", "--cell", "ubc/", "--material", "disk", "--online",
    ])
    assert code == 0
    assert "scenario matrix" in capsys.readouterr().out


def test_cli_material_inspect_misnamed_blob_exits_nonzero(store, capsys):
    from repro.cli import main

    store.build([TEST_GROUP], nonces=2, feldman=1)
    store.path_for(TEST_GROUP).rename(store.root / ("f" * 16 + store.SUFFIX))
    assert main(["material", "inspect"]) == 1
    captured = capsys.readouterr()
    assert "INTEGRITY" in captured.err
