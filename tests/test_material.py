"""Preprocessing store tests: offline build, online attach, corruption.

The store's contract, end to end:

* the offline phase is deterministic and round-trips through a
  versioned, integrity-hashed blob;
* the online phase attaches value-identical tables, so seed-for-seed
  trace digests never depend on the material source
  (compute == disk == shared);
* every corruption (truncated, garbage, bit-flipped) degrades to
  compute with a warning — it never crashes a worker, and never changes
  results;
* the spend-ledger sidecar inherits the same posture: a truncated or
  garbage sidecar reads as zeros and is replaced by the next record,
  never a crashed worker, and sweeps stay ``--verify``-clean
  throughout.
"""

import json
import pathlib
import random
import threading

import pytest

from repro.crypto.groups import GROUP_2048, TEST_GROUP, SchnorrGroup
from repro.crypto.preprocessing import (
    MaterialError,
    MaterialFormatError,
    MaterialIntegrityError,
    build_material,
    deserialize_material,
    group_fingerprint,
    serialize_material,
)
from repro.crypto.randomness import spending
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.crypto.shamir import Share, _evaluate, feldman_verify
from repro.runtime import SessionPool, SweepConfig, run_voting_trial
from repro.runtime.material import (
    MaterialHandle,
    MaterialRef,
    MaterialStore,
    OnlinePlan,
    attached_material,
    publish_material,
    resolve_material_source,
    warm_with_material,
)

PARAMS = dict(n=3, mode="hybrid", phi=4, delta=2)
VOTING = dict(runner=run_voting_trial, voters=3)


def _fresh_group() -> SchnorrGroup:
    return SchnorrGroup(p=TEST_GROUP.p, q=TEST_GROUP.q, g=TEST_GROUP.g)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An isolated store that both this process and forked workers see."""
    monkeypatch.setenv("REPRO_MATERIAL_DIR", str(tmp_path))
    return MaterialStore(tmp_path)


# ---------------------------------------------------------------------------
# Offline phase: build + serialization round-trip
# ---------------------------------------------------------------------------


def test_fingerprint_stable_and_parameter_bound():
    assert group_fingerprint(TEST_GROUP) == group_fingerprint(_fresh_group())
    assert group_fingerprint(TEST_GROUP) != group_fingerprint(GROUP_2048)
    assert len(group_fingerprint(TEST_GROUP)) == 16


def test_build_is_deterministic_in_seed():
    one = build_material(TEST_GROUP, nonces=4, feldman=2, seed=7)
    two = build_material(TEST_GROUP, nonces=4, feldman=2, seed=7)
    other = build_material(TEST_GROUP, nonces=4, feldman=2, seed=8)
    assert serialize_material(one) == serialize_material(two)
    assert serialize_material(one) != serialize_material(other)


def test_serialization_roundtrip():
    material = build_material(TEST_GROUP, nonces=6, feldman=3, feldman_threshold=2)
    clone = deserialize_material(serialize_material(material))
    assert clone.fb_table == material.fb_table
    assert clone.fb_window == material.fb_window
    assert clone.nonces == material.nonces
    assert clone.feldman == material.feldman
    assert clone.fingerprint == material.fingerprint
    assert clone.fb_table_bytes == material.fb_table_bytes > 0


def test_nonce_pool_is_valid_and_exhausts():
    material = build_material(TEST_GROUP, nonces=3, feldman=0)
    for _ in range(3):
        pair = material.draw_nonce()
        assert pow(TEST_GROUP.g, pair.k, TEST_GROUP.p) == pair.r
    with pytest.raises(MaterialError, match="exhausted"):
        material.draw_nonce()


def test_feldman_entries_verify_against_their_commitments():
    material = build_material(TEST_GROUP, nonces=0, feldman=2, feldman_threshold=2)
    for entry in material.iter_feldman():
        assert entry.threshold == 2
        for x in (1, 2, 3):
            share = Share(x=x, y=_evaluate(entry.coefficients, x, TEST_GROUP.q))
            assert feldman_verify(TEST_GROUP, share, entry.commitment)


def test_attach_installs_the_exact_table():
    material = build_material(TEST_GROUP, nonces=0, feldman=0)
    group = _fresh_group()
    material.attach(group)
    assert group._fb_table == material.fb_table
    assert group.power_of_g(98765) == pow(group.g, 98765, group.p)
    assert group.fb_table_bytes == material.fb_table_bytes


def test_attach_refuses_foreign_parameters():
    material = build_material(TEST_GROUP, nonces=0, feldman=0)
    with pytest.raises(MaterialError, match="does not match"):
        material.attach(GROUP_2048)


@pytest.mark.parametrize(
    "mangle, error",
    [
        (lambda blob: blob[: len(blob) // 2], MaterialIntegrityError),
        (lambda blob: b"garbage, not material at all", MaterialFormatError),
        (lambda blob: blob[:100] + bytes([blob[100] ^ 0xFF]) + blob[101:],
         MaterialIntegrityError),
        (lambda blob: b"", MaterialFormatError),
    ],
    ids=["truncated", "garbage", "bitflip", "empty"],
)
def test_deserialize_rejects_corrupt_blobs(mangle, error):
    blob = serialize_material(build_material(TEST_GROUP, nonces=2, feldman=1))
    with pytest.raises(error):
        deserialize_material(mangle(blob))


# ---------------------------------------------------------------------------
# Store: atomic persistence, lazy build, repair
# ---------------------------------------------------------------------------


def test_store_save_load_inspect_clear(store):
    material = build_material(TEST_GROUP, nonces=4, feldman=2)
    path = store.save(material)
    assert path.name == f"{material.fingerprint}.v1"
    assert not list(store.root.glob("*.tmp"))  # atomic write left no temp
    loaded = store.load(TEST_GROUP)
    assert loaded.fb_table == material.fb_table
    records = store.inspect()
    assert len(records) == 1 and records[0]["ok"]
    assert records[0]["fb_table_bytes"] == material.fb_table_bytes
    assert store.clear() == 1
    assert store.inspect() == []


def test_store_ensure_builds_on_miss_and_repairs_corruption(store):
    assert not store.path_for(TEST_GROUP).exists()
    built = store.ensure(TEST_GROUP, nonces=2, feldman=1)
    assert store.path_for(TEST_GROUP).exists()
    store.path_for(TEST_GROUP).write_bytes(b"RPM1 corrupted beyond repair")
    with pytest.warns(RuntimeWarning, match="rebuilding"):
        repaired = store.ensure(TEST_GROUP, nonces=2, feldman=1)
    assert repaired.fb_table == built.fb_table
    assert store.load(TEST_GROUP).fb_table == built.fb_table


def test_resolve_material_source_validates():
    assert resolve_material_source(None) == "compute"
    assert resolve_material_source("shared") == "shared"
    with pytest.raises(ValueError, match="material source"):
        resolve_material_source("telepathy")
    with pytest.raises(ValueError, match="material source"):
        SweepConfig(material="telepathy")


# ---------------------------------------------------------------------------
# Publish/attach: the validated store file, with compute fallbacks
# ---------------------------------------------------------------------------


def test_publish_shared_and_disk_name_the_same_store_file(store):
    """``shared`` is another spelling of ``disk``: both publish the file."""
    shared = publish_material("shared", store=store)
    disk = publish_material("disk", store=store)
    assert shared is not None and shared.source == "shared"
    assert disk is not None and disk.source == "disk"
    assert shared.refs == disk.refs == (
        MaterialRef(
            fingerprint=group_fingerprint(TEST_GROUP),
            path=str(store.path_for(TEST_GROUP)),
        ),
    )


@pytest.fixture
def deserialized(monkeypatch):
    """Count ``deserialize_material`` calls in the store and attach paths,
    starting from an empty attach registry (which also keeps these small
    test pools out of the registry later tests read)."""
    import repro.crypto.preprocessing as preprocessing
    import repro.runtime.material as material_module

    calls = []
    real = preprocessing.deserialize_material

    def counting(blob):
        calls.append(len(blob))
        return real(blob)

    monkeypatch.setattr(material_module, "deserialize_material", counting)
    monkeypatch.setattr(material_module, "_ATTACHED", {})
    return calls


def test_local_warm_up_deserializes_each_blob_once(store, deserialized):
    """The inline attach reuses the store's validated load: one parse per blob."""
    store.build([TEST_GROUP, GROUP_2048], nonces=2, feldman=1)
    warm_with_material("disk", store=store, groups=(TEST_GROUP, GROUP_2048))
    assert sorted(deserialized) == sorted(
        store.path_for(group).stat().st_size for group in (TEST_GROUP, GROUP_2048)
    )
    assert TEST_GROUP.power_of_g(4242) == pow(TEST_GROUP.g, 4242, TEST_GROUP.p)


def test_second_local_warm_up_on_unchanged_store_reads_nothing(store, deserialized):
    store.build([TEST_GROUP], nonces=4, feldman=1)
    warm_with_material("disk", store=store)
    assert len(deserialized) == 1
    attached = attached_material(group_fingerprint(TEST_GROUP))
    warm_with_material("disk", store=store)
    warm_with_material("shared", store=store)
    assert len(deserialized) == 1
    assert attached_material(group_fingerprint(TEST_GROUP)) is attached
    assert TEST_GROUP.power_of_g(4242) == pow(TEST_GROUP.g, 4242, TEST_GROUP.p)


def test_rebuilt_store_is_reattached_and_spent_from(store, deserialized):
    fingerprint = group_fingerprint(TEST_GROUP)
    old = store.build([TEST_GROUP], nonces=8, feldman=2, seed=1)[0]
    warm_with_material("disk", store=store)
    new = store.build([TEST_GROUP], nonces=8, feldman=2, seed=2)[0]
    warm_with_material("disk", store=store)
    assert len(deserialized) == 2
    attached = attached_material(fingerprint)
    assert attached.built_with_seed == 2
    plan = OnlinePlan.for_tasks([0], store=store)
    reads = len(deserialized)
    cursor = plan.open(0)
    assert len(deserialized) == reads  # the cursor spends the attached copy
    keypair = schnorr_keygen(random.Random(1))
    with spending(cursor):
        signature = schnorr_sign(keypair, b"m", random.Random(2))
    assert signature.r == new.nonces[0].r != old.nonces[0].r
    assert cursor.spend_summary()["nonces_spent"] == 1


@pytest.mark.parametrize("kind", ["truncated", "garbage"])
def test_store_corrupted_after_attach_is_repaired(store, deserialized, kind):
    """A file corrupted after this process attached it takes the store's
    repair path on the next warm-up, warning as before."""
    store.build([TEST_GROUP], nonces=4, feldman=1)
    warm_with_material("disk", store=store)
    _corrupt_file(store.path_for(TEST_GROUP), kind)
    with pytest.warns(RuntimeWarning, match="rebuilding from scratch"):
        warm_with_material("disk", store=store)
    repaired = store.load(TEST_GROUP)
    assert attached_material(group_fingerprint(TEST_GROUP)).nonces == repaired.nonces
    assert TEST_GROUP.power_of_g(4242) == pow(TEST_GROUP.g, 4242, TEST_GROUP.p)


def test_publish_compute_is_a_noop():
    assert publish_material("compute") is None


def test_failed_publish_reports_compute(tmp_path, monkeypatch):
    """Workers that got no handle computed their caches; the report says so."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("a regular file where the store root should be")
    monkeypatch.setenv("REPRO_MATERIAL_DIR", str(blocker / "store"))
    with pytest.warns(RuntimeWarning, match="could not publish"):
        report = SessionPool(
            config=SweepConfig(executor="process", workers=1, material="disk"),
            **PARAMS,
        ).run([0, 1])
    assert report.material_source == "compute"
    assert report.summary()["material_source"] == "compute"
    assert len(report.results) == 2


def _corrupt_file(path: pathlib.Path, kind: str) -> None:
    blob = path.read_bytes()
    if kind == "truncated":
        path.write_bytes(blob[: len(blob) // 3])
    elif kind == "garbage":
        path.write_bytes(b"this is not preprocessing material")
    else:  # integrity-mismatch: flip one body byte, keep magic + length
        index = len(blob) - 17
        path.write_bytes(blob[:index] + bytes([blob[index] ^ 0x01]) + blob[index + 1 :])


@pytest.mark.parametrize("kind", ["truncated", "garbage", "integrity-mismatch"])
@pytest.mark.parametrize("source", ["disk", "shared"])
def test_worker_attach_falls_back_to_compute_on_corruption(
    store, source, kind
):
    """A corrupt blob behind a published ref warns and computes instead."""
    store.build([TEST_GROUP], nonces=2, feldman=1)
    path = store.path_for(TEST_GROUP)
    _corrupt_file(path, kind)
    handle = MaterialHandle(
        source=source,
        refs=(MaterialRef(fingerprint=group_fingerprint(TEST_GROUP), path=str(path)),),
    )
    with pytest.warns(RuntimeWarning, match="falling back"):
        warm_with_material(handle)
    # The fallback still leaves the process fully warmed and correct.
    assert TEST_GROUP._fb_table is not None
    assert TEST_GROUP.power_of_g(4242) == pow(TEST_GROUP.g, 4242, TEST_GROUP.p)


@pytest.mark.parametrize("kind", ["truncated", "garbage", "integrity-mismatch"])
def test_corrupt_store_never_crashes_a_sweep(store, kind):
    """End to end: corrupt cache + process workers still match inline."""
    store.build([TEST_GROUP], nonces=2, feldman=1)
    _corrupt_file(store.path_for(TEST_GROUP), kind)
    sweep = SessionPool(
        config=SweepConfig(executor="process", workers=2, chunksize=1, material="disk"),
        **PARAMS,
    )
    with pytest.warns(RuntimeWarning):
        verdict = sweep.verify(range(3))
    assert verdict.matched


def test_missing_store_lazily_runs_the_offline_phase(store):
    assert not store.path_for(TEST_GROUP).exists()
    report = SessionPool(
        config=SweepConfig(executor="process", workers=2, material="shared"), **PARAMS,
    ).run(range(3))
    assert report.material_source == "shared"
    assert store.path_for(TEST_GROUP).exists()  # publish persisted the build


def test_unknown_fingerprint_is_ignored_with_a_warning():
    handle = MaterialHandle(
        source="disk",
        refs=(MaterialRef(fingerprint="feedfacecafebeef", path="/none"),),
    )
    with pytest.warns(RuntimeWarning, match="no known group"):
        warm_with_material(handle)


# ---------------------------------------------------------------------------
# Spend ledger: adversarial sidecars
# ---------------------------------------------------------------------------


def _sidecar_for(store: MaterialStore, fingerprint: str) -> pathlib.Path:
    return store.root / f"{fingerprint}{store.SUFFIX}.spent"


def _mangle_sidecar(path: pathlib.Path, kind: str) -> None:
    if kind == "truncated":
        # A torn write: valid JSON prefix, cut mid-object.
        path.write_text('{"nonces_spent": 12, "nonce_hi')
    elif kind == "garbage":
        path.write_text("not json at all \x00\x7f")
    elif kind == "negative":
        path.write_text(json.dumps({"nonces_spent": -3, "feldman_spent": 1}))
    else:  # non-object
        path.write_text("[1, 2, 3]")


def test_ledger_parses_missing_corrupt_and_legacy_sidecars(store):
    fingerprint = group_fingerprint(TEST_GROUP)
    clean = store.ledger(fingerprint)
    assert clean.ok and clean.nonces_spent == 0 and clean.feldman_spent == 0

    path = _sidecar_for(store, fingerprint)
    for kind in ("truncated", "garbage", "negative", "non-object"):
        _mangle_sidecar(path, kind)
        ledger = store.ledger(fingerprint)
        assert not ledger.ok, kind
        assert "corrupt" in ledger.note, kind
        # The flat-dict view reads corrupt as zeros, but never invents
        # spends.
        assert store.spent(fingerprint)["nonces_spent"] == 0

    # Sidecars written before the ledger held only sums also carry high
    # marks and a build seed; the sums still parse, the rest is ignored.
    path.write_text(json.dumps(
        {"nonces_spent": 5, "feldman_spent": 2, "nonce_high": 9,
         "feldman_high": 4, "material_seed": 0}
    ))
    legacy = store.ledger(fingerprint)
    assert legacy.ok
    assert (legacy.nonces_spent, legacy.feldman_spent) == (5, 2)
    assert store.spent(fingerprint) == {"nonces_spent": 5, "feldman_spent": 2}


def test_record_spend_self_heals_a_corrupt_sidecar(store):
    fingerprint = group_fingerprint(TEST_GROUP)
    path = _sidecar_for(store, fingerprint)
    _mangle_sidecar(path, "garbage")
    assert not store.ledger(fingerprint).ok
    store.record_spend(fingerprint, nonces=4, feldman=1)
    healed = store.ledger(fingerprint)
    assert healed.ok
    # Replaced wholesale: the unparseable numbers are gone, not merged.
    assert (healed.nonces_spent, healed.feldman_spent) == (4, 1)


@pytest.mark.parametrize("kind", ["truncated", "garbage"])
def test_corrupt_sidecar_never_changes_what_an_online_sweep_spends(store, kind):
    """The ledger counts traffic and plans never read it: an online
    sweep over an unreadable sidecar spends its slices from index 0,
    passes seed-for-seed ``--verify``, and its record heals the
    sidecar."""
    store.build([TEST_GROUP], nonces=32, feldman=8)
    fingerprint = group_fingerprint(TEST_GROUP)
    _mangle_sidecar(_sidecar_for(store, fingerprint), kind)
    verdict = SessionPool(
        config=SweepConfig(executor="inline", material="disk", online=True),
        **VOTING,
    ).verify(range(2))
    assert verdict.matched
    spend = verdict.report.online_spend
    assert spend["nonces_spent"] == 6 and spend["nonces_sampled"] == 0
    ledger = store.ledger(fingerprint)
    assert ledger.ok
    # The run and its inline reference both recorded their traffic.
    assert ledger.nonces_spent == 2 * spend["nonces_spent"]


def test_concurrent_ledger_writers_never_tear_the_sidecar(store):
    """record_spend holds an advisory file lock across its
    read-merge-write cycle, so racing writers lose nothing: sums add up
    exactly — and the sidecar always parses afterwards: no torn files,
    no leftover temp files."""
    fingerprint = group_fingerprint(TEST_GROUP)
    start = threading.Barrier(8)

    def writer(index: int) -> None:
        start.wait()
        for _ in range(10):
            store.record_spend(fingerprint, nonces=1, feldman=index % 2)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ledger = store.ledger(fingerprint)
    assert ledger.ok, ledger.note
    assert ledger.nonces_spent == 80  # every increment survives the race
    assert ledger.feldman_spent == 40
    assert not list(store.root.glob("*.tmp"))


# ---------------------------------------------------------------------------
# Acceptance: digests are material-source-invariant
# ---------------------------------------------------------------------------


def test_digests_identical_across_material_sources_32_tasks(store):
    """compute == disk == shared, seed for seed, over a 32-task sweep."""
    seeds = range(32)
    inline = SessionPool(config=SweepConfig(executor="inline"), **PARAMS).run(seeds)
    digests = {"compute": [r.digest for r in inline.results]}
    for source in ("compute", "disk", "shared"):
        report = SessionPool(
            config=SweepConfig(executor="process", workers=2, material=source),
            **PARAMS,
        ).run(seeds)
        digests[f"process-{source}"] = [r.digest for r in report.results]
    reference = digests["compute"]
    assert all(values == reference for values in digests.values())
    assert len(set(reference)) == len(reference)  # distinct seeds, not vacuous


def test_scenario_smoke_subset_digests_across_sources(store):
    from repro.scenarios import default_matrix, run_matrix

    specs = [
        spec for spec in default_matrix().expand()
        if spec.stack == "ubc" and spec.backend == "sequential"
    ][:4]
    assert len(specs) >= 2
    reference = run_matrix(specs, config=SweepConfig(executor="inline"))
    for source in ("disk", "shared"):
        fanned = run_matrix(
            specs,
            config=SweepConfig(
                executor="process", workers=2, material=source,
            ),
        )
        assert [cell.digest for cell in fanned.cells] == [
            cell.digest for cell in reference.cells
        ]
        assert fanned.ok


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_material_build_inspect_clear(store, capsys):
    from repro.cli import main

    assert main(["material", "build", "--nonces", "4", "--feldman", "2"]) == 0
    out = capsys.readouterr().out
    assert "built 2 material sets" in out
    assert group_fingerprint(TEST_GROUP) in out
    assert group_fingerprint(GROUP_2048) in out

    assert main(["material", "inspect"]) == 0
    assert "fb_table_bytes" in capsys.readouterr().out

    assert main(["material", "clear"]) == 0
    assert "removed 2 material file(s)" in capsys.readouterr().out
    assert main(["material", "inspect"]) == 0
    assert "is empty" in capsys.readouterr().out


def test_cli_material_inspect_flags_corruption(store, capsys):
    from repro.cli import main

    store.build([TEST_GROUP], nonces=2, feldman=1)
    _corrupt_file(store.path_for(TEST_GROUP), "garbage")
    assert main(["material", "inspect", "--json"]) == 1
    assert '"ok": false' in capsys.readouterr().out


def test_cli_sweep_json_reports_plan_and_material(store, capsys):
    import json

    from repro.cli import main

    code = main([
        "sweep", "--sessions", "6", "--executor", "process", "--workers", "2",
        "--chunksize", "1", "--material", "shared",
        "--verify", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["digests_match"] is True
    assert payload["plan"]["material_source"] == "shared"
    assert payload["report"]["material_source"] == "shared"


def test_material_groups_plumbs_production_parameters_to_workers(store):
    """GROUP_2048 material reaches process workers when asked for."""
    report = SessionPool(
        config=SweepConfig(
            executor="process", workers=1, material="shared",
            material_groups=(TEST_GROUP, GROUP_2048),
        ),
        **PARAMS,
    ).run(range(2))
    assert report.material_source == "shared"
    # The lazy offline phase persisted material for both parameter sets.
    assert store.path_for(TEST_GROUP).exists()
    assert store.path_for(GROUP_2048).exists()


def test_host_process_workers_attach_every_published_group(store, monkeypatch):
    """A process host publishes ``material_groups`` once, as the pool does.

    Its workers get a handle naming every group's validated store file,
    not a bare source name that leaves each worker to load (or, on an
    empty store, build) the material itself.
    """
    from concurrent import futures

    from repro.runtime import AsyncSessionHost, run_sbc_trial

    started = {}

    def recording(max_workers, initializer=None, initargs=()):
        started.update(initializer=initializer, initargs=initargs)
        return futures.ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", recording)
    groups = (TEST_GROUP, GROUP_2048)
    config = SweepConfig(
        executor="process", workers=1, material="disk", material_groups=groups
    )
    report = AsyncSessionHost(run_sbc_trial, config=config, **PARAMS).run(range(2))
    assert report.sessions == 2
    handle = started["initargs"][1]
    assert isinstance(handle, MaterialHandle)
    assert [ref.fingerprint for ref in handle.refs] == [
        group_fingerprint(group) for group in groups
    ]


def test_warmup_off_never_publishes_or_claims_material(store):
    """warmup=False measures cold workers: nothing to publish or attach."""
    report = SessionPool(
        config=SweepConfig(
            executor="process", workers=1, warmup=False, material="shared",
        ),
        **PARAMS,
    ).run(range(2))
    assert report.material_source == "compute"  # nothing was attached
    assert not store.path_for(TEST_GROUP).exists()  # no offline build ran
