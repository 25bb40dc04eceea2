"""Replenisher tests: watermark math as pure functions, then the loop.

The watermark machinery is deliberately factored into small pure
functions (EWMA burn rate, watermark sizing, fire/re-arm decision,
replenish amount, extend-vs-rebuild choice) so its edge cases are
testable without building material or running sweeps.  The second half
exercises the :class:`~repro.runtime.material.Replenisher` itself
against a real store: exactly-once firing under hysteresis, append-only
extension, capacity-preserving rebuild, and a poll that never takes a
sweep down.
"""

import math

import pytest

from repro.crypto.groups import TEST_GROUP
from repro.crypto.preprocessing import build_material, group_fingerprint
from repro.runtime.material import (
    REPLENISH_ALPHA,
    REPLENISH_HEADROOM,
    REPLENISH_HYSTERESIS,
    REPLENISH_REBUILD_DEAD_FRACTION,
    MaterialStore,
    Replenisher,
    ewma_burn_rate,
    extend_or_rebuild,
    replenish_amount,
    replenish_decision,
    watermark_for,
)


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MATERIAL_DIR", str(tmp_path))
    return MaterialStore(tmp_path)


# ---------------------------------------------------------------------------
# Pure functions: EWMA burn rate
# ---------------------------------------------------------------------------


def test_ewma_seeds_with_first_observation():
    assert ewma_burn_rate(None, 10) == 10.0
    assert ewma_burn_rate(None, 0) == 0.0


def test_ewma_blends_and_converges():
    assert ewma_burn_rate(10, 20, alpha=0.5) == 15.0
    assert ewma_burn_rate(10, 10, alpha=0.5) == 10.0
    # alpha=1 forgets history entirely; repeated observations converge.
    assert ewma_burn_rate(100, 4, alpha=1.0) == 4.0
    rate = 100.0
    for _ in range(50):
        rate = ewma_burn_rate(rate, 4, alpha=0.5)
    assert abs(rate - 4.0) < 1e-9


def test_ewma_clamps_negatives_and_validates_alpha():
    assert ewma_burn_rate(None, -5) == 0.0
    assert ewma_burn_rate(-5, 10, alpha=0.5) == 5.0
    for alpha in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            ewma_burn_rate(None, 1, alpha=alpha)


# ---------------------------------------------------------------------------
# Pure functions: watermark sizing
# ---------------------------------------------------------------------------


def test_watermark_scales_burn_by_headroom():
    assert watermark_for(10, headroom=2.0) == 20
    assert watermark_for(10.4, headroom=2.0) == 21  # ceil, never under
    assert watermark_for(0, headroom=2.0) == 0


def test_watermark_floor_dominates_small_rates():
    assert watermark_for(None, floor=5) == 5
    assert watermark_for(1, headroom=2.0, floor=5) == 5
    assert watermark_for(10, headroom=2.0, floor=5) == 20


def test_watermark_validates_inputs():
    with pytest.raises(ValueError, match="headroom"):
        watermark_for(1, headroom=-1)
    with pytest.raises(ValueError, match="floor"):
        watermark_for(1, floor=-1)


# ---------------------------------------------------------------------------
# Pure functions: fire/re-arm hysteresis
# ---------------------------------------------------------------------------


def test_decision_fires_only_below_watermark_while_armed():
    assert replenish_decision(5, 10, armed=True) == (True, False)
    assert replenish_decision(10, 10, armed=True) == (False, True)  # not strict
    assert replenish_decision(50, 10, armed=True) == (False, True)


def test_decision_rearms_only_past_hysteresis_band():
    # Disarmed, hovering inside the band: stays quiet and disarmed.
    assert replenish_decision(11, 10, armed=False, hysteresis=1.25) == (False, False)
    assert replenish_decision(12, 10, armed=False, hysteresis=1.25) == (False, False)
    # ceil(10 * 1.25) = 13 clears the band.
    assert replenish_decision(13, 10, armed=False, hysteresis=1.25) == (False, True)


def test_decision_zero_watermark_never_fires():
    assert replenish_decision(0, 0, armed=True) == (False, True)
    assert replenish_decision(0, 0, armed=False) == (False, True)


def test_decision_validates_inputs():
    with pytest.raises(ValueError, match="hysteresis"):
        replenish_decision(1, 1, armed=True, hysteresis=0.5)
    with pytest.raises(ValueError, match="remaining"):
        replenish_decision(-1, 1, armed=True)


def test_hysteresis_sequence_fires_exactly_once_while_hovering():
    """A pool oscillating just under the watermark produces one fire."""
    armed, fires = True, 0
    for remaining in (9, 8, 9, 8, 9, 12, 11, 12):
        fire, armed = replenish_decision(remaining, 10, armed, hysteresis=1.25)
        fires += fire
    assert fires == 1
    # Only clearing the re-arm threshold (13) resets the trigger.
    fire, armed = replenish_decision(13, 10, armed, hysteresis=1.25)
    assert (fire, armed) == (False, True)
    fire, armed = replenish_decision(9, 10, armed, hysteresis=1.25)
    assert fire


# ---------------------------------------------------------------------------
# Pure functions: replenish amount and extend-vs-rebuild
# ---------------------------------------------------------------------------


def test_amount_targets_rearm_threshold_plus_one_sweep():
    # Target = ceil(10 * 1.25) + ceil(8) = 21; remaining 5 -> add 16.
    assert replenish_amount(5, 8, 10, hysteresis=1.25) == 16
    assert replenish_amount(0, 8, 10, hysteresis=1.25) == 21
    assert replenish_amount(50, 8, 10, hysteresis=1.25) == 0  # already clear


def test_amount_handles_unknown_rate_and_validates():
    assert replenish_amount(0, None, 10, hysteresis=1.0) == 10
    with pytest.raises(ValueError, match="hysteresis"):
        replenish_amount(0, 1, 1, hysteresis=0.9)


def test_extend_until_dead_prefix_dominates():
    assert extend_or_rebuild(100, 0, 50) == "extend"
    assert extend_or_rebuild(100, 80, 100, dead_fraction=0.75) == "extend"
    # 80 dead of a would-be 100-entry blob: >= 0.75, compact instead.
    assert extend_or_rebuild(100, 80, 0, dead_fraction=0.75) == "rebuild"
    assert extend_or_rebuild(0, 0, 10) == "extend"  # nothing dead yet


def test_extend_or_rebuild_validates():
    with pytest.raises(ValueError, match="dead_fraction"):
        extend_or_rebuild(1, 0, 0, dead_fraction=0.0)
    with pytest.raises(ValueError, match="add"):
        extend_or_rebuild(1, 0, -1)


def test_default_constants_are_coherent():
    """The shipped configuration satisfies the invariants the functions
    assume of each other."""
    assert 0.0 < REPLENISH_ALPHA <= 1.0
    assert REPLENISH_HEADROOM >= 1.0
    assert REPLENISH_HYSTERESIS >= 1.0
    assert 0.0 < REPLENISH_REBUILD_DEAD_FRACTION <= 1.0
    # An amount sized by replenish_amount always clears the re-arm band.
    for remaining, rate in ((0, 7), (3, 12), (9, 1)):
        watermark = watermark_for(rate)
        add = replenish_amount(remaining, rate, watermark)
        assert remaining + add >= math.ceil(watermark * REPLENISH_HYSTERESIS)


# ---------------------------------------------------------------------------
# Replenisher against a real store
# ---------------------------------------------------------------------------


def test_replenisher_fires_once_and_extends_append_only(store):
    store.save(build_material(TEST_GROUP, nonces=32, feldman=8, seed=0))
    fingerprint = group_fingerprint(TEST_GROUP)
    before = store.load(TEST_GROUP)
    rep = Replenisher(group=TEST_GROUP, store=store)
    # One sweep burned 20 nonces of the 32; remaining 12 < watermark 40.
    store.record_spend(fingerprint, nonces=20, nonce_high=20, material_seed=0)
    rep.observe({"nonces_spent": 20})
    first = rep.maybe_replenish()
    assert first is not None and first["mode"] == "extend"
    assert first["pool_nonces"] > 32
    # Append-only: the spent prefix is untouched, lineage unchanged.
    after = store.load(TEST_GROUP)
    assert after.nonces[:32] == before.nonces
    assert after.built_with_seed == 0
    # Hysteresis: a second poll in the same state must not fire again.
    assert rep.maybe_replenish() is None
    assert len(rep.replenishments) == 1


def test_replenisher_rebuild_floors_pools_at_previous_size(store):
    store.save(build_material(TEST_GROUP, nonces=16, feldman=4, seed=0))
    fingerprint = group_fingerprint(TEST_GROUP)
    # Entire pool spent: the dead prefix dominates, forcing a rebuild.
    store.record_spend(
        fingerprint, nonces=16, nonce_high=16, feldman_high=4, material_seed=0
    )
    rep = Replenisher(group=TEST_GROUP, store=store)
    record = rep.replenish(nonces=4)
    assert record["mode"] == "rebuild"
    grown = store.load(TEST_GROUP)
    # Capacity never shrinks: each pool is floored at its built size,
    # even the one that contributed no explicit add.
    assert len(grown.nonces) >= 16
    assert len(grown.feldman) >= 4
    assert grown.built_with_seed == 1  # stepped seed
    # save() reset the stale ledger: the fresh pools start unspent.
    ledger = store.ledger(fingerprint)
    assert ledger.nonce_high == 0 or ledger.material_seed == 1


def test_replenisher_untrusted_ledger_counts_pool_as_dead(store):
    store.save(build_material(TEST_GROUP, nonces=16, feldman=4, seed=0))
    sidecar = store.root / f"{group_fingerprint(TEST_GROUP)}{store.SUFFIX}.spent"
    sidecar.write_text("{torn")
    rep = Replenisher(group=TEST_GROUP, store=store)
    status = rep.status()
    assert status["ledger_trusted"] is False
    assert status["nonces_remaining"] == 0
    record = rep.replenish(nonces=8)
    assert record["mode"] == "rebuild"  # unknown spends -> compact fresh


def test_replenisher_without_blob_is_a_noop(store):
    rep = Replenisher(group=TEST_GROUP, store=store)
    assert rep.replenish(nonces=8) is None
    assert rep.maybe_replenish() is None
    assert rep.status()["material"] is None


def test_poll_never_raises(store, monkeypatch):
    rep = Replenisher(group=TEST_GROUP, store=store)

    def boom(*_args, **_kwargs):
        raise OSError("disk on fire")

    monkeypatch.setattr(rep.store, "ledger", boom)
    with pytest.warns(RuntimeWarning, match="pools left unchanged"):
        assert rep.poll() is None


def test_observe_counts_sampling_as_demand(store):
    """A draw that fell back to sampling is demand the pool failed to
    meet — it must raise the burn estimate just like a spend."""
    rep = Replenisher(group=TEST_GROUP, store=store)
    rep.observe({"nonces_spent": 4, "nonces_sampled": 6, "feldman_spent": 1})
    assert rep.burn_nonces == 10.0
    assert rep.burn_feldman == 1.0
    rep.observe(None)  # offline sweeps contribute nothing
    assert rep.burn_nonces == 10.0
