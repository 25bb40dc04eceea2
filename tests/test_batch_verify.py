"""Batch verification: RLC engine, item builders, protocol integration.

The contract under test, end to end:

* :func:`~repro.crypto.batch.verify_batch` returns the *exact* per-item
  verdict vector (fallbacks and bisection leaves resolve through each
  item's ``check()``), identifies the precise culprit set, and costs one
  combined multi-exp when everything verifies;
* the item builders (Schnorr signatures, PoK, Chaum–Pedersen, ballot
  OR-proofs) screen memberships and structure, never overruling the
  per-item verifier's verdict;
* the opt-in seam leaves unbatched runs untouched, and batched protocol
  runs produce identical outputs — digest-identical with
  ``record_trace=False``, digest-pinned via ``verify.batch`` events
  otherwise (the online-spend doctrine).
"""

from __future__ import annotations

import random

from repro.crypto.batch import (
    BATCH_EVENT_KIND,
    BatchItem,
    BatchPolicy,
    Equation,
    batching,
    current_policy,
    install_policy,
    verify_batch,
)
from repro.crypto.groups import TEST_GROUP
from repro.crypto.schnorr import (
    SchnorrSignature,
    schnorr_batch_item,
    schnorr_keygen,
    schnorr_sign,
)
from repro.crypto.zkp import (
    BallotProof,
    ballot_batch_item,
    ballot_prove,
    cp_batch_item,
    cp_prove,
    pok_batch_item,
    pok_prove,
)
from repro.functionalities.cert_adapter import real_cert_suite
from repro.functionalities.certification import RealCertification
from repro.runtime.pool import run_voting_trial

G = TEST_GROUP


def signature_items(rng, count, forge=()):
    """``count`` signature batch items; indices in ``forge`` get tampered s."""
    items = []
    for index in range(count):
        keypair = schnorr_keygen(rng)
        message = f"msg-{index}".encode()
        signature = schnorr_sign(keypair, message, rng)
        if index in forge:
            signature = SchnorrSignature(r=signature.r, s=(signature.s + 1) % G.q)
        items.append(schnorr_batch_item(G, keypair.public, message, signature))
    return items


# ---------------------------------------------------------------------------
# Engine: verdicts, culprits, evaluation counts
# ---------------------------------------------------------------------------


def test_all_valid_batch_costs_one_evaluation(rng):
    report = verify_batch(G, signature_items(rng, 8))
    assert report.all_valid
    assert report.verdicts == (True,) * 8
    assert report.culprits == ()
    assert report.batched == 8 and report.fallback == 0
    assert report.evaluations == 1


def test_single_forgery_bisects_to_exact_culprit(rng):
    report = verify_batch(G, signature_items(rng, 16, forge={5}))
    assert report.culprits == (5,)
    assert report.verdicts == tuple(index != 5 for index in range(16))
    # Bisection: more than one evaluation, far fewer than 16 checks.
    assert 1 < report.evaluations <= 2 * 16


def test_multiple_forgeries_exact_culprit_set(rng):
    report = verify_batch(G, signature_items(rng, 12, forge={0, 7, 11}))
    assert report.culprits == (0, 7, 11)


def test_verdict_parity_with_per_item_checks(rng):
    fuzz = random.Random(0xF0)
    for _ in range(5):
        count = fuzz.randrange(2, 10)
        forge = {i for i in range(count) if fuzz.random() < 0.4}
        items = signature_items(rng, count, forge=forge)
        report = verify_batch(G, items)
        assert report.verdicts == tuple(item.check() for item in items)


def test_seeded_coefficients_reproducible(rng):
    items = signature_items(rng, 10, forge={3})
    first = verify_batch(G, items, seed=77)
    again = verify_batch(G, items, seed=77)
    assert first == again
    other = verify_batch(G, items, seed=78)
    assert other.verdicts == first.verdicts  # verdicts never depend on the seed
    assert other.seed != first.seed


def test_below_min_items_resolves_per_item(rng):
    items = signature_items(rng, 1)
    report = verify_batch(G, items)
    assert report.verdicts == (True,)
    assert report.batched == 0 and report.fallback == 1 and report.evaluations == 0
    report = verify_batch(G, signature_items(rng, 3), min_items=5)
    assert report.all_valid and report.batched == 0 and report.fallback == 3


def test_items_without_equations_fall_back(rng):
    flagged = []
    item = BatchItem(bases=(), equations=(), check=lambda: flagged.append(1) or True)
    report = verify_batch(G, [item] + signature_items(rng, 4))
    assert report.verdicts[0] is True and flagged
    assert report.batched == 4 and report.fallback == 1


def test_non_member_bases_are_screened_not_overruled(rng):
    # p ≡ 3 (mod 4), so p - 1 is a quadratic non-residue: not a member.
    rogue = BatchItem(
        bases=(G.p - 1,),
        equations=(Equation(lhs=((G.p - 1, 2),), rhs=((1, 1),)),),
        check=lambda: True,  # the (laxer) per-item verifier accepts
    )
    report = verify_batch(G, [rogue] + signature_items(rng, 4))
    assert report.verdicts[0] is True  # screen routes to check(), never to False
    assert report.batched == 4 and report.fallback == 1


def test_all_items_invalid(rng):
    report = verify_batch(G, signature_items(rng, 4, forge={0, 1, 2, 3}))
    assert report.culprits == (0, 1, 2, 3)
    assert not report.all_valid


def test_trace_detail_shape(rng):
    detail = verify_batch(G, signature_items(rng, 6, forge={2})).trace_detail()
    assert detail["items"] == 6 and detail["batched"] == 6
    assert detail["culprits"] == [2] and detail["seed"] == 0x5BC
    assert detail["evaluations"] >= 2 and detail["fallback"] == 0


# ---------------------------------------------------------------------------
# Item builders: PoK, Chaum–Pedersen, ballot OR-proofs, mixed shapes
# ---------------------------------------------------------------------------


def pok_item(rng, tamper=False):
    secret = G.random_scalar(rng)
    public = G.power_of_g(secret)
    proof = pok_prove(G, G.g, public, secret, rng)
    if tamper:
        proof = type(proof)(a=proof.a, s=(proof.s + 1) % G.q)
    return pok_batch_item(G, G.g, public, proof)


def cp_item(rng, tamper=False):
    secret = G.random_scalar(rng)
    base2 = G.random_element(rng)
    public1, public2 = G.power_of_g(secret), G.exp(base2, secret)
    proof = cp_prove(G, G.g, public1, base2, public2, secret, rng)
    if tamper:
        proof = type(proof)(a1=proof.a1, a2=proof.a2, s=(proof.s + 1) % G.q)
    return cp_batch_item(G, G.g, public1, base2, public2, proof)


def ballot_item(rng, vote=1, tamper=False):
    secret = G.random_scalar(rng)
    seed = G.random_element(rng)
    w = G.power_of_g(secret)
    ballot = G.mul(G.exp(seed, secret), G.power_of_g(vote))
    proof = ballot_prove(G, seed, w, ballot, secret, vote, (0, 1), rng)
    if tamper:
        a1, a2, e, s = proof.branches[0]
        proof = BallotProof(branches=(((a1, a2, e, (s + 1) % G.q)),) + proof.branches[1:])
    return ballot_batch_item(G, seed, w, ballot, proof, (0, 1))


def test_mixed_shapes_batch_together(rng):
    items = [pok_item(rng), cp_item(rng), ballot_item(rng), *signature_items(rng, 3)]
    report = verify_batch(G, items)
    assert report.all_valid and report.batched == 6 and report.evaluations == 1


def test_tampered_proofs_are_caught_per_shape(rng):
    items = [
        pok_item(rng, tamper=True),
        cp_item(rng),
        ballot_item(rng, tamper=True),
        cp_item(rng, tamper=True),
        ballot_item(rng),
    ]
    report = verify_batch(G, items)
    assert report.culprits == (0, 2, 3)
    assert report.verdicts == (False, True, False, False, True)


def test_ballot_structural_failure_falls_back(rng):
    item = ballot_item(rng)
    truncated = ballot_batch_item(
        G,
        item.bases[1],
        item.bases[2],
        item.bases[3],
        BallotProof(branches=()),
        (0, 1),
    )
    assert truncated.equations == ()
    report = verify_batch(G, [truncated] + signature_items(rng, 4))
    assert report.verdicts[0] is False and report.fallback == 1


def test_batch_items_agree_with_direct_verifiers(rng):
    for builder, tamper in ((pok_item, False), (cp_item, True), (ballot_item, False)):
        item = builder(rng, tamper=tamper)
        assert bool(item.check()) == (not tamper)


# ---------------------------------------------------------------------------
# Certification surfaces
# ---------------------------------------------------------------------------


def test_real_certification_verify_batch_parity(session):
    authority = RealCertification(session)
    entries = []
    for index in range(6):
        pid = f"P{index}"
        message = f"m{index}".encode()
        signature = authority.sign(pid, message)
        if index == 4:
            signature = (signature[0], (signature[1] + 1) % G.q)
        entries.append((pid, message, signature))
    entries.append(("ghost", b"m", (1, 1)))  # unregistered pid
    before = session.metrics.snapshot()
    report = authority.verify_batch(entries)
    counted = session.metrics.diff(before).get("sig.verify", 0)
    assert counted == len(entries)
    expected = tuple(authority.verify(*entry) for entry in entries)
    assert report.verdicts == expected
    assert report.culprits == (4, 6)


def test_signer_cert_batch_item_matches_verify(session):
    certs = real_cert_suite(session, ("A", "B"))
    message = b"certified"
    good = certs["A"].sign("A", message)
    items = [
        certs["A"].batch_verify_item(message, good),
        certs["A"].batch_verify_item(message, b"short"),  # malformed encoding
        certs["B"].batch_verify_item(message, good),  # wrong signer's key
        certs["B"].batch_verify_item(message, certs["B"].sign("B", message)),
    ]
    report = verify_batch(G, items)
    assert report.verdicts == (
        certs["A"].verify(message, good),
        certs["A"].verify(message, b"short"),
        certs["B"].verify(message, good),
        True,
    )
    assert report.verdicts == (True, False, False, True)


# ---------------------------------------------------------------------------
# Ambient policy seam
# ---------------------------------------------------------------------------


def test_policy_seam_scopes_and_restores():
    assert current_policy() is None
    with batching(None):
        assert current_policy() is None
    policy = BatchPolicy(seed=9)
    with batching(policy):
        assert current_policy() is policy
        inner = BatchPolicy(seed=10)
        with batching(inner):
            assert current_policy() is inner
        assert current_policy() is policy
    assert current_policy() is None
    previous = install_policy(policy)
    assert previous is None
    assert install_policy(previous) is policy
    assert current_policy() is None


# ---------------------------------------------------------------------------
# Voting integration: identical outputs, digest doctrine
# ---------------------------------------------------------------------------


def test_batched_election_outputs_and_digest_doctrine():
    plain = run_voting_trial(11, voters=4)
    silent = run_voting_trial(11, voters=4, batch=BatchPolicy(record_trace=False))
    pinned = run_voting_trial(11, voters=4, batch=BatchPolicy())
    again = run_voting_trial(11, voters=4, batch=BatchPolicy())
    assert silent.outputs == plain.outputs == pinned.outputs
    assert silent.rounds == plain.rounds and silent.messages == plain.messages
    # record_trace=False: byte-identical to per-item verification.
    assert silent.digest == plain.digest
    # record_trace=True: pinned apart from per-item runs, yet reproducible.
    assert pinned.digest != plain.digest
    assert pinned.digest == again.digest


def test_batched_election_records_batch_events():
    from repro.core.stacks import build_voting_stack

    with batching(BatchPolicy()):
        stack = build_voting_stack(voters=3, mode="hybrid", seed=5)
        for authority in stack.authorities.values():
            authority.deal()
        stack.run_rounds(1)
        for index in range(3):
            stack.parties[f"V{index}"].vote(("yes", "no")[index % 2])
        stack.run_until_result()
    events = [
        event for event in stack.session.log if event.kind == BATCH_EVENT_KIND
    ]
    assert events, "batched tally rounds must record verify.batch events"
    detail = events[0].detail
    assert "batched" in detail and "evaluations" in detail and "culprits" in detail


def test_forged_ballot_rejected_identically_batched_and_not():
    # An adversarial voting run must reach the same accept/reject decisions
    # whether the tally verifies per-item or batched.
    from repro.core.stacks import build_voting_stack

    results = []
    for policy in (None, BatchPolicy()):
        with batching(policy):
            stack = build_voting_stack(voters=3, mode="hybrid", seed=21)
            for authority in stack.authorities.values():
                authority.deal()
            stack.run_rounds(1)
            for index in range(3):
                stack.parties[f"V{index}"].vote("yes")
            stack.run_until_result()
        results.append(stack.results()["V0"])
    assert results[0] == results[1] == {"yes": 3, "no": 0}
