"""The per-session ballot-proof verdict memo of the ΠSTVS self-tally."""

from repro.core import build_voting_stack
from repro.crypto.groups import SchnorrGroup
from repro.crypto.zkp import BallotProof, ballot_prove, ballot_verify
from repro.uc.encoding import encode
from repro.uc.session import Session


def _setup(voters=3, seed=91):
    stack = build_voting_stack(voters=voters, mode="hybrid", seed=seed)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    return stack


def _signed_ballot(voter, choice="yes", tamper=False):
    """``voter``'s ballot, proof and Fcert signature over what it casts."""
    group = voter.group
    seed = voter._seed()
    exponent = voter.election.exponent_of(choice)
    ballot = group.mul(
        group.exp(seed, voter.secret_exponent), group.power_of_g(exponent)
    )
    proof = ballot_prove(
        group, seed, voter.verification_keys[voter.pid], ballot,
        voter.secret_exponent, exponent, voter.election.choices,
        voter.session.rng, key_base=voter.w,
    )
    if tamper:
        a1, a2, e, s = proof.branches[0]
        proof = BallotProof(branches=((a1, a2, e, (s + 1) % group.q),) + proof.branches[1:])
    signature = voter.certs[voter.pid].sign(voter.pid, encode((ballot, proof, voter.pid)))
    return ("Ballot", voter.pid, ballot, proof, signature)


def test_tampered_proof_rejected_by_every_view_including_memo_hits():
    stack = _setup(voters=4)
    session = stack.session
    session.corrupt("V2")
    cast = _signed_ballot(stack.parties["V2"], tamper=True)
    stack.service.adv_broadcast("V2", cast)
    for pid in ("V0", "V1", "V3"):
        stack.parties[pid].vote("yes")
    stack.run_until_result()
    honest = [p for p in stack.parties.values() if not p.corrupted]
    for party in honest:
        assert party.result is None
        assert party.tally_failure == "missing ballots: ['V2']"
    # The tampered proof was checked once and its False verdict shared.
    rejected = [key for key, verdict in session.proof_verdicts.items() if not verdict]
    assert len(rejected) == 1 and rejected[0][0] == encode(cast[2:4] + ("V2",))
    assert session.metrics.get("proofs.checked") == 4
    assert session.metrics.get("proofs.shared") == 4 * (len(honest) - 1)


def test_views_with_different_keys_get_separate_verdicts():
    stack = _setup()
    session = stack.session
    cast = _signed_ballot(stack.parties["V2"])
    v0, v1 = stack.parties["V0"], stack.parties["V1"]
    seed = v0._seed()
    # V1's view of V2's verification key differs (one extra factor of g).
    v1.verification_keys["V2"] = v1.group.mul(v1.verification_keys["V2"], v1.group.g)
    assert v0._tally_ballots([cast], seed) == {"V2": cast[2]}
    assert v1._tally_ballots([cast], seed) == {}
    assert len(session.proof_verdicts) == 2
    assert session.metrics.get("proofs.checked") == 2
    assert session.metrics.get("proofs.shared") == 0
    expected = [
        ballot_verify(
            view.group, seed, view.verification_keys["V2"], cast[2], cast[3],
            view.election.choices, key_base=view.w,
        )
        for view in (v0, v1)
    ]
    assert expected == [True, False]
    assert sorted(session.proof_verdicts.values()) == [False, True]
    # A second look by either view is a memo hit with the same verdict.
    assert v0._tally_ballots([cast], seed) == {"V2": cast[2]}
    assert v1._tally_ballots([cast], seed) == {}
    assert session.metrics.get("proofs.checked") == 2
    assert session.metrics.get("proofs.shared") == 2


def test_new_session_starts_with_an_empty_memo():
    stack = _setup()
    stack.session.proof_verdicts[b"k"] = True
    fresh = Session()
    assert fresh.proof_verdicts == {}
    assert fresh.proof_verdicts is not stack.session.proof_verdicts
    assert _setup().session.proof_verdicts == {}


def test_clean_run_checks_each_proof_once(monkeypatch):
    calls = []
    original = SchnorrGroup.multi_exp

    def counting(self, pairs):
        calls.append(1)
        return original(self, pairs)

    monkeypatch.setattr(SchnorrGroup, "multi_exp", counting)
    stack = _setup(voters=5, seed=1)
    for index in range(5):
        stack.parties[f"V{index}"].vote(("yes", "no")[index % 2])
    stack.run_until_result()
    assert all(r == {"yes": 3, "no": 2} for r in stack.results().values())
    metrics = stack.session.metrics
    # Certificates stay per party: 5 views × 5 ballots.
    assert metrics.get("sig.verify") == 25
    assert metrics.get("proofs.checked") == 5
    assert metrics.get("proofs.shared") == 20
    # 5 distinct proofs × 2 branches × 2 equations.
    assert len(calls) == 20
