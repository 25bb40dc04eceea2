"""Adversarial voters and authorities: every rejection path of ΠSTVS."""


import pytest

from repro.core import build_voting_stack
from repro.crypto.batch import BatchPolicy, batching
from repro.crypto.zkp import BallotProof, ballot_prove
from repro.protocols.voting_protocol import encrypt_share
from repro.uc.encoding import encode


def _setup(voters=3, seed=81, phi=4, delta=2):
    stack = build_voting_stack(voters=voters, mode="hybrid", seed=seed, phi=phi, delta=delta)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    return stack


def test_unsigned_ballot_rejected():
    """A corrupted voter casts a ballot with a junk signature."""
    stack = _setup()
    session = stack.session
    session.corrupt("V2")
    victim = stack.parties["V2"]
    group = victim.group
    seed_elt = victim._seed()
    exponent = victim.election.exponent_of("yes")
    ballot = group.mul(
        group.exp(seed_elt, victim.secret_exponent), group.power_of_g(exponent)
    )
    proof = ballot_prove(
        group, seed_elt, victim.verification_keys["V2"], ballot,
        victim.secret_exponent, exponent, victim.election.choices,
        session.rng, key_base=victim.w,
    )
    stack.service.adv_broadcast("V2", ("Ballot", "V2", ballot, proof, b"junk-sig"))
    stack.parties["V0"].vote("yes")
    stack.parties["V1"].vote("no")
    stack.run_until_result()
    # V2's unsigned ballot is dropped -> a voter is missing -> no tally.
    for party in stack.parties.values():
        if party.corrupted:
            continue
        assert party.result is None
        assert "missing" in party.tally_failure and "V2" in party.tally_failure


def test_wrong_exponent_ballot_rejected():
    """A corrupted voter votes with a secret that is not its registered one."""
    stack = _setup()
    session = stack.session
    session.corrupt("V2")
    victim = stack.parties["V2"]
    group = victim.group
    seed_elt = victim._seed()
    fake_secret = group.random_scalar(session.rng)
    exponent = victim.election.exponent_of("yes")
    ballot = group.mul(group.exp(seed_elt, fake_secret), group.power_of_g(exponent))
    proof = ballot_prove(
        group, seed_elt, group.exp(victim.w, fake_secret), ballot,
        fake_secret, exponent, victim.election.choices,
        session.rng, key_base=victim.w,
    )
    signature = victim.certs["V2"].sign("V2", encode((ballot, proof, "V2")))
    stack.service.adv_broadcast("V2", ("Ballot", "V2", ballot, proof, signature))
    stack.parties["V0"].vote("yes")
    stack.parties["V1"].vote("no")
    stack.run_until_result()
    # The proof verifies against the *fake* key, but voters check against
    # the registered verification key w_{V2} -> rejected -> missing.
    for party in stack.parties.values():
        if party.corrupted:
            continue
        assert party.result is None


def test_malformed_ballot_payloads_ignored():
    stack = _setup()
    session = stack.session
    session.corrupt("V2")
    for garbage in (
        "not-a-ballot",
        ("Ballot", "V2"),  # wrong arity
        ("Ballot", "ghost-voter", 1, None, b""),
        ("Ballot", "V0", 1, None, b""),  # claims another voter, no proof
    ):
        stack.service.adv_broadcast("V2", garbage)
    stack.parties["V0"].vote("yes")
    stack.parties["V1"].vote("no")
    stack.run_until_result()
    for party in stack.parties.values():
        if party.corrupted:
            continue
        assert party.result is None  # V2 still missing; garbage ignored


def test_duplicate_ballot_first_counts():
    """A corrupted voter casting twice cannot double-count."""
    stack = _setup()
    session = stack.session
    session.corrupt("V2")
    victim = stack.parties["V2"]

    def make(choice):
        group = victim.group
        seed_elt = victim._seed()
        exponent = victim.election.exponent_of(choice)
        ballot = group.mul(
            group.exp(seed_elt, victim.secret_exponent), group.power_of_g(exponent)
        )
        proof = ballot_prove(
            group, seed_elt, victim.verification_keys["V2"], ballot,
            victim.secret_exponent, exponent, victim.election.choices,
            session.rng, key_base=victim.w,
        )
        signature = victim.certs["V2"].sign("V2", encode((ballot, proof, "V2")))
        return ("Ballot", "V2", ballot, proof, signature)

    stack.service.adv_broadcast("V2", make("yes"))
    stack.service.adv_broadcast("V2", make("no"))
    stack.parties["V0"].vote("yes")
    stack.parties["V1"].vote("no")
    stack.run_until_result()
    results = {
        pid: party.result
        for pid, party in stack.parties.items()
        if not party.corrupted
    }
    # Exactly one of V2's ballots counted (the first in batch order), and
    # all honest voters agree on which:
    assert len(set(map(str, results.values()))) == 1
    tally = next(iter(results.values()))
    assert tally is not None and sum(tally.values()) == 3


def test_cheating_authority_detected_by_scrutineers():
    """An authority whose shares do not sum to zero is caught."""
    stack = build_voting_stack(voters=3, mode="hybrid", seed=82)
    session = stack.session
    # Deal honestly from A0, dishonestly from A1 (tamper one commitment).
    authorities = list(stack.authorities.values())
    authorities[0].deal()
    bad = authorities[1]
    group, w = bad.skg.parameters()
    voters = bad.election.voters
    shares = [group.random_scalar(session.rng) for _ in voters]  # no zero-sum!
    encrypted = {}
    commitments = {}
    for voter, share in zip(voters, shares):
        public = bad.pkg.public_key(voter) or bad.pkg.keygen(voter)[1]
        encrypted[voter] = encrypt_share(group, public, share, session.rng)
        commitments[voter] = group.exp(w, share)
    bad.rbc.broadcast(
        bad,
        ("Shares", tuple(sorted(encrypted.items())), tuple(sorted(commitments.items()))),
    )
    stack.run_rounds(1)
    for voter in stack.parties.values():
        assert voter.secret_exponent is None  # setup rejected
        rejects = stack.session.log.filter(kind="scrutineer_reject")
    assert rejects, "scrutineer check must fire"


@pytest.mark.parametrize("batched", [False, True], ids=["per-item", "batched"])
@pytest.mark.parametrize(
    "ballot, branches",
    [
        (None, ((1, 2, 3), (1, 2, 3))),  # 3-tuples where 4-tuples belong
        (None, ((1, 2, 3, 4), "x")),  # a non-tuple branch
        (None, ((1, 2, "a", 4), (1, 2, 3, 4))),  # a non-int field
        ("x", ((1, 2, 3, 4), (1, 2, 3, 4))),  # a ballot that is not an int
        # Ints the Fiat–Shamir challenge cannot encode in the group's width:
        (-1, ((1, 2, 3, 4), (1, 2, 3, 4))),  # a negative ballot
        (None, ((2**300, 2, 3, 4), (1, 2, 3, 4))),  # an a1 wider than p
        (None, ((1, -5, 3, 4), (1, 2, 3, 4))),  # a negative a2
    ],
    ids=[
        "short-branches", "str-branch", "str-field", "str-ballot",
        "negative-ballot", "wide-a1", "negative-a2",
    ],
)
def test_malformed_signed_cast_is_a_missing_ballot(ballot, branches, batched):
    """A signed cast of the wrong shape is rejected, not raised on."""
    with batching(BatchPolicy() if batched else None):
        stack = _setup()
        stack.session.corrupt("V2")
        victim = stack.parties["V2"]
        if ballot is None:
            group = victim.group
            ballot = group.mul(
                group.exp(victim._seed(), victim.secret_exponent),
                group.power_of_g(victim.election.exponent_of("yes")),
            )
        proof = BallotProof(branches=branches)
        signature = victim.certs["V2"].sign("V2", encode((ballot, proof, "V2")))
        stack.service.adv_broadcast("V2", ("Ballot", "V2", ballot, proof, signature))
        stack.parties["V0"].vote("yes")
        stack.parties["V1"].vote("no")
        stack.run_until_result()
    for party in stack.parties.values():
        if party.corrupted:
            continue
        assert party.result is None
        assert party.tally_failure == "missing ballots: ['V2']"


def _honest_dealing(authority, rng):
    """``authority``'s encrypted shares and commitments, as ``deal`` builds them."""
    group, w = authority.skg.parameters()
    voters = authority.election.voters
    shares = [group.random_scalar(rng) for _ in voters[:-1]]
    shares.append((-sum(shares)) % group.q)
    encrypted, commitments = {}, {}
    for voter, share in zip(voters, shares):
        public = authority.pkg.public_key(voter) or authority.pkg.keygen(voter)[1]
        encrypted[voter] = encrypt_share(group, public, share, rng)
        commitments[voter] = group.exp(w, share)
    return tuple(sorted(encrypted.items())), tuple(sorted(commitments.items()))


@pytest.mark.parametrize(
    "malform",
    [
        lambda encrypted, commitments: ("Shares", "garbage", ()),
        lambda encrypted, commitments: ("Shares", ()),
        lambda encrypted, commitments: (
            "Shares",
            tuple((voter, (eph, body[:-1])) for voter, (eph, body) in encrypted),
            commitments,
        ),
        lambda encrypted, commitments: (
            "Shares", encrypted, commitments[:-1] + ((commitments[-1][0], "x"),)
        ),
        lambda encrypted, commitments: ("Shares", (), commitments),
    ],
    ids=["non-pair-items", "wrong-arity", "short-body", "str-commitment", "no-entry"],
)
def test_malformed_dealing_fails_scrutiny(malform):
    """A corrupted authority's malformed dealing is rejected, not raised on."""
    stack = build_voting_stack(voters=3, mode="hybrid", seed=83)
    session = stack.session
    good, bad = stack.authorities.values()
    good.deal()
    bad.rbc.broadcast(bad, malform(*_honest_dealing(bad, session.rng)))
    stack.run_rounds(1)
    rejects = {
        event.source: event.detail
        for event in session.log.filter(kind="scrutineer_reject")
    }
    for voter in stack.parties.values():
        assert voter.secret_exponent is None
        assert not voter.verification_keys
        assert rejects[voter.entity_id] == bad.pid
