"""Self-tallying voting (Figure 17 / Figure 18, Theorem 4)."""

import pytest

from repro.core import build_voting_stack
from repro.crypto.groups import (
    _TABLE_PENDING,
    TEST_GROUP,
    SchnorrGroup,
    available_arith_backends,
)
from repro.functionalities.voting import VotingSystem, plurality_tally
from repro.protocols.voting_protocol import Election, decrypt_share, encrypt_share
from repro.uc.environment import Environment
from repro.uc.session import Session


def _drive(stack, votes):
    if stack.mode == "ideal":
        stack.service.init()
    else:
        for authority in stack.authorities.values():
            authority.deal()
        stack.run_rounds(1)
    for pid, candidate in votes:
        stack.parties[pid].vote(candidate)
    stack.run_until_result()
    return stack.results()


@pytest.mark.parametrize("mode", ("ideal", "hybrid"))
def test_simple_tally(mode):
    stack = build_voting_stack(voters=3, mode=mode, seed=30)
    results = _drive(stack, [("V0", "yes"), ("V1", "no"), ("V2", "yes")])
    assert all(r == {"yes": 2, "no": 1} for r in results.values())


@pytest.mark.parametrize("mode", ("ideal", "hybrid"))
def test_unanimous(mode):
    stack = build_voting_stack(voters=4, mode=mode, seed=31)
    results = _drive(stack, [(f"V{i}", "no") for i in range(4)])
    expected = {"yes": 0, "no": 4} if mode == "hybrid" else {"no": 4}
    assert all(r == expected for r in results.values())


def test_three_candidates_hybrid():
    stack = build_voting_stack(
        voters=4, mode="hybrid", seed=32, candidates=("a", "b", "c")
    )
    results = _drive(
        stack, [("V0", "a"), ("V1", "b"), ("V2", "c"), ("V3", "b")]
    )
    assert all(r == {"a": 1, "b": 2, "c": 1} for r in results.values())


def test_all_voters_must_cast_for_self_tally():
    """Σ x_i = 0 holds only over the full voter set ([KY02] property)."""
    stack = build_voting_stack(voters=3, mode="hybrid", seed=33)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    stack.parties["V0"].vote("yes")
    stack.parties["V1"].vote("no")
    # V2 abstains.
    stack.run_until_result()
    for party in stack.parties.values():
        assert party.result is None
        assert "missing" in party.tally_failure


def test_setup_verifies_share_consistency():
    stack = build_voting_stack(voters=3, mode="hybrid", seed=34)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    for voter in stack.parties.values():
        assert voter.secret_exponent is not None
        # verification key matches the secret exponent:
        group, w = voter.group, voter.w
        assert group.exp(w, voter.secret_exponent) == voter.verification_keys[voter.pid]
    # and the exponents sum to zero:
    total = sum(v.secret_exponent for v in stack.parties.values()) % TEST_GROUP.q
    assert total == 0


def _hybrid_election_registrations(monkeypatch):
    """Run a 3-voter hybrid election on a cold group; return what it registered.

    Checks that exactly ``w`` and the ballot seed ``r`` are registered and
    that ``r`` carries its verified public log; returns the group, the
    registry as the election left it and ``w``.
    """
    import repro.core.stacks as stacks
    from repro.crypto.hashing import hash_to_int
    from repro.functionalities.keygen import AuthorityKeyGen

    cold = SchnorrGroup(p=TEST_GROUP.p, q=TEST_GROUP.q, g=TEST_GROUP.g)
    monkeypatch.setattr(
        stacks, "AuthorityKeyGen", lambda session: AuthorityKeyGen(session, group=cold)
    )
    stack = build_voting_stack(voters=3, mode="hybrid", seed=30)
    results = _drive(stack, [("V0", "yes"), ("V1", "no"), ("V2", "yes")])
    assert all(r == {"yes": 2, "no": 1} for r in results.values())
    registered = dict(cold._fb_bases)  # before the seed is derived again below
    voter = stack.parties["V0"]
    assert voter.group is cold
    seed = voter._seed()
    assert set(registered) == {voter.w, seed}
    log = registered[seed]
    assert type(log) is int and cold.power_of_g(log) == seed
    digest = voter.oracle.query(b"election-seed:" + stack.session.sid.encode(), voter.pid)
    assert log == hash_to_int(digest, modulus=cold.q, domain=b"seed")
    return cold, registered, voter.w


def test_hybrid_election_registers_exactly_w_and_r(monkeypatch, use_arith):
    """FSKG's ``w`` gets a fixed-base table; the ballot seed ``r`` a verified log.

    Pins the hit paths of ``SchnorrGroup.exp``: digests stay equal whether
    or not the registrations exist, so only this check notices a lost one.
    ``r = g^h`` with a public ``h``, so its powers are ``g``-powers and it
    needs no table; ``w``'s log is FSKG's secret.  The python tier walks
    tables, so the election builds ``w``'s.
    """
    use_arith("python")
    _cold, registered, w = _hybrid_election_registrations(monkeypatch)
    window, table = registered[w]
    assert window >= 1 and table[0][1] == w


@pytest.mark.skipif("openssl" not in available_arith_backends(), reason="no libcrypto")
def test_hybrid_election_under_openssl_builds_no_table(monkeypatch, use_arith):
    """Under openssl every power is one ``powmod``: ``w`` stays registered, unbuilt."""
    use_arith("openssl")
    cold, registered, w = _hybrid_election_registrations(monkeypatch)
    assert registered[w] is _TABLE_PENDING
    assert cold._fb_state is None


def test_vote_before_setup_queued():
    stack = build_voting_stack(voters=2, mode="hybrid", seed=35)
    stack.parties["V0"].vote("yes")  # setup not yet run: queued
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    stack.parties["V1"].vote("no")
    stack.run_until_result()
    assert all(
        r == {"yes": 1, "no": 1} for r in stack.results().values()
    )


def test_unknown_candidate_rejected():
    stack = build_voting_stack(voters=2, mode="hybrid", seed=36)
    with pytest.raises(ValueError):
        stack.parties["V0"].vote("nobody")


def test_double_vote_ignored():
    stack = build_voting_stack(voters=2, mode="hybrid", seed=37)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    stack.parties["V0"].vote("yes")
    stack.parties["V0"].vote("no")  # second cast dropped by the machine
    stack.parties["V1"].vote("no")
    stack.run_until_result()
    assert all(r == {"yes": 1, "no": 1} for r in stack.results().values())


def test_share_encryption_roundtrip(rng):
    sk = TEST_GROUP.random_scalar(rng)
    pk = TEST_GROUP.power_of_g(sk)
    share = TEST_GROUP.random_scalar(rng)
    ct = encrypt_share(TEST_GROUP, pk, share, rng)
    assert decrypt_share(TEST_GROUP, sk, ct) == share


def test_share_encryption_wrong_key(rng):
    sk = TEST_GROUP.random_scalar(rng)
    pk = TEST_GROUP.power_of_g(sk)
    share = TEST_GROUP.random_scalar(rng)
    ct = encrypt_share(TEST_GROUP, pk, share, rng)
    assert decrypt_share(TEST_GROUP, sk + 1, ct) != share


def test_election_encoding():
    election = Election(voters=("V0", "V1", "V2"), candidates=("a", "b"))
    assert election.exponent_of("a") == 1
    assert election.exponent_of("b") == 4  # (3+1)^1
    assert election.decode_tally(1 * 2 + 4 * 1) == {"a": 2, "b": 1}


# -- ideal FVS specifics --------------------------------------------------------


def test_ideal_fairness_result_before_tally_never_leaks():
    """No Result leak exists before t_tally − α."""
    stack = build_voting_stack(voters=2, mode="ideal", seed=38, phi=3, delta=3, alpha=1)
    stack.service.init()
    stack.parties["V0"].vote("yes")
    stack.parties["V1"].vote("no")
    t_tally = stack.service.t_tally
    alpha = stack.service.alpha
    stack.run_until_result()
    result_leaks = [
        e for e in stack.session.log.filter(kind="leak", source="FVS")
        if e.detail and e.detail[0] == "Result"
    ]
    assert result_leaks
    assert min(e.time for e in result_leaks) == t_tally - alpha


def test_ideal_invalid_vote_dropped():
    session = Session(seed=1)
    vs = VotingSystem(session, phi=2, delta=1, alpha=0, valid_votes=("yes", "no"))
    from repro.functionalities.dummy import DummyVoterParty

    voters = {f"V{i}": DummyVoterParty(session, f"V{i}", vs) for i in range(2)}
    env = Environment(session)
    vs.init()
    voters["V0"].vote("yes")
    voters["V1"].vote("banana")  # invalid: dropped
    env.run_rounds(5)
    results = [o for o in voters["V0"].outputs if o[0] == "Result"]
    assert results and results[-1][1] == {"yes": 1}


def test_ideal_quota_most_recent_kept():
    session = Session(seed=1)
    vs = VotingSystem(session, phi=3, delta=1, alpha=0, valid_votes=("a", "b"), quota=1)
    from repro.functionalities.dummy import DummyVoterParty

    voters = {f"V{i}": DummyVoterParty(session, f"V{i}", vs) for i in range(2)}
    env = Environment(session)
    vs.init()
    voters["V0"].vote("a")
    env.run_rounds(1)
    voters["V0"].vote("b")  # re-vote: replaces within quota
    voters["V1"].vote("a")
    env.run_rounds(5)
    results = [o for o in voters["V0"].outputs if o[0] == "Result"]
    assert results and results[-1][1] == {"a": 1, "b": 1}


def test_plurality_tally_counts():
    assert plurality_tally(["a", "b", "a"]) == {"a": 2, "b": 1}
