"""``ballot_prove``'s witness shortcut against the general simulation.

When the prover's statement is true (``w = key_base^x`` and
``ballot = seed^x · g^vote``, both bases in the order-``q`` subgroup),
each simulated OR-branch's commitments are computed straight from the
witness.  The proof, and every draw from the rng, must be exactly what
the general simulation below (copied from the prover before the
shortcut) produces, for true statements and false ones alike, in every
real-branch position.
"""

import random
from typing import List, Sequence, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.groups import TEST_GROUP, SchnorrGroup
from repro.crypto.zkp import BallotProof, _commitment_nonce, _fs_challenge, ballot_prove, ballot_verify

P, Q, G = TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g

#: Bounded, derandomized profile: identical examples on every run.
PROPERTY = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference_statement(group, seed, w, ballot, vote):
    shifted = group.mul(ballot, group.inv(group.power_of_g(vote)))
    return w, shifted


def _reference_prove(
    group: SchnorrGroup,
    seed: int,
    w: int,
    ballot: int,
    secret: int,
    vote: int,
    choices: Sequence[int],
    rng,
    key_base: int = 0,
) -> BallotProof:
    """The general CDS simulation, one ``pow`` pair per simulated branch."""
    key_base = key_base or group.g
    choices = list(choices)
    if vote not in choices:
        raise ValueError("vote not in allowed choice set")
    real_index = choices.index(vote)
    commitments: List[Tuple[int, int]] = [(0, 0)] * len(choices)
    challenges: List[int] = [0] * len(choices)
    responses: List[int] = [0] * len(choices)

    k, real_a1 = _commitment_nonce(group, key_base, rng)
    for index, choice in enumerate(choices):
        public1, public2 = _reference_statement(group, seed, w, ballot, choice)
        if index == real_index:
            commitments[index] = (real_a1, pow(seed, k % group.q, group.p))
        else:
            challenges[index] = group.random_scalar(rng)
            responses[index] = group.random_scalar(rng)
            a1 = group.mul(
                pow(key_base, responses[index], group.p),
                group.inv(pow(public1, challenges[index], group.p)),
            )
            a2 = group.mul(
                pow(seed, responses[index], group.p),
                group.inv(pow(public2, challenges[index], group.p)),
            )
            commitments[index] = (a1, a2)

    flat: List[int] = [seed, w, ballot]
    for a1, a2 in commitments:
        flat.extend((a1, a2))
    global_challenge = _fs_challenge(group, *flat, domain=b"ballot-or")

    challenges[real_index] = (global_challenge - sum(challenges)) % group.q
    responses[real_index] = (k + challenges[real_index] * secret) % group.q

    return BallotProof(
        branches=tuple(
            (commitments[i][0], commitments[i][1], challenges[i], responses[i])
            for i in range(len(choices))
        )
    )


def _group(register: bool, seed_log: int, key_base: int) -> SchnorrGroup:
    """A cold group, optionally with the election's registrations."""
    group = SchnorrGroup(p=P, q=Q, g=G)
    if register:
        group.register_fixed_base(pow(G, seed_log, P), log=seed_log)
        group.register_fixed_base(key_base)
    return group


def _both(group, seed, w, ballot, secret, vote, choices, rng_seed, key_base):
    rngs = random.Random(rng_seed), random.Random(rng_seed)
    expected = _reference_prove(
        group, seed, w, ballot, secret, vote, choices, rngs[0], key_base=key_base
    )
    actual = ballot_prove(group, seed, w, ballot, secret, vote, choices, rngs[1], key_base=key_base)
    assert actual == expected
    assert rngs[0].getstate() == rngs[1].getstate()
    return actual


@PROPERTY
@given(
    secret=st.integers(min_value=0, max_value=Q - 1),
    seed_log=st.integers(min_value=1, max_value=Q - 1),
    key_log=st.integers(min_value=1, max_value=Q - 1),
    voters=st.integers(min_value=2, max_value=6),
    candidates=st.integers(min_value=2, max_value=4),
    real=st.integers(min_value=0, max_value=3),
    fault=st.sampled_from(("none", "wrong-w", "wrong-ballot", "both")),
    key_kind=st.sampled_from(("g", "w")),
    register=st.booleans(),
    rng_seed=st.integers(min_value=0, max_value=2**32),
)
def test_prove_matches_the_general_simulation(
    secret, seed_log, key_log, voters, candidates, real, fault, key_kind, register, rng_seed
):
    choices = [(voters + 1) ** index for index in range(candidates)]
    vote = choices[real % candidates]
    seed = pow(G, seed_log, P)
    key_base = G if key_kind == "g" else pow(G, key_log, P)
    group = _group(register, seed_log, key_base)
    w = pow(key_base, secret, P)
    ballot = pow(seed, secret, P) * pow(G, vote, P) % P
    if fault in ("wrong-w", "both"):
        w = w * G % P
    if fault in ("wrong-ballot", "both"):
        ballot = ballot * G % P
    proof = _both(group, seed, w, ballot, secret, vote, choices, rng_seed, key_base)
    assert ballot_verify(group, seed, w, ballot, proof, choices, key_base=key_base) == (
        fault == "none"
    )


@pytest.mark.parametrize("real", (0, 1, 2))
@pytest.mark.parametrize("outsider", ("key_base", "seed", "both"))
def test_bases_outside_the_subgroup_take_the_general_path(real, outsider):
    """``exp`` reduces exponents mod q, which the witness shortcut may
    only rely on for subgroup members; ``p − 1`` (order 2) and ``3``
    (a non-residue) are not members."""
    choices = [1, 4, 16]
    secret = 0x5EC12E7
    key_base = P - 1 if outsider in ("key_base", "both") else pow(G, 77, P)
    seed = 3 if outsider in ("seed", "both") else pow(G, 88, P)
    group = SchnorrGroup(p=P, q=Q, g=G)
    w = group.exp(key_base, secret)
    ballot = group.mul(group.exp(seed, secret), group.power_of_g(choices[real]))
    for rng_seed in range(4):
        _both(group, seed, w, ballot, secret, choices[real], choices, rng_seed, key_base)


def test_every_real_branch_position_verifies():
    group = TEST_GROUP
    choices = [1, 6, 36, 216]
    seed, key_base = group.power_of_g(0x5EED), group.power_of_g(0xBA5E)
    secret = 0xC0FFEE
    w = group.exp(key_base, secret)
    for real, vote in enumerate(choices):
        ballot = group.mul(group.exp(seed, secret), group.power_of_g(vote))
        proof = _both(group, seed, w, ballot, secret, vote, choices, real, key_base)
        assert ballot_verify(group, seed, w, ballot, proof, choices, key_base=key_base)
