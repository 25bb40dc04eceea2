"""The folded ballot prover and verifier against their general forms.

``ballot_prove`` holds the witness and trusts its statement (``w =
key_base^x``, ``ballot = seed^x · g^vote``, both bases in the order-``q``
subgroup), so each simulated OR-branch's commitments are computed
straight from the witness.  For a true statement the proof, and every
draw from the rng, must be exactly what the general simulation below
(copied from the prover before the fold) produces, in every real-branch
position; a false statement draws the same randomness and yields a
proof that ``ballot_verify`` rejects.

``ballot_verify`` and ``ballot_batch_item`` move each branch's choice
shift to the left side of the seed equation.  Their verdicts must equal
the verifier copied below from before that change on adversarial inputs,
except that an input on which the copy raises is a rejected ballot.
"""

import random
from typing import List, Sequence, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.crypto.batch import verify_batch
from repro.crypto.groups import TEST_GROUP, SchnorrGroup
from repro.crypto.zkp import (
    BallotProof,
    _commitment_nonce,
    _fs_challenge,
    ballot_batch_item,
    ballot_prove,
    ballot_verify,
)

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


def _reference_verify(group, seed, w, ballot, proof, choices, key_base=0):
    """The verifier before the fold: ``seed^s == a2 · (ballot / g^choice)^e``.

    Returns ``None`` where it raised (a hashed element that does not fit
    the group's byte width).
    """
    key_base = key_base or group.g
    choices = list(choices)
    branches = proof.branches
    if not (
        isinstance(ballot, int)
        and isinstance(branches, tuple)
        and len(branches) == len(choices)
        and all(
            isinstance(branch, tuple)
            and len(branch) == 4
            and all(isinstance(value, int) for value in branch)
            for branch in branches
        )
    ):
        return False
    flat: List[int] = [seed, w, ballot]
    for a1, a2, _, _ in branches:
        flat.extend((a1, a2))
    try:
        global_challenge = _fs_challenge(group, *flat, domain=b"ballot-or")
    except OverflowError:
        return None
    if sum(e for _, _, e, _ in branches) % group.q != global_challenge:
        return False
    for (a1, a2, e, s), choice in zip(branches, choices):
        shifted = group.mul(ballot, group.power_of_g(-choice))
        if group.exp(key_base, s) != group.multi_exp(((a1, 1), (w, e))):
            return False
        if group.exp(seed, s) != group.multi_exp(((a2, 1), (shifted, e))):
            return False
    return True


def _group(register: bool, seed_log: int, key_base: int) -> SchnorrGroup:
    """A cold group, optionally with the election's registrations."""
    group = SchnorrGroup(p=P, q=Q, g=G)
    if register:
        group.register_fixed_base(pow(G, seed_log, P), log=seed_log)
        group.register_fixed_base(key_base)
    return group


def _both(group, seed, w, ballot, secret, vote, choices, rng_seed, key_base):
    """Prove with the folded and the general prover from equal rngs; both
    must leave their rng in the same state.  Returns both proofs."""
    rngs = random.Random(rng_seed), random.Random(rng_seed)
    expected = _reference_prove(
        group, seed, w, ballot, secret, vote, choices, rngs[0], key_base=key_base
    )
    actual = ballot_prove(group, seed, w, ballot, secret, vote, choices, rngs[1], key_base=key_base)
    assert rngs[0].getstate() == rngs[1].getstate()
    return actual, expected


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
    proof, expected = _both(group, seed, w, ballot, secret, vote, choices, rng_seed, key_base)
    if fault == "none":
        assert proof == expected
        assert ballot_verify(group, seed, w, ballot, proof, choices, key_base=key_base)
    else:
        # The prover trusts its statement; a false one does not verify.
        assert not ballot_verify(group, seed, w, ballot, proof, choices, key_base=key_base)


@pytest.mark.parametrize("real", (0, 1, 2))
@pytest.mark.parametrize("outsider", ("key_base", "seed", "both"))
def test_bases_outside_the_subgroup_draw_the_same_randomness(real, outsider):
    """``p − 1`` (order 2) and ``3`` (a non-residue) are not members, so
    they break the prover's precondition: ``exp`` reduces exponents mod
    q, which the fold relies on only for members.  The prover still draws
    exactly the general simulation's randomness, and the folded verifier
    agrees with the copied one on what it produces."""
    choices = [1, 4, 16]
    secret = 0x5EC12E7
    key_base = P - 1 if outsider in ("key_base", "both") else pow(G, 77, P)
    seed = 3 if outsider in ("seed", "both") else pow(G, 88, P)
    group = SchnorrGroup(p=P, q=Q, g=G)
    w = group.exp(key_base, secret)
    ballot = group.mul(group.exp(seed, secret), group.power_of_g(choices[real]))
    for rng_seed in range(4):
        proof, _ = _both(group, seed, w, ballot, secret, choices[real], choices, rng_seed, key_base)
        assert ballot_verify(group, seed, w, ballot, proof, choices, key_base=key_base) == bool(
            _reference_verify(group, seed, w, ballot, proof, choices, key_base=key_base)
        )


def test_every_real_branch_position_verifies():
    group = TEST_GROUP
    choices = [1, 6, 36, 216]
    seed, key_base = group.power_of_g(0x5EED), group.power_of_g(0xBA5E)
    secret = 0xC0FFEE
    w = group.exp(key_base, secret)
    for real, vote in enumerate(choices):
        ballot = group.mul(group.exp(seed, secret), group.power_of_g(vote))
        proof, expected = _both(group, seed, w, ballot, secret, vote, choices, real, key_base)
        assert proof == expected
        assert ballot_verify(group, seed, w, ballot, proof, choices, key_base=key_base)


# ---------------------------------------------------------------------------
# The folded verifier against the copied one, on adversarial casts
# ---------------------------------------------------------------------------

#: How a corrupted voter may replace a group element it signs (``x`` is
#: the honest value): a non-member (``−x`` has order 2q), zero, a value
#: at or past ``p``, or one the challenge cannot encode.
ELEMENT_FAULTS = {
    "none": lambda x: x,
    "non-member": lambda x: P - x,
    "zero": lambda x: 0,
    "plus-p": lambda x: x + P,
    "negative": lambda x: -x,
    "wide": lambda x: x + 2**300,
}

#: Elements below this fit the group's byte width.
ENCODABLE = 1 << 8 * ((P.bit_length() + 7) // 8)

#: How it may replace a challenge or response: outside ``[0, q)`` with
#: the same residue, or a different value.
SCALAR_FAULTS = {
    "none": lambda x: x,
    "plus-q": lambda x: x + Q,
    "minus-q": lambda x: x - Q,
    "negative": lambda x: -x,
    "wide": lambda x: x + 2**300,
    "plus-one": lambda x: x + 1,
}


def _honest_cast(group, seed, key_base, secret, vote, choices, rng):
    w = pow(key_base, secret, P)
    ballot = pow(seed, secret, P) * pow(G, vote, P) % P
    return w, ballot, ballot_prove(group, seed, w, ballot, secret, vote, choices, rng, key_base=key_base)


def _tamper(group, seed, w, ballot, proof, target, element_fault, branch, scalar, scalar_fault, rebind):
    """Apply one element fault and one scalar fault; with ``rebind``, fix
    the next branch's challenge so the challenges sum to the Fiat–Shamir
    challenge over the tampered elements (when they are encodable)."""
    branches = [list(entry) for entry in proof.branches]
    branch %= len(branches)
    corrupt = ELEMENT_FAULTS[element_fault]
    if target == "w":
        w = corrupt(w)
    elif target == "ballot":
        ballot = corrupt(ballot)
    else:
        position = ("a1", "a2").index(target)
        branches[branch][position] = corrupt(branches[branch][position])
    position = 2 + ("e", "s").index(scalar)
    branches[branch][position] = SCALAR_FAULTS[scalar_fault](branches[branch][position])
    if rebind:
        flat = [seed, w, ballot] + [element for entry in branches for element in entry[:2]]
        if all(0 <= element < ENCODABLE for element in flat):
            other = (branch + 1) % len(branches)
            rest = sum(entry[2] for index, entry in enumerate(branches) if index != other)
            branches[other][2] = (_fs_challenge(group, *flat, domain=b"ballot-or") - rest) % Q
    return w, ballot, BallotProof(branches=tuple(tuple(entry) for entry in branches))


@PROPERTY
@given(
    secret=st.integers(min_value=0, max_value=Q - 1),
    seed_log=st.integers(min_value=1, max_value=Q - 1),
    key_log=st.integers(min_value=1, max_value=Q - 1),
    candidates=st.integers(min_value=2, max_value=3),
    real=st.integers(min_value=0, max_value=2),
    seed_kind=st.sampled_from(("registered", "unregistered", "non-member")),
    target=st.sampled_from(("w", "ballot", "a1", "a2")),
    element_fault=st.sampled_from(sorted(ELEMENT_FAULTS)),
    branch=st.integers(min_value=0, max_value=2),
    scalar=st.sampled_from(("e", "s")),
    scalar_fault=st.sampled_from(sorted(SCALAR_FAULTS)),
    rebind=st.booleans(),
    rng_seed=st.integers(min_value=0, max_value=2**32),
)
def test_verify_matches_the_copied_verifier(
    secret, seed_log, key_log, candidates, real, seed_kind, target, element_fault,
    branch, scalar, scalar_fault, rebind, rng_seed,
):
    choices = [4**index for index in range(candidates)]
    vote = choices[real % candidates]
    key_base = pow(G, key_log, P)
    group = _group(seed_kind == "registered", seed_log, key_base)
    seed = pow(G, seed_log, P)
    if seed_kind == "non-member":
        seed = P - seed
    rng = random.Random(rng_seed)
    casts = [_honest_cast(group, seed, key_base, secret + i, vote, choices, rng) for i in range(3)]
    w, ballot, proof = _tamper(
        group, seed, *casts[0], target, element_fault, branch, scalar, scalar_fault, rebind
    )
    # A verifier's own key is a product mod p, so it always encodes.
    assume(0 <= w < ENCODABLE)
    casts[0] = (w, ballot, proof)
    expected = [
        bool(_reference_verify(group, seed, *cast, choices, key_base=key_base)) for cast in casts
    ]
    actual = [ballot_verify(group, seed, *cast, choices, key_base=key_base) for cast in casts]
    assert actual == expected
    items = [ballot_batch_item(group, seed, *cast, choices, key_base=key_base) for cast in casts]
    assert list(verify_batch(group, items).verdicts) == expected
    # Bisection leaves fall back to the exact check, so the verdicts alone
    # would hide a wrong equation: each item's equations must hold
    # exactly when the copied verifier accepts.
    for item, verdict in zip(items, expected):
        if item.equations:
            holds = all(
                group.multi_exp(eq.lhs) == group.multi_exp(eq.rhs) for eq in item.equations
            )
            assert holds == verdict


def test_a_commitment_past_p_that_encodes_keeps_its_verdict():
    """``1 + p`` fits p's byte width, so the copied verifier hashed it and
    accepted; the width screen must accept it too.

    The cast is crafted: branch 1 is simulated with ``s = e·x``, which
    makes its ``a1`` the identity, sent as ``1 + p``.
    """
    group = SchnorrGroup(p=P, q=Q, g=G)
    choices = [1, 4]
    seed, key_base, secret, k = pow(G, 5, P), pow(G, 7, P), 11, 13
    w = pow(key_base, secret, P)
    ballot = pow(seed, secret, P) * G % P  # a vote for choices[0]
    e1 = 3
    simulated = (1 + P, group.power_of_g((choices[1] - choices[0]) * e1), e1, e1 * secret)
    real = (group.exp(key_base, k), group.exp(seed, k))
    challenge = _fs_challenge(group, seed, w, ballot, *real, *simulated[:2], domain=b"ballot-or")
    e0 = (challenge - e1) % Q
    proof = BallotProof(branches=((*real, e0, (k + e0 * secret) % Q), simulated))
    assert _reference_verify(group, seed, w, ballot, proof, choices, key_base=key_base)
    assert ballot_verify(group, seed, w, ballot, proof, choices, key_base=key_base)
    item = ballot_batch_item(group, seed, w, ballot, proof, choices, key_base=key_base)
    assert verify_batch(group, [item]).verdicts == (True,)
