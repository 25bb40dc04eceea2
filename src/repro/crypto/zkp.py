"""Σ-protocol zero-knowledge proofs (Fiat–Shamir, non-interactive).

The self-tallying protocol ΠSTVS (paper Figure 18) posts each ballot "along
with a proof that the ballot encrypts an allowable vote and that the
correct secret exponent was used".  We provide:

* :func:`pok_prove` / :func:`pok_verify` — Schnorr proof of knowledge of a
  discrete log;
* :func:`cp_prove` / :func:`cp_verify` — Chaum–Pedersen proof that two
  logs are equal (same secret under two bases);
* :func:`ballot_prove` / :func:`ballot_verify` — disjunctive (OR-composed)
  Chaum–Pedersen proof that a ballot :math:`b = r^{x} g^{v}` was formed
  with the registered secret exponent ``x`` (i.e. ``w = g^x``) and a vote
  ``v`` from the allowed choice set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

from repro.crypto.batch import BatchItem, Equation
from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import hash_to_int
from repro.crypto.randomness import current_source


def _commitment_nonce(group: SchnorrGroup, base: int, rng) -> Tuple[int, int]:
    """One fresh ``(k, base^k)`` from the ambient randomness source.

    When the base is the group generator the preprocessed ``(k, g^k)``
    pool applies directly; any other base gets a pool/sampled scalar and
    pays the exponentiation online (the commitment cannot be precomputed
    for a base only known at proving time).
    """
    source = current_source()
    if base == group.g:
        return source.schnorr_nonce(group, rng)
    k = source.nonce_scalar(group, rng)
    return k, group.exp(base, k)


# ---------------------------------------------------------------------------
# Schnorr proof of knowledge of a discrete log
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchnorrProof:
    """Non-interactive Schnorr PoK: commitment ``a``, response ``s``."""

    a: int
    s: int


def _fs_challenge(group: SchnorrGroup, *elements: int, domain: bytes) -> int:
    return hash_to_int(
        *[group.element_to_bytes(element) for element in elements],
        modulus=group.q,
        domain=domain,
    )


def pok_prove(group: SchnorrGroup, base: int, public: int, secret: int, rng) -> SchnorrProof:
    """Prove knowledge of ``secret`` with ``public = base^secret``."""
    k, a = _commitment_nonce(group, base, rng)
    e = _fs_challenge(group, base, public, a, domain=b"pok")
    s = (k + e * secret) % group.q
    return SchnorrProof(a=a, s=s)


def pok_verify(group: SchnorrGroup, base: int, public: int, proof: SchnorrProof) -> bool:
    """Check ``base^s == a · public^e``."""
    if not group.is_member(proof.a):
        return False
    e = _fs_challenge(group, base, public, proof.a, domain=b"pok")
    return group.exp(base, proof.s) == group.multi_exp(((proof.a, 1), (public, e)))


def pok_batch_item(
    group: SchnorrGroup, base: int, public: int, proof: SchnorrProof
) -> BatchItem:
    """A batch item for one PoK check: ``base^s == a · public^e``.

    :func:`pok_verify` only membership-checks the commitment, but RLC
    soundness needs *every* base in the order-q subgroup, so ``base`` and
    ``public`` join the screen too; any screen failure falls back to the
    exact verifier, preserving its (laxer) verdict.
    """
    check = partial(pok_verify, group, base, public, proof)
    if not all(0 < element < group.p for element in (base, public, proof.a)):
        return BatchItem(bases=(), equations=(), check=check)
    e = _fs_challenge(group, base, public, proof.a, domain=b"pok")
    equation = Equation(
        lhs=((base, proof.s),),
        rhs=((proof.a, 1), (public, e)),
    )
    return BatchItem(bases=(base, public, proof.a), equations=(equation,), check=check)


# ---------------------------------------------------------------------------
# Chaum–Pedersen equality of discrete logs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CPProof:
    """Chaum–Pedersen proof: commitments ``a1, a2``, response ``s``."""

    a1: int
    a2: int
    s: int


def cp_prove(
    group: SchnorrGroup,
    base1: int,
    public1: int,
    base2: int,
    public2: int,
    secret: int,
    rng,
) -> CPProof:
    """Prove ``log_base1(public1) == log_base2(public2) == secret``."""
    k, a1 = _commitment_nonce(group, base1, rng)
    a2 = group.exp(base2, k)
    e = _fs_challenge(group, base1, public1, base2, public2, a1, a2, domain=b"cp")
    s = (k + e * secret) % group.q
    return CPProof(a1=a1, a2=a2, s=s)


def cp_verify(
    group: SchnorrGroup,
    base1: int,
    public1: int,
    base2: int,
    public2: int,
    proof: CPProof,
) -> bool:
    """Check both verification equations against the joint challenge."""
    if not (group.is_member(proof.a1) and group.is_member(proof.a2)):
        return False
    e = _fs_challenge(
        group, base1, public1, base2, public2, proof.a1, proof.a2, domain=b"cp"
    )
    ok1 = group.exp(base1, proof.s) == group.multi_exp(((proof.a1, 1), (public1, e)))
    ok2 = group.exp(base2, proof.s) == group.multi_exp(((proof.a2, 1), (public2, e)))
    return ok1 and ok2


def cp_batch_item(
    group: SchnorrGroup,
    base1: int,
    public1: int,
    base2: int,
    public2: int,
    proof: CPProof,
) -> BatchItem:
    """A batch item for one Chaum–Pedersen check (two equations).

    Each equation draws its own RLC coefficient in :func:`verify_batch`;
    a shared per-item coefficient would let errors in the two equations
    cancel.
    """
    check = partial(cp_verify, group, base1, public1, base2, public2, proof)
    elements = (base1, public1, base2, public2, proof.a1, proof.a2)
    if not all(0 < element < group.p for element in elements):
        return BatchItem(bases=(), equations=(), check=check)
    e = _fs_challenge(
        group, base1, public1, base2, public2, proof.a1, proof.a2, domain=b"cp"
    )
    equations = (
        Equation(lhs=((base1, proof.s),), rhs=((proof.a1, 1), (public1, e))),
        Equation(lhs=((base2, proof.s),), rhs=((proof.a2, 1), (public2, e))),
    )
    return BatchItem(bases=elements, equations=equations, check=check)


# ---------------------------------------------------------------------------
# Disjunctive ballot validity proof (OR of Chaum–Pedersen statements)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallotProof:
    """An OR-proof over the allowed vote set.

    For each allowed vote ``v`` there is a branch with commitments
    ``(a1, a2)``, a per-branch challenge ``e`` and response ``s``; the
    per-branch challenges sum to the Fiat–Shamir challenge.
    """

    branches: Tuple[Tuple[int, int, int, int], ...]  # (a1, a2, e, s) per choice


def ballot_prove(
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
    """Prove ``ballot = seed^secret · g^vote`` with ``w = base^secret``, vote ∈ choices.

    ``key_base`` is the base of the verification key (default ``g``); the
    STVS protocol uses a separate public base ``w`` for voter keys.

    Standard CDS OR-composition: the real branch is proved honestly, every
    other branch is simulated with a random challenge/response pair, and
    the real branch's challenge absorbs the difference so the challenges
    sum to the global Fiat–Shamir challenge.

    Precondition: ``w = key_base^secret``, ``ballot = seed^secret ·
    g^vote``, and ``key_base`` and ``seed`` lie in the order-``q``
    subgroup.  The prover does not re-check it.  Because it holds, each
    simulated branch's commitments ``a1 = key_base^s / w^e`` and ``a2 =
    seed^s / (ballot / g^choice)^e`` fold to ``key_base^{s−e·x}`` and
    ``seed^{s−e·x} · g^{−(vote−choice)·e}``: two exponentiations and a
    ``g``-power, no inversions.  A false statement over subgroup elements
    yields a proof that :func:`ballot_verify` rejects.
    """
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
        if index == real_index:
            commitments[index] = (real_a1, group.exp(seed, k))
            continue
        challenges[index] = group.random_scalar(rng)
        responses[index] = group.random_scalar(rng)
        folded = (responses[index] - challenges[index] * secret) % group.q
        commitments[index] = (
            group.exp(key_base, folded),
            group.mul(
                group.exp(seed, folded),
                group.power_of_g(-(vote - choice) * challenges[index]),
            ),
        )

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


def _ballot_well_formed(
    group: SchnorrGroup, ballot: int, proof: BallotProof, choices: Sequence[int]
) -> bool:
    """Structural screen: an int ballot and one ``(a1, a2, e, s)`` tuple
    of ints per choice, with the ballot and every commitment encodable.

    A corrupted voter controls the ballot and every field of the proof it
    signs, so the shape is checked before any branch is unpacked, and the
    hashed elements are checked against the group's byte width before the
    Fiat–Shamir challenge encodes them; a malformed cast is a rejected
    ballot, never an exception in an honest tally.
    """
    branches = proof.branches
    limit = 1 << 8 * ((group.p.bit_length() + 7) // 8)
    return (
        isinstance(ballot, int)
        and 0 <= ballot < limit
        and isinstance(branches, tuple)
        and len(branches) == len(choices)
        and all(
            isinstance(branch, tuple)
            and len(branch) == 4
            and all(isinstance(value, int) for value in branch)
            and 0 <= branch[0] < limit
            and 0 <= branch[1] < limit
            for branch in branches
        )
    )


def ballot_verify(
    group: SchnorrGroup,
    seed: int,
    w: int,
    ballot: int,
    proof: BallotProof,
    choices: Sequence[int],
    key_base: int = 0,
) -> bool:
    """Verify a disjunctive ballot proof against the allowed choice set.

    Each branch checks ``key_base^s == a1 · w^e`` and ``seed^s ·
    g^{choice·e} == a2 · ballot^e``: the statement ``seed^s == a2 ·
    (ballot / g^choice)^e`` with the choice shift moved to the left, where
    it shares one walk of ``g``'s table with a log-registered seed.
    """
    key_base = key_base or group.g
    choices = list(choices)
    if not _ballot_well_formed(group, ballot, proof, choices):
        return False
    flat: List[int] = [seed, w, ballot]
    for a1, a2, _, _ in proof.branches:
        flat.extend((a1, a2))
    global_challenge = _fs_challenge(group, *flat, domain=b"ballot-or")
    if sum(e for _, _, e, _ in proof.branches) % group.q != global_challenge:
        return False
    for (a1, a2, e, s), choice in zip(proof.branches, choices):
        if group.exp(key_base, s) != group.multi_exp(((a1, 1), (w, e))):
            return False
        if group.multi_exp(((seed, s), (group.g, choice * e))) != group.multi_exp(
            ((a2, 1), (ballot, e))
        ):
            return False
    return True


def ballot_batch_item(
    group: SchnorrGroup,
    seed: int,
    w: int,
    ballot: int,
    proof: BallotProof,
    choices: Sequence[int],
    key_base: int = 0,
) -> BatchItem:
    """A batch item for one disjunctive ballot proof.

    The cheap structural checks (branch shape, challenge sum, Fiat–Shamir
    binding) happen here; only the 2-per-branch exponentiation equations
    enter the batch.  Any structural failure, out-of-range element, or
    membership-screen miss resolves through :func:`ballot_verify` for an
    exact verdict (the per-item verifier does no membership checks of its
    own, so the screen must never overrule it directly).
    """
    check = partial(ballot_verify, group, seed, w, ballot, proof, choices, key_base)
    key_base = key_base or group.g
    choice_list = list(choices)
    if not _ballot_well_formed(group, ballot, proof, choice_list):
        return BatchItem(bases=(), equations=(), check=check)
    elements = (key_base, seed, w, ballot) + tuple(
        element for a1, a2, _, _ in proof.branches for element in (a1, a2)
    )
    if not all(0 < element < group.p for element in elements):
        return BatchItem(bases=(), equations=(), check=check)
    flat: List[int] = [seed, w, ballot]
    for a1, a2, _, _ in proof.branches:
        flat.extend((a1, a2))
    global_challenge = _fs_challenge(group, *flat, domain=b"ballot-or")
    if sum(e for _, _, e, _ in proof.branches) % group.q != global_challenge:
        return BatchItem(bases=(), equations=(), check=check)
    equations: List[Equation] = []
    for (a1, a2, e, s), choice in zip(proof.branches, choice_list):
        equations.append(Equation(lhs=((key_base, s),), rhs=((a1, 1), (w, e))))
        equations.append(
            Equation(lhs=((seed, s), (group.g, choice * e)), rhs=((a2, 1), (ballot, e)))
        )
    # ``g`` has order q by construction, so ``elements`` covers every
    # base the equations touch that needs a membership screen.
    return BatchItem(bases=elements, equations=tuple(equations), check=check)
