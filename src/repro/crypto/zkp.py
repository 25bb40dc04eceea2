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


def _ballot_statement(
    group: SchnorrGroup, seed: int, w: int, ballot: int, vote: int
) -> Tuple[int, int]:
    """Statement for branch ``vote``: log_g(w) = log_seed(ballot / g^vote)."""
    shifted = group.mul(ballot, group.power_of_g(-vote))
    return w, shifted


def _ballot_statement_holds(
    group: SchnorrGroup,
    seed: int,
    w: int,
    ballot: int,
    secret: int,
    vote: int,
    key_base: int,
) -> bool:
    """``w = key_base^secret`` and ``ballot = seed^secret · g^vote``, in the subgroup.

    When this holds, every simulated branch's commitments have a closed
    form in the witness (see :func:`ballot_prove`).  Both bases must be
    subgroup members: :meth:`~SchnorrGroup.exp` reduces exponents mod
    ``q``, which commutes with the closed form only for elements of
    order ``q``.
    """
    return (
        group.is_member(key_base)
        and group.is_member(seed)
        and group.exp(key_base, secret) == w
        and group.mul(group.exp(seed, secret), group.power_of_g(vote)) == ballot
    )


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

    The prover holds the witness, so when the statement is true each
    simulated branch's commitments are computed straight from it (two
    exponentiations, no inversions); a false statement takes the
    general simulation.  Both paths draw the same randomness and return
    the same proof.
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
    holds = _ballot_statement_holds(group, seed, w, ballot, secret, vote, key_base)
    for index, choice in enumerate(choices):
        if index == real_index:
            commitments[index] = (real_a1, group.exp(seed, k))
            continue
        challenges[index] = group.random_scalar(rng)
        responses[index] = group.random_scalar(rng)
        if holds:
            # a1 = key_base^s / w^e and a2 = seed^s / (ballot / g^choice)^e
            # fold, with w = key_base^x and ballot = seed^x · g^vote, to
            # one exponent per base.
            folded = (responses[index] - challenges[index] * secret) % group.q
            a1 = group.exp(key_base, folded)
            a2 = group.mul(
                group.exp(seed, folded),
                group.power_of_g(-(vote - choice) * challenges[index]),
            )
        else:
            public1, public2 = _ballot_statement(group, seed, w, ballot, choice)
            a1 = group.mul(
                group.exp(key_base, responses[index]),
                group.inv(group.exp(public1, challenges[index])),
            )
            a2 = group.mul(
                group.exp(seed, responses[index]),
                group.inv(group.exp(public2, challenges[index])),
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


def _ballot_well_formed(ballot: int, proof: BallotProof, choices: Sequence[int]) -> bool:
    """Structural screen: an int ballot and one ``(a1, a2, e, s)`` tuple
    of ints per choice.

    A corrupted voter controls the ballot and every field of the proof it
    signs, so the shape is checked before any branch is unpacked; a
    malformed cast is a rejected ballot, never an exception in an honest
    tally.
    """
    branches = proof.branches
    return (
        isinstance(ballot, int)
        and isinstance(branches, tuple)
        and len(branches) == len(choices)
        and all(
            isinstance(branch, tuple)
            and len(branch) == 4
            and all(isinstance(value, int) for value in branch)
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
    """Verify a disjunctive ballot proof against the allowed choice set."""
    key_base = key_base or group.g
    choices = list(choices)
    if not _ballot_well_formed(ballot, proof, choices):
        return False
    flat: List[int] = [seed, w, ballot]
    for a1, a2, _, _ in proof.branches:
        flat.extend((a1, a2))
    global_challenge = _fs_challenge(group, *flat, domain=b"ballot-or")
    if sum(e for _, _, e, _ in proof.branches) % group.q != global_challenge:
        return False
    for (a1, a2, e, s), choice in zip(proof.branches, choices):
        public1, public2 = _ballot_statement(group, seed, w, ballot, choice)
        if group.exp(key_base, s) != group.multi_exp(((a1, 1), (public1, e))):
            return False
        if group.exp(seed, s) != group.multi_exp(((a2, 1), (public2, e))):
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
    if not _ballot_well_formed(ballot, proof, choice_list):
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
        public1, public2 = _ballot_statement(group, seed, w, ballot, choice)
        equations.append(Equation(lhs=((key_base, s),), rhs=((a1, 1), (public1, e))))
        equations.append(Equation(lhs=((seed, s),), rhs=((a2, 1), (public2, e))))
    # Membership of the derived statements follows from the screened
    # inputs (the subgroup is closed under mul/inv), so ``elements``
    # covers every base the equations touch.
    return BatchItem(bases=elements, equations=tuple(equations), check=check)
