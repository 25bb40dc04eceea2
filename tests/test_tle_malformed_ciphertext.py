"""ΠTLE answers ⊥ to any ciphertext not of its own wire shape, as FTLE does.

ΠTLE's ``enc`` produces ``(TLECiphertext, bytes, bytes)``.  FTLE (Figure
7) answers ⊥ to a ciphertext it has no record of, whatever its shape,
so a ``Dec`` of ``()`` or ``(None, None, None)`` must not raise in the
real world either: one such request would tell the two worlds apart.
ΠSBC's release step passes every received ciphertext to ``Dec``, so a
corrupted sender can hand honest parties any value at all.
"""

import pytest

from repro.core import build_sbc_stack, build_tle_stack, build_voting_stack
from repro.functionalities.tle import BOTTOM, MORE_TIME
from repro.tle.astrolabous import TLECiphertext

MALFORMED = [(), ("x", b"", b""), (None, None, None)]
IDS = ["empty", "str-c1", "nones"]
LOOK_ALIKE_IDS = ["none-fields", "str-chain", "list-chain"]


def _look_alikes():
    """Wire-length triples whose fields only pass the constructor's checks."""
    chain = tuple(bytes(32) for _ in range(9))
    return [
        (TLECiphertext(2, 4, b"body", chain), None, None),
        (TLECiphertext(2, 4, b"body", ("z" * 32,) * 9), b"", b""),
        (TLECiphertext(2, 4, b"body", list(chain)), b"", b""),
    ]


@pytest.mark.parametrize("tau, expected", [(3, BOTTOM), (9, MORE_TIME)])
@pytest.mark.parametrize("ciphertext", MALFORMED, ids=IDS)
def test_real_and_ideal_dec_agree_on_malformed_ciphertexts(ciphertext, tau, expected):
    answers = []
    for mode in ("hybrid", "ideal"):
        stack = build_tle_stack(mode=mode, seed=4)
        stack.run_rounds(3)
        answers.append(stack.dec("P0", ciphertext, tau))
    assert answers == [expected, expected]


@pytest.mark.parametrize("ciphertext", MALFORMED + _look_alikes(), ids=IDS + LOOK_ALIKE_IDS)
def test_repeated_dec_of_a_refused_ciphertext_stays_bottom(ciphertext):
    """FTLE records the adversary's refusal; every later ``Dec`` of that
    ciphertext, by any party and for any past τ, is ⊥ as in ΠTLE."""
    answers = []
    for mode in ("hybrid", "ideal"):
        stack = build_tle_stack(mode=mode, seed=4)
        stack.run_rounds(3)
        answers.append(
            [stack.dec(pid, ciphertext, tau) for pid, tau in (("P0", 2), ("P0", 3), ("P1", 2), ("P1", 1))]
        )
    assert answers == [[BOTTOM] * 4] * 2


@pytest.mark.parametrize("ciphertext", _look_alikes(), ids=LOOK_ALIKE_IDS)
def test_dec_answers_bottom_to_look_alike_ciphertexts(ciphertext):
    stack = build_tle_stack(mode="hybrid", seed=4)
    stack.run_rounds(3)
    assert stack.dec("P0", ciphertext, 2) == BOTTOM


@pytest.mark.parametrize("ciphertext", MALFORMED + _look_alikes(), ids=IDS + LOOK_ALIKE_IDS)
def test_malformed_fair_broadcast_payload_is_ignored(ciphertext):
    """A corrupted sender's ill-shaped ciphertext never becomes a puzzle."""
    stack = build_tle_stack(mode="hybrid", seed=8)
    stack.session.corrupt("P2")
    stack.fbc.adv_broadcast("P2", (ciphertext, 6))
    stack.enc("P0", b"legit", 6)
    stack.run_rounds(6)
    (message, honest, tau), = stack.parties["P0"].retrieve()
    assert stack.dec("P1", honest, tau) == b"legit"
    assert stack.dec("P1", ciphertext, tau) == BOTTOM


def test_composed_sbc_delivers_honest_messages_past_malformed_ciphertexts():
    stack = build_sbc_stack(n=4, mode="composed", seed=11)
    stack.session.corrupt("P3")
    stack.parties["P0"].broadcast(b"alpha")
    stack.parties["P1"].broadcast(b"beta")
    stack.run_rounds(1)
    tau_rel = stack.sbc._state["P0"].tau_rel
    assert tau_rel is not None
    for index, ciphertext in enumerate(MALFORMED + _look_alikes()):
        # Distinct masks: a repeated one is dropped as a replay.
        mask = bytes([index + 1]) * stack.sbc.msg_len
        stack.sbc.ubc.adv_broadcast("P3", (ciphertext, tau_rel, mask))
    stack.run_until_delivery()
    delivered = stack.delivered()
    for pid in ("P0", "P1", "P2"):
        assert delivered[pid] == [b"alpha", b"beta"]


def test_composed_election_tallies_honest_ballots_past_malformed_ciphertexts():
    stack = build_voting_stack(voters=3, mode="composed", seed=5)
    stack.session.corrupt("V2")
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    for pid in ("V0", "V1"):
        stack.parties[pid].vote("yes")
    stack.run_rounds(1)
    sbc = stack.service
    tau_rel = sbc._state["V0"].tau_rel
    assert tau_rel is not None
    for index, ciphertext in enumerate(MALFORMED):
        mask = bytes([index + 1]) * sbc.msg_len
        sbc.ubc.adv_broadcast("V2", (ciphertext, tau_rel, mask))
    stack.run_until_result()
    # Both honest ballots were accepted; only the silent V2 is missing.
    for pid in ("V0", "V1"):
        assert stack.parties[pid].tally_failure == "missing ballots: ['V2']"
