"""Edge cases of the protocol adapters: malformed inputs, replay, misc."""

import pytest

from repro.core import build_sbc_stack, build_tle_stack
from repro.core.stacks import build_fbc_fixture
from repro.functionalities.dummy import DummyBroadcastParty
from repro.functionalities.tle import BOTTOM, INVALID_TIME
from repro.tle.astrolabous import TLECiphertext
from repro.uc.environment import Environment
from repro.uc.session import Session


# -- ΠFBC -----------------------------------------------------------------


def _fbc_world(seed=1, q=4, n=3):
    session = Session(seed=seed)
    fixture = build_fbc_fixture(session, q=q)
    parties = {}
    for i in range(n):
        party = DummyBroadcastParty(session, f"P{i}", fixture.fbc)
        fixture.fbc.attach(party)
        parties[f"P{i}"] = party
    return session, fixture, parties, Environment(session)


def test_fbc_malformed_ubc_payloads_ignored():
    session, fixture, parties, env = _fbc_world()
    session.corrupt("P2")
    for garbage in (
        b"raw-bytes",
        ("not", "a", "pair", "x"),
        (b"nocipher", b"mask"),
        (TLECiphertext(difficulty=1, rate=4, body=b"", chain=tuple(bytes(32) for _ in range(5))), b"short-mask"),
    ):
        fixture.ubc.adv_broadcast("P2", garbage)
    env.run_rounds(3)
    assert parties["P0"].outputs == []  # nothing valid was broadcast


@pytest.mark.parametrize("chain", [("z" * 32,) * 9, [bytes(32)] * 9], ids=["str-links", "list"])
def test_fbc_look_alike_chain_ignored(chain):
    """The constructor admits a digest-length ``str`` link or a ``list``
    chain; honest parties ignore such a ciphertext instead of raising."""
    session, fixture, parties, env = _fbc_world(q=4)
    session.corrupt("P2")
    ct = TLECiphertext(difficulty=2, rate=4, body=b"x", chain=chain)
    fixture.ubc.adv_broadcast("P2", (ct, bytes(fixture.fbc.msg_len)))
    env.run_round([("P0", lambda p: p.broadcast(b"legit"))])
    env.run_rounds(3)
    assert parties["P1"].outputs == [("Broadcast", b"legit")]


def test_fbc_wrong_difficulty_ciphertext_ignored():
    session, fixture, parties, env = _fbc_world()
    session.corrupt("P2")
    ct = TLECiphertext(
        difficulty=1, rate=4, body=b"x", chain=tuple(bytes(32) for _ in range(5))
    )
    fixture.ubc.adv_broadcast("P2", (ct, bytes(fixture.fbc.msg_len)))
    env.run_rounds(3)
    assert parties["P0"].outputs == []


def test_fbc_adversarial_garbage_puzzle_dropped_quietly():
    """A well-formed difficulty-2 puzzle whose body doesn't authenticate."""
    session, fixture, parties, env = _fbc_world(q=4)
    session.corrupt("P2")
    ct = TLECiphertext(
        difficulty=2, rate=4, body=b"garbage-body",
        chain=tuple(bytes([i]) * 32 for i in range(9)),
    )
    fixture.ubc.adv_broadcast("P2", (ct, bytes(fixture.fbc.msg_len)))
    env.run_round([("P0", lambda p: p.broadcast(b"legit"))])
    env.run_rounds(3)
    # the legit message arrives; the garbage one is silently dropped
    assert parties["P0"].outputs == [("Broadcast", b"legit")]


def test_fbc_corrupted_party_can_follow_protocol():
    """adv_broadcast runs the honest sender code for a corrupted party."""
    session, fixture, parties, env = _fbc_world()
    session.corrupt("P2")
    fixture.fbc.adv_broadcast("P2", b"from-corrupted")
    # Corrupted parties don't tick via the environment; the adversary
    # drives the round work itself:
    env.run_rounds(1)
    fixture.fbc.on_party_tick(parties["P2"])
    env.run_rounds(3)
    received = [m for _, m in parties["P0"].outputs]
    assert b"from-corrupted" in received


# -- ΠTLE ------------------------------------------------------------------


def test_tle_dec_none_and_negative():
    stack = build_tle_stack(mode="hybrid", seed=2)
    assert stack.parties["P0"].dec(None, 5) == BOTTOM
    assert stack.parties["P0"].dec(b"x", -1) == BOTTOM


def test_tle_invalid_time_path():
    stack = build_tle_stack(mode="hybrid", seed=3)
    stack.enc("P0", b"m", 8)
    stack.run_rounds(8)
    (_m, c, _t) = stack.parties["P0"].retrieve()[0]
    # ciphertext's tau is 8; asking with tau=5 while Cl >= 8:
    assert stack.parties["P1"].dec(c, 5) == INVALID_TIME


def test_tle_unknown_ciphertext_bottom():
    stack = build_tle_stack(mode="hybrid", seed=4)
    stack.run_rounds(3)
    bogus = (
        TLECiphertext(difficulty=0, rate=4, body=b"", chain=(bytes(32),)),
        b"mask",
        b"check",
    )
    assert stack.parties["P0"].dec(bogus, 1) == BOTTOM


# -- ΠSBC -------------------------------------------------------------------


def test_sbc_wrong_tau_broadcast_ignored():
    stack = build_sbc_stack(n=3, mode="hybrid", seed=5)
    stack.parties["P0"].broadcast(b"legit")  # opens the period
    stack.run_rounds(1)
    stack.session.corrupt("P2")
    # A triple with the wrong release time must be ignored by receivers.
    stack.sbc.ubc.adv_broadcast("P2", (b"cipher", 999, bytes(stack.sbc.msg_len)))
    stack.run_until_delivery()
    for batch in stack.delivered().values():
        if batch is not None:
            assert batch == [b"legit"]


def test_sbc_oversized_adv_message_rejected():
    stack = build_sbc_stack(n=3, mode="hybrid", seed=6)
    stack.session.corrupt("P2")
    from repro.protocols.common import MessageTooLong

    with pytest.raises(MessageTooLong):
        stack.sbc.adv_broadcast("P2", b"x" * 10_000)


def test_sbc_duplicate_output_suppressed():
    """Each party outputs its batch exactly once at τ_rel."""
    stack = build_sbc_stack(n=3, mode="hybrid", seed=7)
    stack.parties["P0"].broadcast(b"m")
    stack.run_rounds(stack.phi + stack.delta + 3)
    for party in stack.parties.values():
        broadcasts = [o for o in party.outputs if o[0] == "Broadcast"]
        assert len(broadcasts) == 1
