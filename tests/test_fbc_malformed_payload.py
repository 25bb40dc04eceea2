"""A corrupted ΠFBC sender cannot crash honest rounds with a malformed payload.

Figure 11 says honest parties ignore invalid messages.  The opened
plaintext of a ΠFBC ciphertext is a padded canonical encoding, and the
decoder rebuilds registered dataclasses from it.  A corrupted sender can
mask the encoding of a registered dataclass whose fields its constructor
rejects (here a ``TLECiphertext`` whose chain length does not match
``q·τdec + 1``).  Opening it must count as an invalid message, not raise
out of the honest parties' round.
"""

from repro.core.stacks import build_fbc_fixture
from repro.crypto.hashing import DIGEST_SIZE, xor_bytes
from repro.functionalities.dummy import DummyBroadcastParty
from repro.protocols.fbc_protocol import DIFFICULTY
from repro.tle.astrolabous import ast_encrypt
from repro.uc.adversary import Adversary
from repro.uc.encoding import encode
from repro.uc.environment import Environment
from repro.uc.session import Session


class CorruptOnRegistration(Adversary):
    def __init__(self, mule: str) -> None:
        super().__init__()
        self.mule = mule

    def on_party_registered(self, party):
        if party.pid == self.mule:
            self.corrupt(self.mule)


def _crafted_plaintext(msg_len: int) -> bytes:
    """Padded encoding of ``TLECiphertext(1, 2, b"x", (b"a",))``.

    The wire form is valid; only the constructor rejects the fields.
    """
    name = b"TLECiphertext"
    raw = b"D" + len(name).to_bytes(2, "big") + name + encode((1, 2, b"x", (b"a",)))
    return len(raw).to_bytes(4, "big") + raw + b"\x00" * (msg_len - 4 - len(raw))


def _time_lock_with_one_batch(session, fixture, pid, rho):
    """AST.Enc of ``rho`` using a single batch of the coalition's budget."""
    q = fixture.wrapper.q
    randomness = [session.random_bytes(DIGEST_SIZE) for _ in range(DIFFICULTY * q)]
    responses = dict(zip(randomness, fixture.wrapper.evaluate(pid, randomness)))
    return ast_encrypt(
        rho,
        difficulty=DIFFICULTY,
        rate=q,
        hash_fn=lambda x: responses[x],
        rng=session.rng,
        randomness=randomness,
    )


def test_malformed_dataclass_payload_is_ignored_by_honest_parties():
    session = Session(seed=7)
    fixture = build_fbc_fixture(session, q=2)
    adversary = CorruptOnRegistration(mule="P2")
    session.adversary = adversary
    adversary.attach(session)
    parties = {}
    for i in range(3):
        party = DummyBroadcastParty(session, f"P{i}", fixture.fbc)
        fixture.fbc.attach(party)
        parties[f"P{i}"] = party
    env = Environment(session)
    assert session.is_corrupted("P2")

    rho = session.random_bytes(DIGEST_SIZE)
    ciphertext = _time_lock_with_one_batch(session, fixture, "P2", rho)
    eta = fixture.oracle.query(rho, querier="P2")
    mask = xor_bytes(_crafted_plaintext(fixture.fbc.msg_len), eta)
    fixture.ubc.adv_broadcast("P2", (ciphertext, mask))

    env.run_round([("P0", lambda p: p.broadcast(b"honest"))])
    env.run_rounds(2)  # round 2 opens both puzzles

    for pid in ("P0", "P1"):
        assert parties[pid].outputs == [("Broadcast", b"honest")]
