"""Pure public values are computed once per session and shared by its parties.

In the composed SBC world every honest party unmasks the same fair-
broadcast payloads, opens the same Astrolabous puzzles and decodes the
same bytes; in the self-tally every voter view encodes the same signed
casts.  ``Session.public_values`` keeps each such result once per
session.  Sharing must change no view: outputs, trace digests, metrics
and per-party random-oracle accounting equal those of the unshared path,
and a rejected payload is rejected in every view.
"""

import pytest

from repro.core import build_sbc_stack, build_voting_stack
from repro.crypto.zkp import ballot_prove
from repro.functionalities.certification import Certification
from repro.functionalities.random_oracle import RandomOracle
from repro.protocols import common, voting_protocol
from repro.protocols.common import open_padded, open_puzzle, pad_message
from repro.runtime import trace_digest
from repro.tle.astrolabous import PuzzleError, TLECiphertext
from repro.uc.encoding import encode
from repro.uc.session import Session


class _NoStore(dict):
    """A value store that never remembers: every view computes alone."""

    def __setitem__(self, key, value):
        pass


def _count(monkeypatch, module, *names):
    calls = {name: 0 for name in names}
    for name in names:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def _composed_sbc(seed=3, share=True):
    stack = build_sbc_stack(n=4, mode="composed", seed=seed)
    if not share:
        stack.session.public_values = _NoStore()
    stack.parties["P0"].broadcast(b"alpha")
    stack.parties["P1"].broadcast(b"beta")
    stack.run_until_delivery()
    return stack


def _view(stack):
    """Everything a party or the trace could observe of a run."""
    session = stack.session
    oracles = {
        fid: {x: sorted(by) for x, by in f.queried_by.items()}
        for fid, f in session.functionalities.items()
        if isinstance(f, RandomOracle)
    }
    return (
        stack.delivered(),
        trace_digest(session.log),
        dict(session.metrics.counters),
        oracles,
    )


def test_composed_session_decodes_and_opens_each_payload_once(monkeypatch):
    # 4 parties x 2 senders: per layer (ΠFBC, ΠTLE, ΠSBC) 8 decodes of 2
    # distinct payloads, and 8 openings of 2 distinct puzzles in each of
    # ΠFBC and ΠTLE.  Unshared, that is 24 decodes and 16 openings.
    calls = _count(monkeypatch, common, "decode", "ast_decrypt")
    stack = _composed_sbc()
    assert calls == {"decode": 6, "ast_decrypt": 4}
    assert all(batch == [b"alpha", b"beta"] for batch in stack.delivered().values())
    kinds = sorted(key[0] for key in stack.session.public_values)
    assert kinds == ["ast"] * 4 + ["unpad"] * 6


def test_unshared_path_counts_every_view(monkeypatch):
    calls = _count(monkeypatch, common, "decode", "ast_decrypt")
    _composed_sbc(share=False)
    assert calls == {"decode": 24, "ast_decrypt": 16}


def test_sharing_changes_no_view():
    shared, unshared = _composed_sbc(), _composed_sbc(share=False)
    assert _view(shared) == _view(unshared)
    counters = _view(shared)[2]
    assert {key: value for key, value in counters.items() if key.startswith("ro.by.")}
    # Every party receives the very same decoded objects.
    batches = list(shared.delivered().values())
    assert all(a is b for batch in batches[1:] for a, b in zip(batch, batches[0]))


def test_two_sessions_never_share_entries():
    first, second = _composed_sbc(), _composed_sbc()
    a, b = first.session.public_values, second.session.public_values
    assert a is not b and a.keys() == b.keys()
    assert all(a[key] is not b[key] for key in a if key[0] == "ast")
    assert first.delivered()["P0"][0] is not second.delivered()["P0"][0]
    assert Session().public_values == {}


def test_a_rejected_payload_is_rejected_in_every_view():
    session = Session()
    # A length field past the end, then a well-framed unknown tag.
    for bad in (b"\xff" * 4 + bytes(12), (1).to_bytes(4, "big") + b"?" + bytes(11)):
        for _view_index in range(4):
            with pytest.raises(ValueError):
                open_padded(session, bad)
    puzzle = TLECiphertext(difficulty=1, rate=2, body=b"garbage", chain=(bytes(32),) * 3)
    for _view_index in range(4):
        with pytest.raises(PuzzleError):
            open_puzzle(session, puzzle, [bytes(32)] * 2)
    assert session.public_values == {}


def test_only_exact_bytes_inputs_are_shared():
    session = Session()
    padded = pad_message(b"m", 32)
    assert open_padded(session, bytearray(padded)) == b"m"
    # A list chain and a bytearray witness link cannot be hashed: they
    # are opened unshared, not rejected by the store.
    look_alike = TLECiphertext(difficulty=1, rate=1, body=b"", chain=[bytes(32)] * 2)
    with pytest.raises(PuzzleError):
        open_puzzle(session, look_alike, [bytearray(32)])
    assert session.public_values == {}
    assert open_padded(session, padded) == b"m"
    assert list(session.public_values) == [("unpad", padded)]


# -- ΠSTVS: each signed cast is encoded once per session --------------------


def _election(voters, share=True, seed=91):
    stack = build_voting_stack(voters=voters, mode="hybrid", seed=seed)
    if not share:
        stack.session.public_values = _NoStore()
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    return stack


def test_each_signed_cast_is_encoded_once_per_tally(monkeypatch):
    stack = _election(voters=5)
    for index, voter in enumerate(stack.parties.values()):
        voter.vote(("yes", "no")[index % 2])
    signed = []
    original = voting_protocol.encode

    def counting(value):
        signed.append(value)
        return original(value)

    monkeypatch.setattr(voting_protocol, "encode", counting)
    stack.run_until_result()
    # 5 casts, 5 voter views: 5 encodings, not 25.
    assert len(signed) == 5
    assert {party.result["yes"] for party in stack.parties.values()} == {3}


def _cast_equal_looking_ballots(stack, monkeypatch):
    """Corrupted V2 casts ballot ``1`` and ballot ``True`` with one proof,
    each signed over its own encoding.  Returns every certificate verdict
    the honest views reach, in order, and the two signed encodings."""
    stack.session.corrupt("V2")
    mule = stack.parties["V2"]
    proof = ballot_prove(
        mule.group, mule._seed(), mule.verification_keys["V2"], 1,
        mule.secret_exponent, mule.election.choices[0], mule.election.choices,
        mule.session.rng, key_base=mule.w,
    )
    signed = [encode((ballot, proof, "V2")) for ballot in (1, True)]
    for ballot, message in zip((1, True), signed):
        signature = mule.certs["V2"].sign("V2", message)
        stack.service.adv_broadcast("V2", ("Ballot", "V2", ballot, proof, signature))
    verdicts = []
    original = Certification.verify

    def recording(self, message, signature):
        verdict = original(self, message, signature)
        verdicts.append((message, verdict))
        return verdict

    monkeypatch.setattr(Certification, "verify", recording)
    for pid in ("V0", "V1"):
        stack.parties[pid].vote("yes")
    stack.run_until_result()
    monkeypatch.setattr(Certification, "verify", original)
    return verdicts, signed


def test_equal_but_differently_typed_casts_keep_their_own_encodings(monkeypatch):
    shared = _election(voters=3)
    verdicts, signed = _cast_equal_looking_ballots(shared, monkeypatch)
    unshared = _election(voters=3, share=False)
    assert (verdicts, signed) == _cast_equal_looking_ballots(unshared, monkeypatch)
    # (1, proof, V2) == (True, proof, V2), yet each honest view checks
    # each cast's signature against that cast's own encoding.
    assert signed[0] != signed[1]
    assert [message for message, ok in verdicts if ok and message in signed] == signed * 2
    for stack in (shared, unshared):
        honest = [party for party in stack.parties.values() if not party.corrupted]
        assert {(p.result, p.tally_failure) for p in honest} == {
            (None, "missing ballots: ['V2']")
        }
