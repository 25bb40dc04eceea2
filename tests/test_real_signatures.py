"""Dolev–Strong over real Schnorr signatures (Fcert realized)."""

import pytest

from repro.functionalities.cert_adapter import real_cert_suite
from repro.protocols.dolev_strong import BOTTOM, make_dolev_strong_instance
from repro.uc.environment import Environment
from repro.uc.errors import CorruptionError
from repro.uc.session import Session


def test_signer_cert_roundtrip():
    session = Session(seed=1)
    certs = real_cert_suite(session, ["P0", "P1"])
    sig = certs["P0"].sign("P0", b"message")
    assert certs["P0"].verify(b"message", sig)
    assert not certs["P0"].verify(b"other", sig)
    assert not certs["P1"].verify(b"message", sig)  # wrong signer's key
    assert not certs["P0"].verify(b"message", b"short")


def test_signer_cert_rejects_impostor():
    session = Session(seed=1)
    certs = real_cert_suite(session, ["P0"])
    with pytest.raises(CorruptionError):
        certs["P0"].sign("P1", b"m")


def test_dolev_strong_over_schnorr_signatures():
    session = Session(seed=2)
    pids = ["P0", "P1", "P2", "P3"]
    certs = real_cert_suite(session, pids)
    parties = make_dolev_strong_instance(session, pids, "P0", t=2, certs=certs)
    env = Environment(session)
    for party in parties.values():
        party.arm(0)
    parties["P0"].broadcast(b"computationally signed")
    env.run_rounds(4)
    for party in parties.values():
        assert party.outputs[-1][1] == b"computationally signed"
    # Real signature operations actually happened:
    assert session.metrics.get("sig.sign") >= 4
    assert session.metrics.get("sig.verify") > 0


def test_dolev_strong_over_schnorr_rejects_forged_chain():
    session = Session(seed=3)
    pids = ["P0", "P1", "P2"]
    certs = real_cert_suite(session, pids)
    parties = make_dolev_strong_instance(session, pids, "P0", t=1, certs=certs)
    run = parties["P0"].run
    session.corrupt("P2")
    for party in parties.values():
        party.arm(0)
    # Without P0's key, P2 cannot fabricate a chain that verifies:
    run.network.adv_send("P2", "P1", (run.tag, b"forged", (("P0", b"\x00" * 128),)))
    env = Environment(session)
    env.run_rounds(3)
    assert parties["P1"].outputs[-1][1] == BOTTOM
