"""ΠRBC = Dolev–Strong (Fact 1): validity, agreement, round counts."""

import pytest

from repro.protocols.dolev_strong import (
    BOTTOM,
    make_dolev_strong_instance,
)
from repro.uc.adversary import Adversary
from repro.uc.environment import Environment
from repro.uc.session import Session


def _run(session, parties, sender, message, t, rounds=None):
    env = Environment(session)
    for party in parties.values():
        party.arm(session.clock.time)
    if message is not None:
        parties[sender].broadcast(message)
    env.run_rounds(rounds if rounds is not None else t + 2)
    return env


def _decisions(parties):
    return {
        pid: party.outputs[-1][1] if party.outputs else None
        for pid, party in parties.items()
    }


def test_validity_honest_sender():
    session = Session(seed=1)
    parties = make_dolev_strong_instance(session, ["P0", "P1", "P2", "P3"], "P0", t=2)
    _run(session, parties, "P0", b"value", t=2)
    assert all(d == b"value" for d in _decisions(parties).values())


def test_no_broadcast_outputs_bottom():
    session = Session(seed=1)
    parties = make_dolev_strong_instance(session, ["P0", "P1", "P2"], "P0", t=1)
    _run(session, parties, "P0", None, t=1)
    assert all(d == BOTTOM for d in _decisions(parties).values())


def test_decision_takes_t_plus_one_relay_rounds():
    session = Session(seed=1)
    t = 3
    parties = make_dolev_strong_instance(
        session, [f"P{i}" for i in range(5)], "P0", t=t
    )
    env = Environment(session)
    for party in parties.values():
        party.arm(0)
    parties["P0"].broadcast(b"v")
    env.run_rounds(t)  # not yet: decision happens at relative round t+1
    assert all(not p.decided for p in parties.values())
    env.run_rounds(2)
    assert all(p.decided for p in parties.values())


def test_message_complexity_order_n_squared():
    for n in (3, 5):
        session = Session(seed=1)
        parties = make_dolev_strong_instance(
            session, [f"P{i}" for i in range(n)], "P0", t=1
        )
        _run(session, parties, "P0", b"v", t=1)
        sent = session.metrics.get("messages.p2p")
        # initial send (n) + each party relays once (<= n per relay)
        assert sent <= n * n * 2
        assert sent >= n  # at least the initial fan-out


class EquivocatingSender(Adversary):
    """Corrupted sender sends value A to half the parties, B to the rest."""

    def __init__(self, run, pids):
        super().__init__()
        self.run = run
        self.pids = pids

    def start(self, session):
        run = self.run
        self.corrupt(run.sender)
        half = len(self.pids) // 2
        for value, group in ((b"A", self.pids[:half]), (b"B", self.pids[half:])):
            signature = run.certs[run.sender].sign(run.sender, run.payload(value))
            chain = ((run.sender, signature),)
            for pid in group:
                run.network.adv_send(run.sender, pid, (run.tag, value, chain))


def test_agreement_under_equivocating_sender():
    """A corrupted sender equivocates; honest parties agree (on ⊥)."""
    session = Session(seed=1)
    pids = [f"P{i}" for i in range(4)]
    parties = make_dolev_strong_instance(session, pids, "P0", t=1)
    run = parties["P0"].run
    adv = EquivocatingSender(run, pids[1:])
    adv.attach(session)
    session.adversary = adv
    for party in parties.values():
        party.arm(0)
    adv.start(session)
    Environment(session).run_rounds(4)
    decisions = {
        pid: party.outputs[-1][1]
        for pid, party in parties.items()
        if pid != "P0" and party.outputs
    }
    assert len(decisions) == 3
    assert len(set(decisions.values())) == 1  # agreement
    assert list(decisions.values())[0] == BOTTOM  # both values accepted -> ⊥
    # ⊥ for the right reason: every honest party accepted both values.
    assert {pid: sorted(run.accepted[pid]) for pid in decisions} == {
        pid: [b"A", b"B"] for pid in decisions
    }


def test_forged_chain_rejected():
    """A chain whose signatures do not verify is ignored."""
    session = Session(seed=1)
    pids = ["P0", "P1", "P2"]
    parties = make_dolev_strong_instance(session, pids, "P0", t=1)
    run = parties["P0"].run
    session.corrupt("P2")
    for party in parties.values():
        party.arm(0)
    # P2 injects a value with a bogus sender signature.
    run.network.adv_send("P2", "P1", (run.tag, b"forged", (("P0", b"junk"),)))
    Environment(session).run_rounds(3)
    assert parties["P1"].outputs[-1][1] == BOTTOM  # nothing valid accepted


def test_chain_with_duplicate_signers_rejected():
    session = Session(seed=1)
    pids = ["P0", "P1", "P2"]
    parties = make_dolev_strong_instance(session, pids, "P0", t=1)
    run = parties["P1"].run
    # Build a "valid-looking" chain that reuses the sender twice.
    session.corrupt("P0")
    sig = run.certs["P0"].sign("P0", run.payload(b"v"))
    chain = (("P0", sig), ("P0", sig))
    assert not run.valid_chain(b"v", chain, 2)


def test_wrong_sender_first_rejected():
    session = Session(seed=1)
    pids = ["P0", "P1", "P2"]
    parties = make_dolev_strong_instance(session, pids, "P0", t=1)
    run = parties["P1"].run
    sig = run.certs["P1"].sign("P1", run.payload(b"v"))
    assert not run.valid_chain(b"v", (("P1", sig),), 1)


def test_non_sender_cannot_broadcast():
    session = Session(seed=1)
    parties = make_dolev_strong_instance(session, ["P0", "P1"], "P0", t=0)
    with pytest.raises(ValueError):
        parties["P1"].broadcast(b"x")


# A corrupted party's malformed wire messages, given the run's tag.
_SHAPES = {
    "bytes": lambda tag: b"junk",
    "2-tuple": lambda tag: (tag, b"w"),
    "list-tag": lambda tag: ([0], b"w", ()),
    "int-chain": lambda tag: (tag, b"w", 5),
    "3-link": lambda tag: (tag, b"w", (("P0", b"s", b"x"),)),
    "int-link": lambda tag: (tag, b"w", (1,)),
    "float-value": lambda tag: (tag, 1.5, (("P0", b"s"),)),  # nothing can sign it
}
_PARTY_SHAPES = ("bytes", "2-tuple", "int-chain", "3-link", "int-link", "float-value")
_ADAPTER_SHAPES = ("list-tag", "int-chain", "3-link", "int-link", "float-value")


def _party_world(session, pids):
    parties = make_dolev_strong_instance(session, pids, "P0", t=1)
    for party in parties.values():
        party.arm(0)
    parties["P0"].broadcast(b"v")
    run = parties["P0"].run
    return run.network, run.tag, parties


def _adapter_world(session, pids):
    from repro.functionalities.dummy import DummyBroadcastParty
    from repro.protocols.ds_ubc import DolevStrongUBCAdapter

    ubc = DolevStrongUBCAdapter(session, pids=pids, t=1)
    parties = {pid: DummyBroadcastParty(session, pid, ubc) for pid in pids}
    for party in parties.values():
        ubc.attach(party)
    parties["P0"].broadcast(b"v")
    (run,) = ubc.runs.values()
    return ubc.network, run.tag, parties


@pytest.mark.parametrize(
    "world, shape",
    [(_party_world, shape) for shape in _PARTY_SHAPES]
    + [(_adapter_world, shape) for shape in _ADAPTER_SHAPES],
    ids=[f"party-{shape}" for shape in _PARTY_SHAPES]
    + [f"adapter-{shape}" for shape in _ADAPTER_SHAPES],
)
def test_malformed_payload_is_ignored(world, shape):
    """A corrupted party's malformed message cannot crash an honest round."""
    session = Session(seed=1)
    pids = ["P0", "P1", "P2", "P3"]
    network, tag, parties = world(session, pids)
    session.corrupt("P3")
    honest = pids[:3]
    for pid in honest:
        network.adv_send("P3", pid, _SHAPES[shape](tag))
    Environment(session).run_rounds(4)
    assert {pid: parties[pid].outputs for pid in honest} == {
        pid: [("Broadcast", b"v", "P0")] for pid in honest
    }
