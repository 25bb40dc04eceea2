"""Dispatch resolved when parties are wired, not on every activation.

``Party.advance_clock`` calls ``end_of_round`` and ``Functionality.deliver``
calls ``on_deliver`` only when a party replaces the base hook (checked
against the live base method); otherwise the delivery goes straight
through the party's route table.  ΠSBC decides at construction whether
its TLE has a tick clause, and asks the TLE to ``Retrieve`` only while
the party holds a ρ it has not masked yet.  None of this may change a
trace, an output or a counter.

The last tests pin a divergence of ΠSBC from ``FSBC``: the adversary
cannot run the sender code of a corrupted ΠSBC party.  They are strict
xfails, so the day it is fixed they fail and must be turned into plain
tests.
"""

import pytest

from repro.core.stacks import build_sbc_stack, build_voting_stack
from repro.uc.adversary import Adversary
from repro.uc.entity import Functionality, Party
from repro.uc.session import Session

# ---------------------------------------------------------------------------
# Base no-op hooks are never called on the hot path
# ---------------------------------------------------------------------------


def _light_hybrid_trial(seed):
    stack = build_sbc_stack(n=4, mode="hybrid", seed=seed, trace="light")
    stack.parties["P0"].broadcast(b"m0")
    stack.parties["P1"].broadcast(b"m1")
    stack.run_until_delivery()
    return stack.delivered(), stack.session.metrics.snapshot(), stack.session.clock.time


@pytest.mark.parametrize("seed", [0, 7])
def test_light_hybrid_trial_calls_no_base_hook(seed, monkeypatch):
    reference = _light_hybrid_trial(seed)
    calls = []
    monkeypatch.setattr(Party, "end_of_round", lambda self: calls.append("end_of_round"))
    monkeypatch.setattr(
        Party, "on_deliver", lambda self, message, source: calls.append("on_deliver")
    )
    monkeypatch.setattr(
        Functionality, "on_party_tick", lambda self, party: calls.append("on_party_tick")
    )
    assert _light_hybrid_trial(seed) == reference
    assert calls == []


class Source(Functionality):
    """Delivers on demand."""

    def send(self, party, message):
        self.deliver(party, message)


class OwnRoundWork(Party):
    def __init__(self, session, pid):
        super().__init__(session, pid)
        self.rounds = []
        self.inbox = []

    def end_of_round(self):
        self.rounds.append(self.session.clock.time)

    def on_deliver(self, message, source):
        self.inbox.append((source.fid, message))


def test_subclass_hooks_are_called():
    session = Session(seed=0)
    party = OwnRoundWork(session, "P0")
    source = Source(session, "F")
    party.advance_clock()
    source.send(party, "hello")
    assert party.rounds == [0]
    assert party.inbox == [("F", "hello")]


def test_instance_assigned_hooks_are_called():
    session = Session(seed=0)
    party = Party(session, "P0")
    other = Party(session, "P1")
    source = Source(session, "F")
    rounds, inbox = [], []
    party.end_of_round = lambda: rounds.append(session.clock.time)
    party.on_deliver = lambda message, source: inbox.append(message)
    party.advance_clock()
    other.advance_clock()
    party.advance_clock()
    source.send(party, "hello")
    assert rounds == [0, 1]
    assert inbox == ["hello"]


def test_base_on_deliver_dispatches_through_the_route():
    session = Session(seed=0)
    party = Party(session, "P0")
    source = Source(session, "F")
    routed = []
    party.route["F"] = lambda message, src: routed.append((src.fid, message))
    source.send(party, "hello")
    Source(session, "G").send(party, "dropped")  # no route: silently dropped
    assert routed == [("F", "hello")]
    assert session.metrics.get("messages.total") == 2


class CorruptOnWarning(Adversary):
    """Corrupts ``target`` when a functionality warns it is about to deliver."""

    def __init__(self, target):
        super().__init__()
        self.target = target

    def on_leak(self, source, detail):
        super().on_leak(source, detail)
        if detail == ("warn", self.target):
            self.corrupt(self.target)


class WarnThenDeliver(Functionality):
    def send(self, party, message):
        self.leak(("warn", party.pid))
        self.deliver(party, message)


def test_delivery_to_party_corrupted_mid_round_goes_to_the_adversary():
    adversary = CorruptOnWarning("P1")
    session = Session(seed=0, adversary=adversary)
    parties = [Party(session, f"P{index}") for index in range(2)]
    relay = WarnThenDeliver(session, "R")
    routed = []
    for party in parties:
        party.route["R"] = lambda message, source, pid=party.pid: routed.append(pid)
    relay.send(parties[0], "a")
    relay.send(parties[1], "b")
    assert session.is_corrupted("P1")
    assert routed == ["P0"]
    assert adversary.observed == [
        ("R", ("warn", "P0")), ("R", ("warn", "P1")), ("R", ("Deliver", "P1", "b")),
    ]
    deliveries = [(e.source, e.detail) for e in session.log.filter(kind="deliver")]
    assert deliveries == [("R", ("P0", "a")), ("R", ("P1", "b"))]


# ---------------------------------------------------------------------------
# ΠSBC over ideal FTLE: Retrieve only while a ρ is unmasked
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_retrieve_runs_only_while_a_sender_holds_an_unmasked_rho(seed):
    stack = build_sbc_stack(n=4, mode="hybrid", seed=seed)
    sbc, tle, clock = stack.sbc, stack.tle, stack.session.clock
    assert not sbc._tle_ticks
    original = tle.retrieve
    calls = []
    sampled = {}

    def retrieve(party):
        state = sbc._state[party.pid]
        assert len(state.masked) < len(state.pending)
        calls.append((clock.time, party.pid))
        result = original(party)
        for record in tle._records:
            if record.ciphertext is not None:
                sampled.setdefault(id(record), (record, clock.time))
        return result

    tle.retrieve = retrieve
    stack.parties["P0"].broadcast(b"m0")
    stack.parties["P1"].broadcast(b"m1")
    stack.run_rounds(1)
    stack.parties["P2"].broadcast(b"m2")
    stack.run_until_delivery()
    assert stack.delivered()["P3"] == [b"m0", b"m1", b"m2"]
    # Every record got its ciphertext in the first round it was ``delay``
    # rounds old.
    assert len(sampled) == len(tle._records) == 3
    for record, round_sampled in sampled.values():
        assert round_sampled == record.recorded_at + tle.delay
    # Each sender asked until its one ρ was masked, and no one else asked.
    senders = {pid for _time, pid in calls}
    assert senders == {"P0", "P1", "P2"}
    for pid in senders:
        (record,) = [r for r, _ in sampled.values() if r.owner == pid]
        rounds = [time for time, caller in calls if caller == pid]
        assert rounds == list(range(rounds[0], record.recorded_at + tle.delay + 1))
        assert len(sbc._state[pid].masked) == len(sbc._state[pid].pending) == 1


# ---------------------------------------------------------------------------
# Divergence: the adversary cannot run a corrupted ΠSBC sender's code
# ---------------------------------------------------------------------------


def _corrupted_sender_views(mode):
    stack = build_sbc_stack(n=4, mode=mode, seed=1)
    stack.parties["P1"].broadcast(b"m1")
    stack.run_rounds(1)
    stack.session.corrupt("P0")
    stack.sbc.adv_broadcast("P0", b"evil")
    stack.run_until_delivery()
    return {pid: view for pid, view in stack.delivered().items() if pid != "P0"}


def test_ideal_sbc_delivers_a_corrupted_senders_message():
    views = _corrupted_sender_views("ideal")
    assert views == {pid: [b"evil", b"m1"] for pid in ("P1", "P2", "P3")}


@pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="ΠSBC.adv_broadcast calls the TLE's honest Enc for a corrupted sender",
)
@pytest.mark.parametrize("mode", ["hybrid", "composed"])
def test_sbc_adv_broadcast_runs_a_corrupted_senders_code(mode):
    assert _corrupted_sender_views(mode) == _corrupted_sender_views("ideal")


def _election_with_corrupted_voter(mode, cast_in_period):
    stack = build_voting_stack(voters=3, mode=mode, seed=3)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    if cast_in_period:
        stack.parties["V0"].vote("yes")
        stack.parties["V1"].vote("yes")
        stack.run_rounds(1)
        stack.session.corrupt("V2")
        stack.parties["V2"].vote("no")
    else:
        stack.session.corrupt("V2")
        stack.parties["V2"].vote("no")
        stack.parties["V0"].vote("yes")
        stack.parties["V1"].vote("yes")
    stack.run_until_result()
    return {pid: stack.results()[pid] for pid in ("V0", "V1")}


@pytest.mark.parametrize("cast_in_period", [False, True])
def test_hybrid_election_tallies_a_corrupted_voters_ballot(cast_in_period):
    tallies = _election_with_corrupted_voter("hybrid", cast_in_period)
    assert tallies == {"V0": {"yes": 2, "no": 1}, "V1": {"yes": 2, "no": 1}}


@pytest.mark.xfail(
    strict=True,
    reason="composed: a ballot cast before V2 woke up is never sent ('missing ballots')",
)
def test_composed_election_tallies_a_ballot_cast_before_the_period():
    assert _election_with_corrupted_voter("composed", cast_in_period=False) == (
        _election_with_corrupted_voter("hybrid", cast_in_period=False)
    )


@pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="composed: ΠSBC calls ΠTLE's honest Enc for the corrupted voter",
)
def test_composed_election_tallies_a_ballot_cast_in_the_period():
    assert _election_with_corrupted_voter("composed", cast_in_period=True) == (
        _election_with_corrupted_voter("hybrid", cast_in_period=True)
    )
