"""The UC kernel's trace-neutral shortcuts.

``Gclock`` notifies only functionalities that replace the base
``on_round_advanced`` no-op, a light session never calls its log, and
corruption is read straight from the session's set, so a party corrupted
mid-round is skipped by the driver, ignored by the clock and refused to
the environment exactly as before these shortcuts.
"""

import pytest

from repro.core.stacks import build_sbc_stack, build_voting_stack
from repro.uc.adversary import Adversary
from repro.uc.entity import Functionality, Party
from repro.uc.environment import Environment
from repro.uc.errors import CorruptionError
from repro.uc.session import Session
from repro.uc.trace import EventLog, NullEventLog


class RoundWatcher(Functionality):
    """Overrides the round hook: records every advance it is told of."""

    def __init__(self, session, fid):
        super().__init__(session, fid)
        self.seen = []

    def on_round_advanced(self, new_time):
        self.seen.append(new_time)


def _world(n=3):
    session = Session(seed=0)
    for index in range(n):
        Party(session, f"P{index}")
    return session, Environment(session)


# ---------------------------------------------------------------------------
# Round-advance fan-out
# ---------------------------------------------------------------------------


def test_functionality_registered_after_round_one_gets_later_advances():
    session, env = _world()
    early = RoundWatcher(session, "early")
    env.run_rounds(1)
    late = RoundWatcher(session, "late")
    env.run_rounds(3)
    assert early.seen == [1, 2, 3, 4]
    assert late.seen == [2, 3, 4]


def test_instance_assigned_hook_before_first_advance_is_called():
    session, env = _world()
    plain = Functionality(session, "F")
    seen = []
    plain.on_round_advanced = seen.append
    env.run_rounds(3)
    assert seen == [1, 2, 3]
    assert session.round_listeners == [plain]


def test_base_hook_functionalities_are_never_called(monkeypatch):
    calls = []
    monkeypatch.setattr(
        Functionality, "on_round_advanced", lambda self, new_time: calls.append(self.fid)
    )
    session, env = _world()
    Functionality(session, "F0")
    watcher = RoundWatcher(session, "W")
    Functionality(session, "F1")
    env.run_rounds(2)
    assert calls == []
    assert watcher.seen == [1, 2]
    assert session.round_listeners == [watcher]


def test_listeners_follow_registration_order_and_close_drops_them():
    session, env = _world()
    first = RoundWatcher(session, "A")
    Functionality(session, "plain")
    second = RoundWatcher(session, "B")
    env.run_rounds(1)
    assert session.round_listeners == [first, second]
    session.close()
    assert session._round_listeners is None


# ---------------------------------------------------------------------------
# Light trace: no record calls, the same outputs and counters
# ---------------------------------------------------------------------------


def _sbc_run(mode, trace, seed):
    stack = build_sbc_stack(n=4, mode=mode, seed=seed, trace=trace)
    stack.parties["P0"].broadcast(b"m0")
    stack.parties["P1"].broadcast(b"m1")
    stack.run_until_delivery()
    return stack.delivered(), stack.session.metrics.snapshot(), stack.session.clock.time


def _election_run(trace, seed):
    stack = build_voting_stack(voters=3, mode="hybrid", seed=seed, trace=trace)
    for authority in stack.authorities.values():
        authority.deal()
    stack.env.run_rounds(1)
    for index, choice in enumerate(("yes", "no", "yes")):
        stack.parties[f"V{index}"].vote(choice)
    stack.run_until_result()
    return stack.results(), stack.session.metrics.snapshot(), stack.session.clock.time


RUNS = {
    "sbc-hybrid": lambda trace, seed: _sbc_run("hybrid", trace, seed),
    "sbc-composed": lambda trace, seed: _sbc_run("composed", trace, seed),
    "voting-hybrid": _election_run,
}


@pytest.mark.parametrize("run", list(RUNS.values()), ids=list(RUNS))
def test_light_session_never_records_and_matches_full_trace(run, monkeypatch):
    calls = {"light": 0, "full": 0}
    full_record = EventLog.record

    def count_full(self, *args, **kwargs):
        calls["full"] += 1
        return full_record(self, *args, **kwargs)

    def count_light(self, *args, **kwargs):
        calls["light"] += 1

    monkeypatch.setattr(EventLog, "record", count_full)
    monkeypatch.setattr(NullEventLog, "record", count_light)
    for seed in (1, 2):
        light = run("light", seed)
        assert calls["light"] == 0
        full = run("full", seed)
        assert calls["full"] > 0
        # Outputs, every Metrics counter and the final round agree.
        assert light == full


# ---------------------------------------------------------------------------
# Mid-round corruption
# ---------------------------------------------------------------------------


class CorruptOnActivation(Adversary):
    """Corrupts ``target`` as the driver activates it in round ``at``."""

    def __init__(self, target, at):
        super().__init__()
        self.target, self.at = target, at
        self.activated = []

    def on_party_activated(self, party):
        now = self.session.clock.time
        self.activated.append((now, party.pid))
        if party.pid == self.target and now == self.at:
            self.corrupt(party.pid)


def test_corruption_from_activation_hook_skips_party_and_its_tick():
    adversary = CorruptOnActivation("P1", at=1)
    session = Session(seed=0, adversary=adversary)
    parties = [Party(session, f"P{index}") for index in range(3)]
    env = Environment(session)
    env.run_rounds(1)
    assert session.clock.time == 1
    # Round 1: P1 is corrupted on activation and never ticks, and the
    # round still advances on the two honest parties' ticks.
    assert env.run_round() == 2
    assert adversary.activated == [
        (0, "P0"), (0, "P1"), (0, "P2"), (1, "P0"), (1, "P1"), (1, "P2"),
    ]
    assert [e.source for e in session.log.filter(kind="tick") if e.time == 1] == ["P0", "P2"]
    # From then on the driver skips P1 before its hook.
    env.run_round()
    assert [pid for time, pid in adversary.activated if time == 2] == ["P0", "P2"]
    # Gclock ignores the corrupted party's tick; Z cannot drive it.
    assert session.clock.tick("P1") is False
    assert "P1" not in session.clock.ticked
    with pytest.raises(CorruptionError):
        parties[1].advance_clock()


class Beacon(Functionality):
    """Leaks on every party tick (the adversary's cue to corrupt)."""

    def on_party_tick(self, party):
        self.leak(("tick", party.pid))


class CorruptOnLeak(Adversary):
    def __init__(self, target, at):
        super().__init__()
        self.target, self.at = target, at

    def on_leak(self, source, detail):
        super().on_leak(source, detail)
        if detail == ("tick", self.target) and self.session.clock.time == self.at:
            self.corrupt(self.target)


def test_corruption_from_leak_hook_mid_tick_is_ignored_by_the_clock():
    session = Session(seed=0, adversary=CorruptOnLeak("P0", at=1))
    beacon = Beacon(session, "FB")
    parties = [Party(session, f"P{index}") for index in range(3)]
    for party in parties:
        party.clock_recipients.append(beacon)
    env = Environment(session)
    env.run_rounds(1)
    # P0 is corrupted inside its own Advance_Clock, after its round work:
    # its tick carries no weight, and P1 and P2 complete the round.
    assert env.run_round() == 2
    assert session.is_corrupted("P0")
    ticks_in_round_1 = [e.source for e in session.log.filter(kind="tick") if e.time == 1]
    assert ticks_in_round_1 == ["P1", "P2"]
    corrupt = session.log.first("corrupt")
    assert (corrupt.time, corrupt.source) == (1, "P0")
    # The driver skips P0 from now on: only P1 and P2 reach the beacon.
    before = len(session.adversary.observed)
    env.run_round()
    assert session.adversary.observed[before:] == [
        ("FB", ("tick", "P1")), ("FB", ("tick", "P2")),
    ]
    with pytest.raises(CorruptionError):
        parties[0].advance_clock()
    # An input action addressed to a corrupted party is skipped too.
    reached = []
    env.run_round(actions=[("P0", reached.append), ("P1", reached.append)])
    assert reached == [parties[1]]
