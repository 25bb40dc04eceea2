"""Adaptive corruption during an SBC session: the protocol-level facts.

The strong model lets the adversary corrupt senders mid-period.  What
must survive: messages already committed to the channel deliver
unchanged; the session terminates at Φ+Δ regardless of who stops
participating; corrupted senders gain no early information.
"""

import pytest

from repro.core import build_sbc_stack
from repro.uc.adversary import Adversary


class CorruptAtRound(Adversary):
    """Corrupt a fixed party at the start of a given round."""

    def __init__(self, victim: str, at_round: int) -> None:
        super().__init__()
        self.victim = victim
        self.at_round = at_round

    def on_round_advanced(self, new_time: int) -> None:
        if new_time == self.at_round and self.victim not in self.corrupted_parties:
            self.corrupt(self.victim)


@pytest.mark.parametrize("mode", ("hybrid", "composed"))
def test_sender_corrupted_after_commit_message_still_delivers(mode):
    """Once the (c, τ, y) triple is on the UBC channel the message is
    everyone's: corrupting its sender afterwards changes nothing.

    The commit lands on UBC at round ``tle.delay`` (when the matured
    ciphertext is retrieved), so the corruption is scheduled right after.
    """
    commit_round = {"hybrid": 1, "composed": 3}[mode]  # = tle.delay
    adversary = CorruptAtRound(victim="P0", at_round=commit_round + 1)
    stack = build_sbc_stack(n=4, mode=mode, seed=51, adversary=adversary)
    stack.parties["P0"].broadcast(b"committed-before-corruption")
    stack.parties["P1"].broadcast(b"from-an-honest-peer")
    stack.run_rounds(stack.phi + stack.delta + 1)
    for pid in ("P1", "P2", "P3"):
        batches = [o[1] for o in stack.parties[pid].outputs if o[0] == "Broadcast"]
        assert batches, f"{pid} must terminate"
        assert b"committed-before-corruption" in batches[-1]
        assert b"from-an-honest-peer" in batches[-1]


@pytest.mark.parametrize("mode", ("hybrid", "composed"))
def test_liveness_with_mid_period_crash(mode):
    """A party corrupted (and silenced) mid-period cannot stall the rest."""
    adversary = CorruptAtRound(victim="P2", at_round=2)
    stack = build_sbc_stack(n=4, mode=mode, seed=52, adversary=adversary)
    stack.parties["P0"].broadcast(b"m")
    stack.run_rounds(stack.phi + stack.delta + 1)
    for pid in ("P0", "P1", "P3"):
        assert stack.parties[pid].outputs, "honest parties must terminate"


def test_majority_corruption_mid_session():
    """Dishonest majority formed adaptively: the survivors still finish."""

    class CorruptMany(Adversary):
        def on_round_advanced(self, new_time):
            if new_time == 2:
                for pid in ("P1", "P2", "P3"):
                    if pid not in self.corrupted_parties:
                        self.corrupt(pid)

    stack = build_sbc_stack(n=5, mode="hybrid", seed=53, adversary=CorruptMany())
    stack.parties["P0"].broadcast(b"lone-honest-message")
    stack.run_rounds(stack.phi + stack.delta + 1)
    for pid in ("P0", "P4"):
        batches = [o[1] for o in stack.parties[pid].outputs if o[0] == "Broadcast"]
        assert batches and b"lone-honest-message" in batches[-1]


def test_corrupted_sender_state_exposed_but_no_early_plaintexts():
    """Corruption exposes the victim's own state — not other senders'."""

    class InspectOnCorrupt(Adversary):
        def __init__(self):
            super().__init__()
            self.exposed_pending = None

        def on_round_advanced(self, new_time):
            if new_time == 2 and "P1" not in self.corrupted_parties:
                self.corrupt("P1")

        def on_corrupted(self, party):
            # The adversary reads the victim's SBC-layer state.
            state = party.sbc._state[party.pid]
            self.exposed_pending = list(state.pending)

    adversary = InspectOnCorrupt()
    stack = build_sbc_stack(n=3, mode="hybrid", seed=54, adversary=adversary)
    stack.parties["P0"].broadcast(b"p0-secret")
    stack.parties["P1"].broadcast(b"p1-own-message")
    stack.run_rounds(stack.phi + stack.delta + 1)
    # The adversary learned P1's own pending message (its state is its
    # state)...
    assert adversary.exposed_pending is not None
    exposed = [m for _rho, m in adversary.exposed_pending]
    assert exposed in ([b"p1-own-message"], [])
    # ...but nothing in its whole view reveals P0's plaintext early:
    # (outputs exist only at the release round, checked by other tests;
    #  here we scan the leak stream)
    for _fid, detail in adversary.observed:
        assert b"p0-secret" not in repr(detail).encode()
