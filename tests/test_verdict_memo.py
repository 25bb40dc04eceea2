"""The per-session verdict memo of the ΠSTVS self-tally.

The per-item path memoises ballot-proof verdicts; the batched path also
memoises membership screens and combined RLC equations, so every voter
view after the first reuses the first view's arithmetic.
"""

import random

from repro.core import build_voting_stack
from repro.crypto.batch import BATCH_EVENT_KIND, BatchPolicy, batching, verify_batch
from repro.crypto.groups import TEST_GROUP, SchnorrGroup
from repro.crypto.schnorr import schnorr_batch_item, schnorr_keygen, schnorr_sign
from repro.crypto.zkp import BallotProof, ballot_prove, ballot_verify
from repro.protocols import voting_protocol
from repro.uc.encoding import encode
from repro.uc.session import Session
from repro.runtime import trace_digest


def _setup(voters=3, seed=91):
    stack = build_voting_stack(voters=voters, mode="hybrid", seed=seed)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    return stack


def _signed_ballot(voter, choice="yes", tamper=False):
    """``voter``'s ballot, proof and Fcert signature over what it casts."""
    group = voter.group
    seed = voter._seed()
    exponent = voter.election.exponent_of(choice)
    ballot = group.mul(
        group.exp(seed, voter.secret_exponent), group.power_of_g(exponent)
    )
    proof = ballot_prove(
        group, seed, voter.verification_keys[voter.pid], ballot,
        voter.secret_exponent, exponent, voter.election.choices,
        voter.session.rng, key_base=voter.w,
    )
    if tamper:
        a1, a2, e, s = proof.branches[0]
        proof = BallotProof(branches=((a1, a2, e, (s + 1) % group.q),) + proof.branches[1:])
    signature = voter.certs[voter.pid].sign(voter.pid, encode((ballot, proof, voter.pid)))
    return ("Ballot", voter.pid, ballot, proof, signature)


def test_tampered_proof_rejected_by_every_view_including_memo_hits():
    stack = _setup(voters=4)
    session = stack.session
    session.corrupt("V2")
    cast = _signed_ballot(stack.parties["V2"], tamper=True)
    stack.service.adv_broadcast("V2", cast)
    for pid in ("V0", "V1", "V3"):
        stack.parties[pid].vote("yes")
    stack.run_until_result()
    honest = [p for p in stack.parties.values() if not p.corrupted]
    for party in honest:
        assert party.result is None
        assert party.tally_failure == "missing ballots: ['V2']"
    # The tampered proof was checked once and its False verdict shared.
    rejected = [key for key, verdict in session.proof_verdicts.items() if not verdict]
    assert len(rejected) == 1 and rejected[0][0] == encode(cast[2:4] + ("V2",))
    assert session.metrics.get("proofs.checked") == 4
    assert session.metrics.get("proofs.shared") == 4 * (len(honest) - 1)


def test_views_with_different_keys_get_separate_verdicts():
    stack = _setup()
    session = stack.session
    cast = _signed_ballot(stack.parties["V2"])
    v0, v1 = stack.parties["V0"], stack.parties["V1"]
    seed = v0._seed()
    # V1's view of V2's verification key differs (one extra factor of g).
    v1.verification_keys["V2"] = v1.group.mul(v1.verification_keys["V2"], v1.group.g)
    assert v0._tally_ballots([cast], seed) == {"V2": cast[2]}
    assert v1._tally_ballots([cast], seed) == {}
    assert len(session.proof_verdicts) == 2
    assert session.metrics.get("proofs.checked") == 2
    assert session.metrics.get("proofs.shared") == 0
    expected = [
        ballot_verify(
            view.group, seed, view.verification_keys["V2"], cast[2], cast[3],
            view.election.choices, key_base=view.w,
        )
        for view in (v0, v1)
    ]
    assert expected == [True, False]
    assert sorted(session.proof_verdicts.values()) == [False, True]
    # A second look by either view is a memo hit with the same verdict.
    assert v0._tally_ballots([cast], seed) == {"V2": cast[2]}
    assert v1._tally_ballots([cast], seed) == {}
    assert session.metrics.get("proofs.checked") == 2
    assert session.metrics.get("proofs.shared") == 2


def test_new_session_starts_with_an_empty_memo():
    stack = _setup()
    stack.session.proof_verdicts[b"k"] = True
    fresh = Session()
    assert fresh.proof_verdicts == {}
    assert fresh.proof_verdicts is not stack.session.proof_verdicts
    assert _setup().session.proof_verdicts == {}


def test_clean_run_checks_each_proof_once(monkeypatch):
    calls = _count_calls(monkeypatch, "multi_exp", "is_member")
    verified = []

    def counting_verify(*args, **kwargs):
        verified.append(1)
        return ballot_verify(*args, **kwargs)

    monkeypatch.setattr(voting_protocol, "ballot_verify", counting_verify)
    stack = _setup(voters=5, seed=1)
    for index in range(5):
        stack.parties[f"V{index}"].vote(("yes", "no")[index % 2])
    # Setup makes none either, and casting proves from the witness: no
    # multi-exp, no membership screen.
    assert calls == {"multi_exp": 0, "is_member": 0}
    stack.run_until_result()
    assert all(r == {"yes": 3, "no": 2} for r in stack.results().values())
    metrics = stack.session.metrics
    # Certificates stay per party: 5 views × 5 ballots.
    assert metrics.get("sig.verify") == 25
    assert metrics.get("proofs.checked") == 5
    assert metrics.get("proofs.shared") == 20
    assert len(verified) == 5
    # 5 distinct proofs × 2 branches × 2 equations, 3 multi-exps per
    # branch: the key equation's right side, and both sides of the seed
    # equation (its left side folds the choice shift into one walk).
    assert calls == {"multi_exp": 30, "is_member": 0}


# ---------------------------------------------------------------------------
# The batched tally: one combined-equation evaluation per session
# ---------------------------------------------------------------------------


class _NoMemo(dict):
    """A verdict memo that never remembers: every view computes alone."""

    def __setitem__(self, key, value):
        pass


def _count_calls(monkeypatch, *names):
    calls = {name: 0 for name in names}
    for name in names:
        original = getattr(SchnorrGroup, name)

        def counting(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SchnorrGroup, name, counting)
    return calls


def _capture_reports(monkeypatch):
    reports = []
    original = BatchPolicy.run

    def capturing(self, group, items, memo=None):
        report = original(self, group, items, memo=memo)
        reports.append(report)
        return report

    monkeypatch.setattr(BatchPolicy, "run", capturing)
    return reports


def _batched_cast(memo=True, voters=3, tamper=None):
    """A hybrid election's setup and casting, ready to tally; ``tamper``
    names a voter that is corrupted and casts a proof tampered after
    signing."""
    stack = _setup(voters=voters)
    if not memo:
        stack.session.proof_verdicts = _NoMemo()
    if tamper is not None:
        stack.session.corrupt(tamper)
        cast = _signed_ballot(stack.parties[tamper], tamper=True)
        stack.service.adv_broadcast(tamper, cast)
    for index in range(voters):
        pid = f"V{index}"
        if pid != tamper:
            stack.parties[pid].vote(("yes", "no")[index % 2])
    return stack


def _batched_tally(stack):
    with batching(BatchPolicy()):
        stack.run_until_result()
    return stack


def _batched_election(memo=True, voters=3, tamper=None):
    """A hybrid election tallied under ``BatchPolicy()``."""
    return _batched_tally(_batched_cast(memo, voters, tamper))


def _report_view(report):
    return (report.verdicts, report.culprits, report.evaluations, report.trace_detail())


def test_batched_clean_run_evaluates_each_equation_once(monkeypatch):
    stack = _setup()
    calls = _count_calls(monkeypatch, "multi_exp", "is_member")
    for index in range(3):
        stack.parties[f"V{index}"].vote(("yes", "no")[index % 2])
    # Casting proves from the witness: no multi-exp, no membership screen.
    assert calls == {"multi_exp": 0, "is_member": 0}
    with batching(BatchPolicy()):
        stack.run_until_result()
    assert all(r == {"yes": 2, "no": 1} for r in stack.results().values())
    # The tally evaluates one combined equation (two multi-exps) and
    # screens 20 distinct elements: 2 shared bases, 3 verification keys,
    # 3 ballots, 3 x 4 commitments.
    assert calls == {"multi_exp": 2, "is_member": 20}
    metrics = stack.session.metrics
    assert metrics.get("rlc.evaluated") == 1
    assert metrics.get("rlc.shared") == 2
    assert metrics.get("members.checked") == 20
    assert metrics.get("members.shared") == 40
    # Certificates stay per party; no proof needed an exact check.
    assert metrics.get("sig.verify") == 9
    assert metrics.get("proofs.checked") == 0


def test_batched_trace_detail_matches_unmemoised_run(monkeypatch):
    reports = _capture_reports(monkeypatch)
    memoised = _batched_election()
    shared = [_report_view(report) for report in reports]
    reports.clear()
    alone = _batched_election(memo=False)
    assert shared == [_report_view(report) for report in reports]
    details = [
        [event.detail for event in stack.session.log.filter(kind=BATCH_EVENT_KIND)]
        for stack in (memoised, alone)
    ]
    assert len(details[0]) == 3 and details[0] == details[1]
    assert trace_digest(memoised.session.log) == trace_digest(alone.session.log)


def test_batched_tampered_proof_rejected_in_every_view(monkeypatch):
    reports = _capture_reports(monkeypatch)
    calls = _count_calls(monkeypatch, "multi_exp")
    alone = _batched_cast(memo=False, voters=4, tamper="V2")
    # Setup and casting, the tampered prover's included, make no multi-exp.
    assert calls["multi_exp"] == 0
    _batched_tally(alone)
    baseline = [_report_view(report) for report in reports]
    calls_alone = calls["multi_exp"]
    reports.clear()
    calls["multi_exp"] = 0
    stack = _batched_cast(voters=4, tamper="V2")
    assert calls["multi_exp"] == 0
    _batched_tally(stack)
    honest = [p for p in stack.parties.values() if not p.corrupted]
    for party in honest:
        assert party.result is None
        assert party.tally_failure == "missing ballots: ['V2']"
    # Each view's report equals the unmemoised one: same verdicts,
    # culprits and logical evaluation count, bisection included.
    assert [_report_view(report) for report in reports] == baseline
    assert len(reports) == len(honest)
    for report in reports:
        assert report.culprits == (5,)  # V2's proof item
        assert report.evaluations > 1
    # The bisection ran once per session, not once per view: the first
    # view evaluated every combined equation and checked every leaf, the
    # other views reused its verdicts.
    assert calls_alone == len(honest) * calls["multi_exp"]
    first = reports[0]
    metrics = stack.session.metrics
    assert metrics.get("rlc.evaluated") == first.evaluations
    assert metrics.get("rlc.shared") == first.evaluations * (len(honest) - 1)
    # Bisection leaves go through the per-proof memo: each leaf proof is
    # checked once, then shared.
    leaves = metrics.get("proofs.checked")
    assert leaves >= 1
    assert metrics.get("proofs.shared") == leaves * (len(honest) - 1)
    assert alone.session.metrics.get("proofs.shared") == 0


def test_batched_views_with_different_keys_evaluate_separately(monkeypatch):
    stack = _setup()
    session = stack.session
    casts = [_signed_ballot(stack.parties[f"V{i}"]) for i in range(3)]
    v0, v1 = stack.parties["V0"], stack.parties["V1"]
    seed = v0._seed()
    v1.verification_keys["V2"] = v1.group.mul(v1.verification_keys["V2"], v1.group.g)
    reports = _capture_reports(monkeypatch)
    calls = _count_calls(monkeypatch, "multi_exp")
    policy = BatchPolicy()
    accepted = {f"V{i}": casts[i][2] for i in range(3)}
    assert v0._tally_ballots_batched(casts, seed, policy) == accepted
    assert calls["multi_exp"] == 2
    del accepted["V2"]
    assert v1._tally_ballots_batched(casts, seed, policy) == accepted
    # V1's pairs differ (another key for V2): nothing is shared, and its
    # bisection evaluates on its own.
    assert session.metrics.get("rlc.shared") == 0
    evaluated = reports[0].evaluations + reports[1].evaluations
    assert session.metrics.get("rlc.evaluated") == evaluated
    assert calls["multi_exp"] == 2 * session.metrics.get("rlc.evaluated")
    assert reports[1].culprits == (5,)
    # V1's exact leaf checks ran under its own key for V2.
    rejected = [
        key for key, verdict in session.proof_verdicts.items()
        if isinstance(key[0], bytes) and not verdict
    ]
    assert len(rejected) == 1
    assert rejected[0][:2] == (encode(casts[2][2:4] + ("V2",)), v1.verification_keys["V2"])
    # A second look by V0 reuses its combined equation.
    assert v0._tally_ballots_batched(casts, seed, policy) == {
        f"V{i}": casts[i][2] for i in range(3)
    }
    assert session.metrics.get("rlc.shared") == 1


def _non_member_items(rng):
    """Two valid signature items and one keyed by an order-2 element."""
    items = []
    for index in range(3):
        keypair = schnorr_keygen(rng)
        message = f"m{index}".encode()
        public = keypair.public if index < 2 else TEST_GROUP.p - 1
        items.append(
            schnorr_batch_item(TEST_GROUP, public, message, schnorr_sign(keypair, message, rng))
        )
    return items


def test_non_member_verdict_is_reused_never_flipped(monkeypatch):
    items = _non_member_items(random.Random(5))
    memo = {}
    first = verify_batch(TEST_GROUP, items, memo=memo)
    assert first.verdicts == (True, True, False)
    assert first.fallback == 1 and first.batched == 2
    key = (TEST_GROUP, TEST_GROUP.p - 1)
    assert memo[key] is False
    calls = _count_calls(monkeypatch, "is_member", "multi_exp")
    again = verify_batch(TEST_GROUP, items, memo=memo)
    # The screen computes nothing; only the fallback's exact check runs.
    assert calls["multi_exp"] == 0
    assert again.members_checked == 0
    assert memo[key] is False
    assert again.verdicts == first.verdicts
    assert again.trace_detail() == first.trace_detail()
    assert (again.members_checked, again.members_shared) == (0, first.members_checked)
    assert again.shared_evaluations == again.evaluations == 1


def test_verify_batch_without_memo_is_unchanged(monkeypatch):
    items = _non_member_items(random.Random(6))
    calls = _count_calls(monkeypatch, "is_member", "multi_exp")
    plain = verify_batch(TEST_GROUP, items)
    explicit = verify_batch(TEST_GROUP, items, memo=None)
    assert plain == explicit
    # No memo: every call screens and evaluates on its own.
    assert calls["multi_exp"] == 4
    assert plain.members_checked == 5  # 2 keys, 2 nonces, the non-member
    assert (plain.members_shared, plain.shared_evaluations) == (0, 0)
    memoised = verify_batch(TEST_GROUP, items, memo={})
    assert memoised.trace_detail() == plain.trace_detail()
    assert memoised.verdicts == plain.verdicts
