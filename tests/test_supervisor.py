"""Fault-tolerant sweep runtime: supervisor, chaos harness, journal, resume.

The robustness contract (PR 9), end to end:

* every worker failure mode — SIGKILL, raised exception, hang — ends in
  a retry, a pool respawn, a bisection or a quarantine entry, never a
  stalled or crashed sweep;
* retried tasks replay the same seed, so a chaos-disturbed sweep stays
  **digest-equal** to the undisturbed run (recovery is
  ``--verify``-checkable);
* a repeatedly-failing chunk is bisected down to the poison task, which
  is quarantined with a ``task.quarantined`` event — an honest partial
  report instead of a crash;
* the :class:`~repro.runtime.supervisor.SweepJournal` records completed
  chunks crash-safely, and ``resume`` restores them without re-running
  journaled work, replaying the journaled online plan verbatim.
"""

import json
import os
import pathlib
import warnings

import pytest

from repro.crypto.groups import TEST_GROUP
from repro.runtime import (
    CHAOS_FOREVER,
    ChaosFault,
    ChaosInjected,
    ChaosPlan,
    MaterialStore,
    SessionPool,
    SweepConfig,
    SweepJournal,
    auto_chunksize,
    reports_match,
    run_sbc_trial,
    run_voting_trial,
)
from repro.runtime.supervisor import (
    backoff_s,
    deadline_s,
    plan_from_record,
    plan_to_record,
    run_chunk,
    trial_result_from_record,
    trial_result_to_record,
)

PARAMS = dict(n=3, mode="hybrid", phi=4, delta=2, senders=1)
#: Fast-failing supervision so chaos tests converge in seconds, not minutes.
FAST_RETRY = 2
FAST_DEADLINE = 2.0

#: Directory (via env, so forked workers see it) where the marker runner
#: below records which seeds actually executed.
MARKER_ENV = "REPRO_TEST_SUPERVISOR_MARKS"


def marked_sbc_trial(seed, **kwargs):
    """``run_sbc_trial`` that leaves a per-seed marker file on execution.

    Module-level (picklable) so resume tests can prove journaled seeds
    were *not* re-executed, not just that the report looks right.
    """
    mark_dir = os.environ.get(MARKER_ENV)
    if mark_dir:
        pathlib.Path(mark_dir, f"seed-{seed}").touch()
    return run_sbc_trial(seed, **kwargs)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An isolated material store that forked workers inherit via env."""
    monkeypatch.setenv("REPRO_MATERIAL_DIR", str(tmp_path))
    return MaterialStore(tmp_path)


# ---------------------------------------------------------------------------
# The supervision schedule and chaos-plan parsing


def test_retry_policy_backoff_progression_and_cap():
    # Backoff before retry k: 0.05 s doubling per attempt, capped at 2 s.
    backoff = {1: 0.05, 2: 0.1, 3: 0.2, 6: 1.6, 7: 2.0, 20: 2.0}
    for attempt, delay in backoff.items():
        assert backoff_s(attempt) == pytest.approx(delay), attempt


def test_deadline_floor_factor_cap_and_escalation():
    # (estimate, tasks, attempt, cap) -> deadline in seconds.
    deadlines = {
        # The 60 s floor rules small chunks; 32 x est x tasks big ones.
        (0.01, 4, 0, None): 60.0,
        (1.0, 4, 0, None): 128.0,
        # No completed chunk yet: a 1 s per-task estimate stands in.
        (None, 1, 0, None): 60.0,
        (None, 4, 0, None): 128.0,
        # Each retry doubles the wait, so a slow chunk isn't killed twice.
        (1.0, 4, 2, None): 512.0,
        # The cap bounds floor and estimate alike, before escalation.
        (1.0, 4, 0, 2.0): 2.0,
        (0.01, 4, 0, 5.0): 5.0,
        (1.0, 4, 1, 2.0): 4.0,
        (0.01, 4, 0, 90.0): 60.0,
    }
    for args, deadline in deadlines.items():
        assert deadline_s(*args) == pytest.approx(deadline), args


def test_chaos_plan_parses_spec_grammar():
    plan = ChaosPlan.parse("kill@3,exc@7:2,hang@1:*")
    by_task = {fault.task: fault for fault in plan.faults}
    assert by_task[3].kind == "kill" and by_task[3].repeat == 1
    assert by_task[7].kind == "exc" and by_task[7].repeat == 2
    assert by_task[1].kind == "hang" and by_task[1].repeat == CHAOS_FOREVER
    assert plan.fault_for(3) is by_task[3]
    assert plan.fault_for(99) is None


@pytest.mark.parametrize("spec", ["", "boom@1", "kill@x", "kill", "kill@1:0"])
def test_chaos_plan_rejects_malformed_specs(spec):
    with pytest.raises(ValueError):
        ChaosPlan.parse(spec)


def test_chaos_fault_validates():
    with pytest.raises(ValueError):
        ChaosFault(task=1, kind="segfault")
    with pytest.raises(ValueError):
        ChaosFault(task=1, kind="hang", repeat=0)


def test_run_chunk_inline_clean_and_injected_exception():
    assert run_chunk(lambda t: t * 2, [1, 2, 3]) == [2, 4, 6]
    with pytest.raises(ChaosInjected):
        run_chunk(lambda t: t, [1, 2], faults={2: "exc"})


# ---------------------------------------------------------------------------
# Record round trips


def test_trial_result_record_round_trip():
    result = run_sbc_trial(7, trace="full", **PARAMS)
    record = trial_result_to_record(result)
    json.dumps(record)  # journal-safe by construction
    assert trial_result_from_record(record) == result


def test_online_plan_record_round_trip(store):
    from repro.runtime.material import OnlinePlan

    store.build([TEST_GROUP], nonces=64, feldman=16)
    plan = OnlinePlan.for_tasks(range(3))
    restored = plan_from_record(json.loads(json.dumps(plan_to_record(plan))))
    assert restored == plan


# ---------------------------------------------------------------------------
# SweepJournal


def test_journal_round_trip_and_quarantine_omission(tmp_path):
    journal = SweepJournal(tmp_path / "sweep.journal")
    results = [run_sbc_trial(seed, trace="full", **PARAMS) for seed in (0, 1)]
    journal.begin({"tasks": [0, 1, 2]}, plan_record=None)
    # A quarantined (None) result is omitted, so its task re-runs on resume.
    journal.append_chunk([0, 1, 2], [results[0], results[1], None])
    header, completed = SweepJournal(journal.path).load()
    assert header["schema"] == SweepJournal.SCHEMA
    assert header["config"] == {"tasks": [0, 1, 2]}
    assert completed == {0: results[0], 1: results[1]}


def test_journal_append_requires_header(tmp_path):
    journal = SweepJournal(tmp_path / "sweep.journal")
    with pytest.raises(RuntimeError, match="no header"):
        journal.append_chunk([0], [run_sbc_trial(0, **PARAMS)])


def test_journal_load_tolerates_torn_tail(tmp_path):
    journal = SweepJournal(tmp_path / "sweep.journal")
    journal.begin({"tasks": [0, 1]})
    journal.append_chunk([0], [run_sbc_trial(0, trace="full", **PARAMS)])
    journal.append_chunk([1], [run_sbc_trial(1, trace="full", **PARAMS)])
    lines = journal.path.read_text().splitlines()
    # A torn final line (crash mid-copy): valid prefix survives, tail is
    # discarded with a warning — those chunks just re-run.
    journal.path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
    with pytest.warns(RuntimeWarning, match="corrupt"):
        _, completed = SweepJournal(journal.path).load()
    assert list(completed) == [0]


def test_journal_load_rejects_missing_or_corrupt_header(tmp_path):
    with pytest.raises(FileNotFoundError):
        SweepJournal(tmp_path / "absent.journal").load()
    bad = tmp_path / "bad.journal"
    bad.write_text('{"kind": "not-a-header"}\n')
    with pytest.raises(ValueError, match="cannot resume"):
        SweepJournal(bad).load()


# ---------------------------------------------------------------------------
# Supervised executor configuration


def test_supervision_kwargs_require_process_executor():
    with pytest.raises(ValueError, match="process"):
        SweepConfig(executor="inline", chaos="kill@1")
    with pytest.raises(ValueError, match="process"):
        SweepConfig(executor="inline", retry_attempts=FAST_RETRY)


def test_resume_requires_a_journal():
    with pytest.raises(ValueError, match="journal"):
        SweepConfig(executor="process", resume=True)


def test_inline_report_has_no_supervision_block():
    report = SessionPool(config=SweepConfig(executor="inline"), **PARAMS).run(range(2))
    assert report.supervision is None
    assert "retries" not in report.summary()


# ---------------------------------------------------------------------------
# Chaos recovery (the --verify-checkable acceptance contract)


def test_sigkilled_worker_mid_sweep_stays_digest_equal():
    """ISSUE 9 acceptance: SIGKILL a worker mid-run; the supervisor
    respawns the pool, replays the lost chunk with the same seed, and
    the report is digest-equal to the undisturbed run."""
    undisturbed = SessionPool(
        config=SweepConfig(executor="process", workers=2, chunksize=2, trace="full"),
        **PARAMS,
    ).run(range(6))
    chaotic = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, chunksize=2, trace="full", chaos="kill@2",
            retry_attempts=FAST_RETRY, deadline_cap_s=FAST_DEADLINE,
        ),
        **PARAMS,
    ).run(range(6))
    assert reports_match(undisturbed, chaotic)
    assert chaotic.supervision["respawns"] >= 1
    assert chaotic.summary()["respawns"] >= 1
    assert any(
        event["kind"] == "pool.respawn"
        for event in chaotic.supervision["events"]
    )


def test_injected_exception_retries_clean_and_digest_equal():
    undisturbed = SessionPool(
        config=SweepConfig(executor="process", workers=2, chunksize=2, trace="full"),
        **PARAMS,
    ).run(range(4))
    chaotic = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, chunksize=2, trace="full", chaos="exc@1",
            retry_attempts=FAST_RETRY,
        ),
        **PARAMS,
    ).run(range(4))
    assert reports_match(undisturbed, chaotic)
    assert chaotic.supervision["retries"] >= 1
    assert chaotic.supervision["respawns"] == 0  # pool stayed healthy


def test_hung_worker_trips_deadline_and_recovers():
    chaotic = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, chunksize=2, trace="full",
            chaos="hang@0", retry_attempts=FAST_RETRY, deadline_cap_s=FAST_DEADLINE,
        ),
        **PARAMS,
    ).run(range(4))
    reference = SessionPool(
        config=SweepConfig(executor="process", workers=2, chunksize=2, trace="full"),
        **PARAMS,
    ).run(range(4))
    assert reports_match(reference, chaotic)
    assert chaotic.supervision["respawns"] >= 1


def test_chaos_sweep_verifies_against_inline_reference():
    verdict = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, chunksize=2, trace="full", chaos="kill@3",
            retry_attempts=FAST_RETRY, deadline_cap_s=FAST_DEADLINE,
        ),
        **PARAMS,
    ).verify(range(6))
    assert verdict.matched


def test_persistent_fault_bisects_to_poison_task_and_quarantines():
    """A task that fails on *every* dispatch can't be retried away: the
    chunk is bisected down to it and the sweep completes without it —
    the honest partial report."""
    chaos = ChaosPlan(faults=(ChaosFault(task=2, kind="exc", repeat=CHAOS_FOREVER),))
    report = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, chunksize=4, trace="full", chaos=chaos,
            retry_attempts=FAST_RETRY,
        ),
        **PARAMS,
    ).run(range(4))
    # Seed 2 is gone from the results; everything else completed.
    assert [result.seed for result in report.results] == [0, 1, 3]
    assert report.summary()["quarantined"] == 1
    assert report.supervision["quarantined_tasks"] == [2]
    events = [event["kind"] for event in report.supervision["events"]]
    assert "chunk.bisect" in events
    assert "task.quarantined" in events
    # The survivors are still digest-equal to their inline runs.
    inline = {
        seed: run_sbc_trial(seed, trace="full", **PARAMS) for seed in (0, 1, 3)
    }
    for result in report.results:
        assert result.digest == inline[result.seed].digest


def test_verify_names_the_quarantine_without_running_the_reference(monkeypatch):
    # Nothing survived, so there is nothing to compare: verify() raises
    # the one-line quarantine reason before replaying anything inline.
    def no_reference(self, report):
        raise AssertionError("the inline reference ran")

    monkeypatch.setattr(SessionPool, "_inline_reference", no_reference)
    pool = SessionPool(
        config=SweepConfig(
            executor="process", workers=2, trace="full", chaos="exc@0:*,exc@1:*",
            retry_attempts=FAST_RETRY,
        ),
        **PARAMS,
    )
    with pytest.raises(ValueError) as error:
        pool.verify(range(2))
    assert str(error.value) == (
        "all 2 trials were quarantined; first, task 0: "
        "worker raised ChaosInjected: injected failure at task 0"
    )


# ---------------------------------------------------------------------------
# Journal + resume (crash the coordinator, pick up where it left off)


def test_resume_skips_journaled_chunks_without_reexecution(tmp_path, monkeypatch):
    """ISSUE 9 acceptance: kill the coordinator between journal writes;
    --resume completes the sweep, and the marker files prove the
    journaled seeds were never re-executed."""
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setenv(MARKER_ENV, str(marks))
    journal_path = tmp_path / "sweep.journal"
    config = SweepConfig(
        executor="process", workers=2, chunksize=2, trace="full",
        journal=journal_path,
    )
    kwargs = dict(runner=marked_sbc_trial, **PARAMS)
    full = SessionPool(config=config, **kwargs).run(range(6))
    assert sorted(marks.iterdir(), key=lambda p: p.name) == [
        marks / f"seed-{seed}" for seed in range(6)
    ]
    # Simulate the coordinator dying after the first chunk's append: the
    # journal is truncated to header + first chunk (atomic rewrites mean
    # a real crash leaves exactly such a prefix).
    lines = journal_path.read_text().splitlines()
    journal_path.write_text("\n".join(lines[:2]) + "\n")
    for mark in marks.iterdir():
        mark.unlink()
    resumed = SessionPool(config=config.replace(resume=True), **kwargs).run(range(6))
    executed = sorted(int(p.name.split("-")[1]) for p in marks.iterdir())
    assert executed == [2, 3, 4, 5]  # chunk (0, 1) came from the journal
    assert resumed.resumed == 2
    assert resumed.summary()["resumed"] == 2
    assert reports_match(full, resumed)


def test_resume_plans_chunks_over_the_unjournaled_tasks(tmp_path):
    """A resume dispatches only the tasks its journal lacks, so its auto
    chunks are sized for those, not for the whole task list: 8 tasks
    left on 2 workers must not ride in one 8-task chunk."""
    journal_path = tmp_path / "sweep.journal"
    config = SweepConfig(
        executor="process", workers=2, chunksize=8, journal=journal_path,
    )
    full = SessionPool(config=config, **PARAMS).run(range(64))
    # Header plus 7 of the 8 uniform chunks: 56 tasks journaled, 8 not.
    lines = journal_path.read_text().splitlines()
    assert len(lines) == 9
    journal_path.write_text("\n".join(lines[:8]) + "\n")
    resumed = SessionPool(
        config=config.replace(chunksize=None, resume=True), **PARAMS,
    ).run(range(64))
    assert resumed.resumed == 56
    assert resumed.chunksize == auto_chunksize(8, 2)
    assert [r.seed for r in resumed.results] == list(range(64))
    assert [r.outputs for r in resumed.results] == [r.outputs for r in full.results]


def test_resume_refuses_a_mismatched_journal(tmp_path):
    journal_path = tmp_path / "sweep.journal"
    SessionPool(
        config=SweepConfig(
            executor="process", workers=2, chunksize=2, trace="full",
            journal=journal_path,
        ),
        **PARAMS,
    ).run(range(4))
    other = dict(PARAMS, n=4)
    with pytest.raises(ValueError, match="different sweep configuration"):
        SessionPool(
            config=SweepConfig(
                executor="process", workers=2, chunksize=2, trace="full",
                journal=journal_path, resume=True,
            ),
            **other,
        ).run(range(4))


def test_online_resume_replays_the_journaled_plan(store, tmp_path, monkeypatch):
    """Resume replays the journaled OnlinePlan verbatim (it never plans
    again), and the ledger's spend sums grow only by the freshly
    executed trials."""
    from repro.runtime.material import OnlinePlan

    store.build([TEST_GROUP], nonces=256, feldman=64)
    journal_path = tmp_path / "online.journal"
    config = SweepConfig(
        executor="process", workers=2, chunksize=2, material="disk",
        online=True, trace="full", journal=journal_path,
    )
    kwargs = dict(runner=run_voting_trial, voters=3)
    first = SessionPool(config=config, **kwargs).run(range(4))
    plan = first.online_plan
    ledger_after_first = store.ledger(plan.fingerprint)
    lines = journal_path.read_text().splitlines()
    journal_path.write_text("\n".join(lines[:2]) + "\n")

    def refuse(cls, *args, **kwargs):
        raise AssertionError("resume planned again instead of replaying")

    monkeypatch.setattr(OnlinePlan, "for_tasks", classmethod(refuse))
    resumed = SessionPool(config=config.replace(resume=True), **kwargs).run(range(4))
    assert reports_match(first, resumed)
    assert resumed.online_plan == plan
    assert resumed.resumed == 2
    ledger_after_resume = store.ledger(plan.fingerprint)
    # Sums grew only by the two freshly-executed trials' consumption.
    fresh_spend = sum(
        result.online["nonces_spent"]
        for result in resumed.results
        if result.seed in (2, 3)
    )
    assert fresh_spend > 0
    assert (
        ledger_after_resume.nonces_spent
        == ledger_after_first.nonces_spent + fresh_spend
    )


def test_journal_append_failure_degrades_with_warning(tmp_path):
    """A journal that stops being writable mid-sweep must not kill the
    sweep: the append warns and the run completes (resume just re-runs
    more chunks)."""

    class ExplodingJournal(SweepJournal):
        def append_chunk(self, tasks, results):
            raise OSError("disk full")

    journal = ExplodingJournal(tmp_path / "sweep.journal")
    journal.begin({"tasks": [0, 1]})
    from repro.runtime.supervisor import Supervisor

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with Supervisor(workers=2, on_chunk=journal.append_chunk) as supervisor:
            results = supervisor.map(_sbc, [0, 1], (1, 1))
    assert len(results) == 2
    assert any("journal append failed" in str(w.message) for w in caught)


def _sbc(seed):
    """Module-level (picklable) trace-full trial for direct Supervisor use."""
    return run_sbc_trial(seed, trace="full", **PARAMS)
