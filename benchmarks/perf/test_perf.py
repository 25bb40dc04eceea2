"""Self-tests of the benchmark: span recorder, correctness gate, comparison rule.

Run with ``python -m pytest benchmarks/perf`` (the repository's own
``testpaths`` keeps them out of the tier-1 suite).
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import subprocess
import sys
import time
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve().parent
for entry in (ROOT / "src", HERE):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _sleeper(recorder, layer, seconds):
    wrap = spans.Wrap("test", "sleep", layer, f"{layer}.calls")
    return spans._wrapper(recorder, wrap, lambda: time.sleep(seconds))


# -- span recorder ------------------------------------------------------------


def test_instrumented_restores_every_binding_including_aliases():
    import repro.crypto
    import repro.crypto.hashing
    import repro.protocols.common
    import repro.runtime.aio
    import repro.runtime.pool
    import repro.uc.encoding
    from repro.crypto.groups import SchnorrGroup

    aliases = {
        "encoding": (repro.uc.encoding, "encode"),
        "protocol alias": (repro.protocols.common, "encode"),
        "hashing": (repro.crypto.hashing, "hash_bytes"),
        "package re-export": (repro.crypto, "hash_bytes"),
        "digest": (repro.runtime.pool, "trace_digest"),
        "digest alias": (repro.runtime.aio, "trace_digest"),
    }
    before = {key: getattr(module, name) for key, (module, name) in aliases.items()}
    method = SchnorrGroup.__dict__["exp"]
    late = types.ModuleType("perf_late_import")
    with pytest.raises(RuntimeError, match="boom"):
        with spans.instrumented(spans.Recorder()):
            for key, (module, name) in aliases.items():
                assert getattr(module, name) is not before[key], key
            assert SchnorrGroup.__dict__["exp"] is not method
            # A module that name-imports while instrumented binds a wrapper.
            late.encode = repro.uc.encoding.encode
            sys.modules[late.__name__] = late
            raise RuntimeError("boom")
    try:
        for key, (module, name) in aliases.items():
            assert getattr(module, name) is before[key], key
        assert SchnorrGroup.__dict__["exp"] is method
        assert late.encode is before["encoding"]
        assert spans._ACTIVE is None
    finally:
        del sys.modules[late.__name__]


def test_nested_spans_give_self_time():
    recorder = spans.Recorder()
    inner = _sleeper(recorder, "inner", 0.03)
    inner()  # outside every span: not traced
    begin = time.perf_counter()
    with recorder.span("session", "outer", session=7):
        time.sleep(0.02)
        inner()
        time.sleep(0.01)
    elapsed = time.perf_counter() - begin
    assert recorder.self_s["outer"] == pytest.approx(0.03, abs=0.008)
    assert recorder.self_s["inner"] == pytest.approx(0.03, abs=0.008)
    assert recorder.counts == {"inner.calls": 1}
    assert sum(recorder.self_s.values()) == pytest.approx(elapsed, abs=1e-4)
    (span,) = recorder.spans
    assert span[1] == "session" and span[4] is None and span[5] == 7


def test_interleaved_tasks_are_charged_to_their_own_spans():
    recorder = spans.Recorder()
    work = _sleeper(recorder, "work", 0.01)

    async def session(index, steps, idle_s):
        for _ in range(steps):
            work()
            await asyncio.sleep(0)
        await asyncio.sleep(idle_s)

    async def main():
        asyncio.get_running_loop().set_task_factory(recorder.task_factory)
        begin = time.perf_counter()
        await asyncio.gather(
            recorder.aspan("session", "s0", session(0, 1, 0.05), session=0),
            recorder.aspan("session", "s1", session(1, 3, 0.0), session=1),
        )
        return time.perf_counter() - begin

    elapsed = asyncio.run(main())
    assert recorder.self_s["work"] == pytest.approx(0.04, abs=0.01)
    # Neither session is charged with the other's work or with the idle wait.
    assert recorder.self_s["s0"] < 0.005 and recorder.self_s["s1"] < 0.005
    # The idle wait falls to the loop; together the layers cover the run.
    assert sum(recorder.self_s.values()) == pytest.approx(elapsed, abs=1e-3)
    assert sorted(span[5] for span in recorder.spans) == [0, 1]


@pytest.fixture
def material_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MATERIAL_DIR", str(tmp_path / "material"))
    return tmp_path


def test_traced_sbc_composed_partitions_session_time(tmp_path):
    workload = workloads.SbcComposed()
    workload.setup(0, 1.0, 2)
    untraced = workload.run(0, 0, 0.3, None)
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        # Starting at index 40, the traced sessions include seed 50, whose
        # digest is replayed outside any session span.
        traced = workload.run(0, 40, 0.6, recorder)
    assert traced.attempted >= 20 and not untraced.failures and not traced.failures
    metrics = workloads.layer_metrics(untraced, traced, recorder.snapshot())
    assert metrics["bench.partition_error_frac"] < 0.05
    # Every session of this workload does the same work, and the replay is
    # not traced, so per-session counts are exact.
    assert metrics["uc.metrics.rounds_per_session"] == 9
    assert metrics["uc.metrics.messages_per_session"] == 36
    assert metrics["uc.metrics.ro_queries_per_session"] == 300
    assert metrics["tle.puzzle.steps_per_session"] == 208
    recorder.write_spans(tmp_path / "spans.jsonl")
    records = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    sessions = [r for r in records if r["name"] == "session"]
    assert len(sessions) == traced.attempted
    assert {r["name"] for r in records} == {"session", "round"}
    assert all(r["parent"] is not None for r in records if r["name"] == "round")


def test_traced_run_never_feeds_end_to_end(material_dir, monkeypatch):
    per_layer = {metric["name"] for metric in BENCH["per_layer"]}
    end_to_end = {metric["name"] for metric in BENCH["end_to_end"]}
    traced = workloads.run_workload("sbc-composed", 0, 0.5, True, time.monotonic())
    assert set(traced["metrics"]) == per_layer

    def refuse(recorder):
        raise AssertionError("an untraced run installed the wrappers")

    monkeypatch.setattr(workloads.spans, "instrumented", refuse)
    untraced = workloads.run_workload("sbc-composed", 0, 0.5, False, time.monotonic())
    # setup_s is added by run.py from the median of several set-ups.
    assert set(untraced["metrics"]) | {"setup_s"} == end_to_end


# -- correctness gate -----------------------------------------------------------

CORRUPTING_SITECUSTOMIZE = '''
import dataclasses
try:
    import repro.runtime
    import repro.runtime.pool
except ImportError:  # the run.py parent process never imports repro
    pass
else:
    _original = repro.runtime.pool.run_sbc_trial

    def _corrupt(seed, **kwargs):
        result = _original(seed, **kwargs)
        if seed == 3:
            result = dataclasses.replace(result, outputs="[b'forged']")
        return result

    repro.runtime.run_sbc_trial = _corrupt
    repro.runtime.pool.run_sbc_trial = _corrupt
'''


def test_corrupted_output_fails_the_run(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(CORRUPTING_SITECUSTOMIZE)
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sbc-composed", "--seconds", "1",
         "--out", str(tmp_path / "out")],
        cwd=ROOT, env={"PYTHONPATH": str(tmp_path), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=170,
    )
    assert result.returncode == 1, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1 and line["attempted"] > 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run([sys.executable, "benchmarks/perf/run.py", "--workload", "sbc-composed"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout.strip() == ""


# -- comparison rule ------------------------------------------------------------


def _records(workload, values, trace=0, **layers):
    rows = [{"workload": workload, "seed": seed, "trace": trace, "failed": 0, "metrics": dict(v)}
            for seed, v in enumerate(values)]
    for name, series in layers.items():
        for row, value in zip(rows, series):
            row["metrics"][name] = value
    return rows


def _side(rate, p50, n=10, jitter=0.01):
    return _records("voting-hybrid", [
        {"sessions_per_s": rate * (1 + jitter * (i % 3 - 1)),
         "session_p50_ms": p50 * (1 + jitter * ((i + 1) % 3 - 1))}
        for i in range(n)
    ])


def _verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_claim_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread():
    parent, change = _side(20.0, 50.0), _side(23.0, 50.0)
    rows = compare.compare(parent, change, BENCH, claims=["voting-hybrid:sessions_per_s"])
    assert _verdicts(rows) == {"sessions_per_s": "claim met", "session_p50_ms": "ok"}
    # Two ties out of ten pairs leave 8/10 wins: not met.
    tied = [dict(r, metrics=dict(r["metrics"])) for r in change]
    for row, base in zip(tied[:2], parent[:2]):
        row["metrics"]["sessions_per_s"] = base["metrics"]["sessions_per_s"]
    rows = compare.compare(parent, tied, BENCH, claims=["voting-hybrid:sessions_per_s"])
    assert _verdicts(rows)["sessions_per_s"] == "claim not met"
    # Fewer than ten pairs can never support a claim.
    rows = compare.compare(parent[:9], change[:9], BENCH, claims=["voting-hybrid:sessions_per_s"])
    assert _verdicts(rows)["sessions_per_s"] == "claim not met"


def test_regression_names_the_layer_it_came_from():
    parent = _side(20.0, 50.0) + _records(
        "voting-hybrid", [{}], trace=1,
        **{"crypto.exp.ms_per_session": [30.0], "uc.encoding.ms_per_session": [1.0]})
    change = _side(20.0, 60.0) + _records(
        "voting-hybrid", [{}], trace=1,
        **{"crypto.exp.ms_per_session": [36.5], "uc.encoding.ms_per_session": [1.2]})
    rows = {row["metric"]: row for row in compare.compare(parent, change, BENCH)}
    assert rows["session_p50_ms"]["verdict"] == "regressed"
    assert rows["session_p50_ms"]["layer"] == "crypto.exp.ms_per_session"
    assert rows["session_p50_ms"]["layer_growth_ms"] == pytest.approx(6.5)
    assert rows["sessions_per_s"]["verdict"] == "ok"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    parent, change = _side(20.0, 50.0, jitter=0.2), _side(19.0, 50.0, jitter=0.2)
    assert _verdicts(compare.compare(parent, change, BENCH))["sessions_per_s"] == "unresolved"
    change = _side(40.0, 50.0, jitter=0.2)
    assert _verdicts(compare.compare(parent, change, BENCH))["sessions_per_s"] == "better"


CLAIM = ["voting-hybrid:sessions_per_s"]


def test_runs_are_paired_by_seed_not_by_order():
    parent, change = _side(20.0, 50.0), _side(23.0, 50.0)
    rows = compare.compare(parent, list(reversed(change)), BENCH, claims=CLAIM)
    assert rows == compare.compare(parent, change, BENCH, claims=CLAIM)


@pytest.mark.parametrize("side", ["parent", "change"])
def test_failed_sessions_on_either_side_fail_the_workload(side):
    parent, change = _side(20.0, 50.0), _side(23.0, 50.0)
    (parent if side == "parent" else change)[4]["failed"] = 1
    rows = compare.compare(parent, change, BENCH, claims=CLAIM)
    assert _verdicts(rows) == {"sessions_per_s": "failed", "session_p50_ms": "failed"}
    assert all(f"{side} runs failed 1 session(s)" in row["reason"] for row in rows)
    # Other workloads are judged as usual.
    other = _records("sbc-composed", [{"sessions_per_s": 100.0}] * 10)
    rows = compare.compare(parent + other, change + other, BENCH)
    assert {row["workload"]: row["verdict"] for row in rows} == {
        "voting-hybrid": "failed", "sbc-composed": "ok"}


def test_a_missing_pair_fails_the_workload():
    parent, change = _side(20.0, 50.0), _side(23.0, 50.0)
    del change[3]  # the change's run on seed 3 crashed and left no record
    rows = compare.compare(parent, change, BENCH, claims=CLAIM)
    assert _verdicts(rows)["sessions_per_s"] == "failed"
    assert rows[0]["reason"] == "no change run for seed(s) [3]"
    rows = compare.compare(parent + [dict(parent[0])], parent, BENCH)
    assert rows[0]["reason"] == "parent ran seed(s) [0] more than once"


def test_unknown_claims_are_refused():
    with pytest.raises(ValueError, match="voting-hybrid:sessions_per_sec"):
        compare.compare([], [], BENCH, claims=["voting-hybrid:sessions_per_sec"])


def test_agreement_uses_each_metrics_bound():
    first, second = _side(20.0, 50.0), _side(21.0, 60.0)
    verdicts = {row["metric"]: row["verdict"] for row in compare.agreement(first, second, BENCH)}
    assert verdicts == {"sessions_per_s": "agree", "session_p50_ms": "differ"}
