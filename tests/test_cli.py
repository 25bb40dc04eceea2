"""CLI smoke tests: every subcommand runs and prints sane output."""

import pytest

from repro.cli import build_parser, main


def test_sbc_command(capsys):
    assert main(["sbc", "--n", "3", "--mode", "hybrid", "--messages", "a", "b"]) == 0
    out = capsys.readouterr().out
    assert "delivered: b'a'" in out and "delivered: b'b'" in out


def test_sbc_command_composed(capsys):
    assert main(["sbc", "--mode", "composed", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "release=8" in out


def test_beacon_command(capsys):
    assert main(["beacon", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "uniform random string" in out
    hex_part = out.strip().rsplit(" ", 1)[-1]
    assert len(hex_part) == 64  # 32 bytes


def test_election_command(capsys):
    assert main(["election", "--voters", "3"]) == 0
    out = capsys.readouterr().out
    assert "self-tally" in out and "'yes': 2" in out
    assert (
        "tally verification: per-proof (3 distinct proofs checked, "
        "6 verdicts shared across voter views)" in out
    )


def test_election_command_batched(capsys):
    assert main(["election", "--voters", "3", "--batch-verify"]) == 0
    out = capsys.readouterr().out
    assert "self-tally" in out and "'yes': 2" in out
    # The first voter view evaluates the combined equation and screens
    # 20 distinct elements; the other two views reuse those verdicts.
    assert (
        "tally verification: batched (combined RLC equations: 1 evaluated, "
        "2 verdicts shared across voter views; membership screens: 20 computed, "
        "40 shared)" in out
    )
    assert "per-proof" not in out


def test_election_ideal_mode(capsys):
    assert main(["election", "--voters", "2", "--mode", "ideal"]) == 0
    assert "self-tally" in capsys.readouterr().out


def test_auction_command(capsys):
    assert main(["auction", "--bids", "10", "99", "55"]) == 0
    out = capsys.readouterr().out
    assert "winner: P1 at 99" in out


def test_lineage_command(capsys):
    assert main(["lineage", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "this-paper" in out and "CGMA85" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_deterministic_given_seed(capsys):
    main(["beacon", "--seed", "9"])
    first = capsys.readouterr().out
    main(["beacon", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_sweep_command_inline(capsys):
    assert main([
        "sweep", "--sessions", "3", "--n", "3", "--executor", "inline",
    ]) == 0
    out = capsys.readouterr().out
    assert "sweep plan" in out and "per-session" in out


def test_sweep_command_process_verify(capsys):
    assert main([
        "sweep", "--sessions", "4", "--n", "3", "--executor", "process",
        "--workers", "2", "--chunksize", "2", "--verify",
    ]) == 0
    out = capsys.readouterr().out
    assert "trace digests match inline reference, seed for seed: yes" in out
    assert "forcing --trace full" in out  # light default upgraded for --verify


def test_bench_command_process_executor(capsys):
    assert main([
        "bench", "--sessions", "4", "--n", "3", "--executor", "process",
        "--workers", "2", "--chunksize", "2", "--trace", "full", "--compare",
    ]) == 0
    out = capsys.readouterr().out
    assert "trace digests match sequential reference: yes" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sessions", "2", "--executor", "process", "--workers", "0"],
        ["bench", "--sessions", "2", "--executor", "process", "--workers", "-2"],
        ["bench", "--sessions", "2", "--executor", "process", "--workers", "0"],
        ["serve", "--sessions", "2", "--executor", "process", "--workers", "0"],
    ],
)
def test_non_positive_workers_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["bench"], ["sweep"], ["serve"], ["scenarios", "run"]])
def test_unknown_executor_exits_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--executor", "thread"])
    assert exc.value.code == 2
    assert "invalid choice: 'thread'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sbc", "--n", "0"], "--n"),
        (["sbc", "--n", "-2"], "--n"),
        (["beacon", "--n", "0"], "--n"),
        (["election", "--voters", "0"], "--voters"),
        (["bench", "--sessions", "2", "--n", "0"], "--n"),
        (["bench", "--sessions", "2", "--senders", "0"], "--senders"),
        (["sweep", "--sessions", "2", "--executor", "inline", "--n", "0"], "--n"),
        (["serve", "--sessions", "2", "--n", "0"], "--n"),
        (["lineage", "--n", "4", "0"], "--n"),
    ],
)
def test_non_positive_size_flags_exit_2(argv, flag, capsys):
    assert main(argv) == 2
    assert f"{flag} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--phi", "phi > delay"),
        ("--delta", "delta > max"),
    ],
)
def test_bench_theorem_2_bounds_exit_2(flag, message, capsys):
    # The first trial refuses the parameters: one stderr line, no traceback.
    assert main(["bench", "--sessions", "2", flag, "0"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sessions", "2", "--workers", "2", "--phi", "-1"],
        ["bench", "--sessions", "2", "--executor", "process", "--workers", "2",
         "--phi", "0"],
    ],
    ids=["sweep", "bench-process"],
)
def test_process_executor_names_theorem_2_bound(argv, capsys):
    # A worker would quarantine every trial; the parent names the bound.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "Theorem 2 requires phi > delay of FTLE"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--sessions", "2", "--online", "--material", "disk",
         "--consume-forward"],
        ["sweep", "--sessions", "2", "--replenish"],
        ["material", "replenish"],
        ["sweep", "--sessions", "2", "--adaptive"],
        ["bench", "--sessions", "2", "--adaptive"],
        ["scenarios", "run", "--cell", "ubc/", "--adaptive"],
        ["sweep", "--sessions", "2", "--max-tasks-per-child", "2"],
        ["bench", "--sessions", "2", "--max-tasks-per-child", "2"],
        ["scenarios", "run", "--cell", "ubc/", "--max-tasks-per-child", "2"],
        # serve runs no chunked sweep, so it takes no fan-out flags.
        ["serve", "--sessions", "2", "--executor", "process", "--chaos", "kill@0"],
        ["serve", "--sessions", "2", "--journal", "serve.jsonl"],
        ["serve", "--sessions", "2", "--chunksize", "2"],
        ["serve", "--sessions", "2", "--deadline-cap-s", "5"],
    ],
    ids=[
        "consume-forward", "replenish", "material-replenish",
        "sweep-adaptive", "bench-adaptive", "scenarios-adaptive",
        "sweep-max-tasks-per-child", "bench-max-tasks-per-child",
        "scenarios-max-tasks-per-child",
        "serve-chaos", "serve-journal", "serve-chunksize", "serve-deadline-cap-s",
    ],
)
def test_pool_lifecycle_flags_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["table", "json"])
def test_all_quarantined_sweep_names_the_reason(output, capsys):
    # Every trial fails in a worker, so the sweep has no results to
    # report: one stderr line names the first quarantined task's reason.
    argv = ["sweep", "--sessions", "2", "--workers", "2",
            "--chaos", "exc@0:*,exc@1:*"]
    assert main(argv + output) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "quarantined" in err and "task 0" in err
    assert "ChaosInjected: injected failure at task 0" in err


@pytest.mark.parametrize("command", ["sweep", "bench"])
def test_missing_resume_journal_exits_2(command, tmp_path, capsys):
    argv = [command, "--sessions", "2", "--executor", "process", "--workers", "2",
            "--journal", str(tmp_path / "absent.jsonl"), "--resume"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "No such file" in err


def test_serve_json_reports_latency_percentiles(capsys):
    import json

    assert main(["serve", "--sessions", "3", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["interleaved"] == 0
    assert 0 < record["latency_p50_ms"] <= record["latency_p95_ms"] <= record["latency_p99_ms"]
