"""SweepConfig: one validated knob set for every execution entry point.

Every execution knob lives on one frozen dataclass, validation fires at
construction, and ``config=`` is the only way into an entry point: a knob
passed to ``SessionPool`` as a loose keyword is refused rather than
forwarded to the runner, and ``run_matrix`` takes nothing but specs and
a config.
"""

import argparse
import inspect

import pytest

from repro.runtime import (
    ParallelSweep,
    SessionPool,
    SweepConfig,
    run_sbc_trial,
)
from repro.runtime.config import EXECUTORS, add_fanout_options, add_sweep_options
from repro.runtime.supervisor import ChaosPlan


# ---------------------------------------------------------------------------
# validation: every bad combination fails at construction


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"executor": "fork"}, "executor must be inline/process"),
        ({"chunksize": 0}, "chunksize must be >= 1"),
        ({"executor": "process", "chaos": "boom@1"}, "bad chaos fault"),
        ({"deadline_cap_s": 5.0}, "executor='process'"),
        ({"executor": "thread"}, "executor must be inline/process"),
        ({"retry_attempts": 2}, "executor='process'"),
        ({"journal": "sweep.jsonl"}, "executor='process'"),
        ({"resume": True, "executor": "process"}, "journal"),
        ({"trace": "loud"}, "trace must be one of"),
        ({"online": True, "executor": "process"}, "disk.*shared|pools"),
        ({"chaos": "kill@3"}, "executor='process'"),
        ({"material": "telepathy"}, "material source must be one of"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"workers": -2, "executor": "process"}, "workers must be >= 1"),
        ({"retry_attempts": 0, "executor": "process"}, "retry_attempts must be >= 1"),
        ({"deadline_cap_s": 0.0, "executor": "process"}, "deadline_cap_s must be > 0"),
        # Bad values are named before the executor rule, inline or not.
        ({"deadline_cap_s": -1.0}, "deadline_cap_s must be > 0"),
    ],
)
def test_validation_fails_fast(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SweepConfig(**kwargs)


@pytest.mark.parametrize(
    "knob",
    [{"adaptive": True}, {"max_tasks_per_child": 2}, {"retry": None}, {"deadline": None}],
    ids=["adaptive", "max_tasks_per_child", "retry", "deadline"],
)
def test_removed_sweep_shape_knobs_are_refused(knob):
    # A sweep has one shape: the planned chunk size over workers that
    # live for the whole run.  Its supervision is two numbers,
    # retry_attempts and deadline_cap_s, not policy objects.
    with pytest.raises(TypeError):
        SweepConfig(executor="process", **knob)


def test_unknown_backend_rejected_at_construction():
    with pytest.raises(Exception, match="warp"):
        SweepConfig(backend="warp")


def test_chaos_spec_string_is_parsed():
    config = SweepConfig(executor="process", chaos="kill@3,exc@5")
    assert isinstance(config.chaos, ChaosPlan)


def test_batch_policy_resolution():
    from repro.crypto.batch import BatchPolicy

    assert SweepConfig().batch_policy is None
    assert isinstance(SweepConfig(batch_verify=True).batch_policy, BatchPolicy)
    pinned = BatchPolicy(record_trace=False)
    assert SweepConfig(batch_verify=pinned).batch_policy is pinned


def test_replace_revalidates():
    config = SweepConfig()
    with pytest.raises(ValueError, match="executor"):
        config.replace(executor="bogus")
    assert config.replace(trace="full").trace == "full"


# ---------------------------------------------------------------------------
# the argparse bridge


def _parse(argv, executor_default="inline", trace_default="light"):
    parser = argparse.ArgumentParser()
    add_sweep_options(parser, executor_default, trace_default)
    add_fanout_options(parser)
    return parser.parse_args(argv)


def test_from_args_defaults():
    config = SweepConfig.from_args(_parse([]), backend="sequential")
    assert config.backend == "sequential"
    assert config.executor == "inline"
    assert config.trace == "light"
    assert config.retry_attempts is None and config.deadline_cap_s is None
    assert config.chaos is None


def test_from_args_builds_supervision_policies():
    # The flags carry their knobs' names, so their values pass through.
    namespace = _parse(
        [
            "--executor", "process",
            "--retry-attempts", "5",
            "--deadline-cap-s", "7.5",
            "--chaos", "kill@3",
        ]
    )
    config = SweepConfig.from_args(namespace, backend="pooled")
    assert config.retry_attempts == 5
    assert config.deadline_cap_s == 7.5
    assert isinstance(config.chaos, ChaosPlan)


def test_from_args_overrides_win():
    config = SweepConfig.from_args(
        _parse(["--trace", "full"]), backend="pooled", trace=None
    )
    assert config.trace is None


def test_executor_choices_come_from_one_place():
    parser = argparse.ArgumentParser()
    add_sweep_options(parser)
    action = next(a for a in parser._actions if a.dest == "executor")
    assert tuple(action.choices) == EXECUTORS == ("inline", "process")


# ---------------------------------------------------------------------------
# config= is the only way in


KNOB_VALUES = dict(
    backend="sequential",
    executor="process",
    workers=2,
    chunksize=1,
    material=None,
    material_groups=None,
    online=False,
    batch_verify=False,
    retry_attempts=None,
    deadline_cap_s=None,
    chaos=None,
    journal=None,
    resume=False,
    trace="light",
)


def test_knob_values_cover_the_whole_contract():
    assert set(KNOB_VALUES) == set(SweepConfig.knob_names())


@pytest.mark.parametrize("knob", SweepConfig.knob_names())
def test_knob_keywords_are_refused(knob):
    """A knob passed as a runner keyword would reach the runner while the
    report and verify() followed the config; the pool refuses it."""
    with pytest.raises(TypeError, match=rf"config=SweepConfig.*\b{knob}\b"):
        SessionPool(run_sbc_trial, **{knob: KNOB_VALUES[knob]})


def test_config_and_runner_kwargs_stay_apart():
    config = SweepConfig(**KNOB_VALUES)
    pool = SessionPool(run_sbc_trial, config=config, n=3, mode="hybrid")
    assert pool.config is config
    assert pool.runner_kwargs == {"n": 3, "mode": "hybrid"}
    assert SessionPool(run_sbc_trial).config == SweepConfig()


def test_run_matrix_takes_specs_and_a_config():
    from repro.scenarios.runner import run_matrix

    assert list(inspect.signature(run_matrix).parameters) == ["specs", "config"]


def test_parallel_sweep_is_the_pool():
    assert ParallelSweep is SessionPool


def test_async_host_shares_the_config_object():
    from repro.runtime import AsyncSessionHost

    config = SweepConfig(backend="async", executor="inline", trace="light")
    host = AsyncSessionHost(config=config)
    assert host.config is config


@pytest.mark.parametrize(
    "knob",
    [
        {"chunksize": 2},
        {"retry_attempts": 2},
        {"deadline_cap_s": 5.0},
        {"chaos": "kill@0"},
        {"journal": "serve.jsonl"},
        {"journal": "serve.jsonl", "resume": True},
    ],
    ids=["chunksize", "retry", "deadline", "chaos", "journal", "resume"],
)
def test_async_host_refuses_fanout_knobs(knob):
    # The host runs no chunked sweep, so it could honour none of these.
    from repro.runtime import AsyncSessionHost, run_voting_trial

    config = SweepConfig(backend="async", executor="process", **knob)
    with pytest.raises(ValueError, match="runs no chunked sweep"):
        AsyncSessionHost(run_voting_trial, config=config)
