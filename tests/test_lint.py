"""The ``repro lint`` engine and rules: fixtures, suppression, CLI, meta.

Each rule gets positive / negative / suppressed fixture snippets run
through :func:`lint_source` under a scoping relpath; the CLI tests cover
``--json`` schema, rule selection and exit codes; the meta-test asserts
the shipped tree is clean (the invariant CI gates on); and the
minimal-install test proves the lint path never imports the
crypto/runtime stack or optional dependencies.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import PARSE_ERROR, default_root


def findings_for(source: str, relpath: str, rule_id: str = None):
    findings, suppressed = lint_source(textwrap.dedent(source), relpath)
    if rule_id is not None:
        findings = [f for f in findings if f.rule == rule_id]
    return findings, suppressed


def rule_ids(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# RPR001 digest-nondeterminism


def test_rpr001_flags_pre_rendered_record_detail():
    findings, _ = findings_for(
        """
        def observe(log, data):
            log.record(1, "tally", "F_sbc", detail=repr(data))
        """,
        "uc/somewhere.py",
    )
    assert rule_ids(findings) == ["RPR001"]
    assert "pre-rendered" in findings[0].message


def test_rpr001_flags_nondeterminism_in_detail():
    findings, _ = findings_for(
        """
        import time

        def observe(log):
            log.record(1, "tick", "clock", detail={"at": time.time()})
        """,
        "runtime/somewhere.py",
    )
    assert rule_ids(findings) == ["RPR001"]
    assert "time.time" in findings[0].message


def test_rpr001_flags_repr_encode_in_digest_path():
    findings, _ = findings_for(
        """
        def digest_of(payload):
            return repr(payload).encode()
        """,
        "analysis/somewhere.py",
    )
    assert rule_ids(findings) == ["RPR001"]


def test_rpr001_negative_structured_detail_and_canonical_encode():
    findings, _ = findings_for(
        """
        def observe(log, value, count):
            log.record(1, "tally", "F_sbc", detail=(value, count))

        def digest_of(payload):
            return canonical_detail(payload).encode()
        """,
        "uc/somewhere.py",
    )
    assert findings == []


def test_rpr001_suppressed():
    findings, suppressed = findings_for(
        """
        def observe(log, data):
            log.record(1, "t", "s", detail=repr(data))  # repro: allow[RPR001]
        """,
        "uc/somewhere.py",
    )
    assert findings == []
    assert [s.rule for s in suppressed] == ["RPR001"]


# ---------------------------------------------------------------------------
# RPR002 randomness-seam


RPR002_POSITIVE = """
def keygen(rng, q):
    return rng.randrange(1, q)
"""


def test_rpr002_flags_direct_rng_in_crypto():
    findings, _ = findings_for(RPR002_POSITIVE, "crypto/newprim.py")
    assert rule_ids(findings) == ["RPR002"]
    assert "current_source" in findings[0].message


def test_rpr002_negative_outside_crypto_scope():
    findings, _ = findings_for(RPR002_POSITIVE, "runtime/newprim.py")
    assert findings == []


def test_rpr002_negative_in_seam_modules():
    for exempt in ("crypto/randomness.py", "crypto/preprocessing.py"):
        findings, _ = findings_for(RPR002_POSITIVE, exempt)
        assert findings == [], exempt


def test_rpr002_negative_through_seam():
    findings, _ = findings_for(
        """
        def keygen(group, rng):
            return current_source().schnorr_nonce(group, rng)
        """,
        "crypto/newprim.py",
    )
    assert findings == []


def test_rpr002_suppressed():
    findings, suppressed = findings_for(
        """
        def keygen(rng, q):
            # repro: allow[RPR002] baseline primitive, not pool-backed
            return rng.randrange(1, q)
        """,
        "crypto/newprim.py",
    )
    assert findings == []
    assert [s.rule for s in suppressed] == ["RPR002"]


# ---------------------------------------------------------------------------
# RPR003 arith-normalization


def test_rpr003_flags_native_tainted_return():
    findings, _ = findings_for(
        """
        def chain(arith, values, p):
            acc = arith.to_native(1)
            for value in values:
                acc = acc * value % p
            return acc
        """,
        "crypto/fastpath.py",
    )
    assert rule_ids(findings) == ["RPR003"]
    assert "acc" in findings[0].message


def test_rpr003_flags_arith_expression_return():
    findings, _ = findings_for(
        """
        def square(arith, a, p):
            native = arith.to_native(a)
            return native * native % p
        """,
        "crypto/fastpath.py",
    )
    assert rule_ids(findings) == ["RPR003"]


def test_rpr003_negative_int_normalized():
    findings, _ = findings_for(
        """
        def chain(arith, values, p):
            acc = arith.to_native(1)
            for value in values:
                acc = acc * value % p
            return int(acc)
        """,
        "crypto/fastpath.py",
    )
    assert findings == []


def test_rpr003_negative_without_natives():
    findings, _ = findings_for(
        """
        def chain(values, p):
            acc = 1
            for value in values:
                acc = acc * value % p
            return acc
        """,
        "crypto/fastpath.py",
    )
    assert findings == []


def test_rpr003_suppressed():
    findings, suppressed = findings_for(
        """
        def chain(arith, values, p):
            acc = arith.to_native(1)
            return acc  # repro: allow[RPR003]
        """,
        "crypto/fastpath.py",
    )
    assert findings == []
    assert [s.rule for s in suppressed] == ["RPR003"]


# ---------------------------------------------------------------------------
# RPR004 lock-discipline


def test_rpr004_flags_unlocked_guarded_mutation():
    findings, _ = findings_for(
        """
        class SchnorrGroup:
            def warm(self):
                self._fb_state = (1, [])
        """,
        "crypto/groups.py",
    )
    assert rule_ids(findings) == ["RPR004"]
    assert "_accel_lock" in findings[0].message


def test_rpr004_flags_unlocked_object_setattr():
    findings, _ = findings_for(
        """
        class SchnorrGroup:
            def warm(self):
                object.__setattr__(self, "_fb_calls", 1)
        """,
        "crypto/groups.py",
    )
    assert rule_ids(findings) == ["RPR004"]


def test_rpr004_flags_unlocked_registered_base_insert():
    findings, _ = findings_for(
        """
        class SchnorrGroup:
            def register_fixed_base(self, base):
                self._fb_bases[base] = (4, [])
        """,
        "crypto/groups.py",
    )
    assert rule_ids(findings) == ["RPR004"]
    assert "_fb_bases" in findings[0].message


def test_rpr004_flags_replenisher_registry():
    findings, _ = findings_for(
        """
        class Replenisher:
            def disarm(self):
                self.armed = False
        """,
        "runtime/material.py",
    )
    assert rule_ids(findings) == ["RPR004"]
    assert "_lock" in findings[0].message


def test_rpr004_negative_under_lock_and_in_init():
    findings, _ = findings_for(
        """
        class SchnorrGroup:
            def __init__(self):
                self._fb_state = None

            def warm(self):
                with self._accel_lock:
                    self._fb_state = (1, [])
        """,
        "crypto/groups.py",
    )
    assert findings == []


def test_rpr004_negative_unregistered_class():
    findings, _ = findings_for(
        """
        class Other:
            def warm(self):
                self._fb_state = (1, [])
        """,
        "crypto/groups.py",
    )
    assert findings == []


def test_rpr004_suppressed():
    findings, suppressed = findings_for(
        """
        class SchnorrGroup:
            def warm(self):
                self._fb_calls += 1  # repro: allow[RPR004]
        """,
        "crypto/groups.py",
    )
    assert findings == []
    assert [s.rule for s in suppressed] == ["RPR004"]


# ---------------------------------------------------------------------------
# RPR005 worker-degradation


def test_rpr005_flags_bare_except_everywhere():
    findings, _ = findings_for(
        """
        def run(task):
            try:
                return task()
            except:
                return None
        """,
        "protocols/somewhere.py",
    )
    assert rule_ids(findings) == ["RPR005"]
    assert "bare" in findings[0].message


def test_rpr005_flags_silent_swallow_in_runtime():
    findings, _ = findings_for(
        """
        def attach(path):
            try:
                return path.read_bytes()
            except OSError:
                pass
        """,
        "runtime/material.py",
    )
    assert rule_ids(findings) == ["RPR005"]
    assert "OSError" in findings[0].message


def test_rpr005_negative_swallow_outside_runtime():
    findings, _ = findings_for(
        """
        def attach(path):
            try:
                return path.read_bytes()
            except OSError:
                pass
        """,
        "crypto/somewhere.py",
    )
    assert findings == []


def test_rpr005_negative_handler_that_warns():
    findings, _ = findings_for(
        """
        import warnings

        def attach(path):
            try:
                return path.read_bytes()
            except OSError as exc:
                warnings.warn(f"degraded: {exc}", RuntimeWarning)
                return None
        """,
        "runtime/material.py",
    )
    assert findings == []


def test_rpr005_suppressed():
    findings, suppressed = findings_for(
        """
        def attach(path):
            try:
                return path.read_bytes()
            # repro: allow[RPR005] cleanup on the re-raise path
            except OSError:
                pass
        """,
        "runtime/material.py",
    )
    assert findings == []
    assert [s.rule for s in suppressed] == ["RPR005"]


# ---------------------------------------------------------------------------
# RPR006 pickle-safety


def test_rpr006_flags_lambda_submission():
    findings, _ = findings_for(
        """
        def fan_out(pool, tasks):
            return pool.map(lambda task: task + 1, tasks)
        """,
        "runtime/sweep.py",
    )
    # The unbounded pool.map itself now also trips RPR007.
    assert sorted(rule_ids(findings)) == ["RPR006", "RPR007"]
    assert any("lambda" in finding.message for finding in findings)


def test_rpr006_flags_local_def_submission():
    findings, _ = findings_for(
        """
        def fan_out(executor, tasks):
            def runner(task):
                return task + 1
            return executor.submit(runner, tasks)
        """,
        "runtime/pool.py",
    )
    assert rule_ids(findings) == ["RPR006"]
    assert "runner" in findings[0].message


def test_rpr006_flags_lambda_initializer():
    findings, _ = findings_for(
        """
        def build(ctx, warm):
            return ctx.Pool(4, initializer=lambda: warm())
        """,
        "runtime/pool.py",
    )
    assert rule_ids(findings) == ["RPR006"]


def test_rpr006_negative_module_level_and_partial():
    findings, _ = findings_for(
        """
        import functools

        def fan_out(pool, runner, tasks, kwargs):
            bound = functools.partial(runner, **kwargs)
            return pool.map(bound, tasks, chunksize=4)
        """,
        "runtime/sweep.py",
    )
    # RPR007 flags the unbounded pool.map; RPR006 must stay quiet.
    assert rule_ids(findings) == ["RPR007"]


def test_rpr006_negative_thread_target_and_builtin_map():
    findings, _ = findings_for(
        """
        import threading

        def watch(check, tasks):
            def loop():
                check()
            thread = threading.Thread(target=loop, daemon=True)
            thread.start()
            return list(map(lambda t: t + 1, tasks))
        """,
        "runtime/material.py",
    )
    assert findings == []


def test_rpr006_negative_outside_runtime():
    findings, _ = findings_for(
        """
        def fan_out(pool, tasks):
            return pool.map(lambda task: task + 1, tasks)
        """,
        "analysis/somewhere.py",
    )
    assert findings == []


def test_rpr006_suppressed():
    findings, suppressed = findings_for(
        """
        def fan_out(pool, tasks):
            # repro: allow[RPR006, RPR007] inline executor only, never pickled
            return pool.map(lambda task: task + 1, tasks)
        """,
        "runtime/sweep.py",
    )
    assert findings == []
    assert sorted(s.rule for s in suppressed) == ["RPR006", "RPR007"]


# ---------------------------------------------------------------------------
# RPR007 worker-supervision


def test_rpr007_flags_unbounded_get_and_join():
    findings, _ = findings_for(
        """
        def wait(handle, worker_thread):
            payload = handle.get()
            worker_thread.join()
            return payload
        """,
        "runtime/supervisor.py",
    )
    assert rule_ids(findings) == ["RPR007", "RPR007"]
    assert "timeout" in findings[0].message


def test_rpr007_negative_bounded_waits_and_dict_get():
    findings, _ = findings_for(
        """
        def wait(handle, worker_thread, options):
            payload = handle.get(timeout=5.0)
            worker_thread.join(2.0)
            names = ", ".join(["a", "b"])
            return payload, options.get("key"), names
        """,
        "runtime/supervisor.py",
    )
    assert findings == []


def test_rpr007_negative_outside_runtime():
    findings, _ = findings_for(
        """
        def fan_out(pool, tasks, handle):
            handle.get()
            return pool.map(str, tasks)
        """,
        "analysis/report.py",
    )
    assert findings == []


def test_rpr007_ignores_non_worker_receivers():
    findings, _ = findings_for(
        """
        def plot(figure, series):
            return figure.map(str, series)
        """,
        "runtime/pool.py",
    )
    assert findings == []


def test_rpr007_flags_unbounded_asyncio_wait_for():
    findings, _ = findings_for(
        """
        import asyncio

        async def drain(queue):
            return await asyncio.wait_for(queue.get())
        """,
        "runtime/aio.py",
    )
    # Both the timeout-less wait_for and the bare queue.get() it wraps
    # fire: neither bounds the wait.
    assert rule_ids(findings) == ["RPR007", "RPR007"]
    assert any("wait_for" in finding.message for finding in findings)


def test_rpr007_flags_asyncio_timeout_none_and_wait():
    findings, _ = findings_for(
        """
        import asyncio

        async def drain(queue, tasks):
            token = await asyncio.wait_for(queue.get(), timeout=None)
            done, pending = await asyncio.wait(tasks)
            return token, done, pending
        """,
        "runtime/aio.py",
    )
    # timeout=None is no bound at all: the wait_for, the .get() under it,
    # and the bare asyncio.wait all fire.
    assert rule_ids(findings) == ["RPR007", "RPR007", "RPR007"]
    assert all("timeout" in finding.message for finding in findings)


def test_rpr007_negative_bounded_asyncio_waits():
    findings, _ = findings_for(
        """
        import asyncio

        TIMEOUT_S = 300.0

        async def drain(queue, done, clock, tasks):
            token = await asyncio.wait_for(queue.get(), timeout=TIMEOUT_S)
            err = await asyncio.wait_for(done.get(), timeout=300.0)
            tick = await asyncio.wait_for(clock.sleep(1), 5.0)
            ready, rest = await asyncio.wait(tasks, timeout=10.0)
            return token, err, tick, ready, rest
        """,
        "runtime/aio.py",
    )
    # A concrete timeout — keyword or positional — bounds the wait, and
    # a zero-arg queue .get() wrapped by a bounded wait_for is the
    # supervised queue idiom, not an unbounded worker wait.
    assert findings == []


def test_rpr007_bare_wait_for_import_counts_as_asyncio():
    findings, _ = findings_for(
        """
        from asyncio import wait_for

        async def drain(queue):
            bounded = await wait_for(queue.get(), timeout=1.0)
            unbounded = await wait_for(queue.get())
            return bounded, unbounded
        """,
        "runtime/aio.py",
    )
    # The bare-import spelling is the same primitive: the bounded call is
    # clean (including its wrapped .get()), the timeout-less one fires
    # twice (wait_for + bare .get()).
    assert rule_ids(findings) == ["RPR007", "RPR007"]


# ---------------------------------------------------------------------------
# suppression parsing


def test_parse_suppressions_same_line_and_above():
    source = textwrap.dedent(
        """
        x = 1  # repro: allow[RPR001]
        # repro: allow[RPR002, RPR003] reason text
        y = 2
        """
    )
    allowed = parse_suppressions(source)
    assert allowed[2] == {"RPR001"}
    assert allowed[4] == {"RPR002", "RPR003"}


def test_parse_suppressions_ignores_plain_comments():
    assert parse_suppressions("x = 1  # just a comment\n") == {}


def test_suppression_only_silences_named_rule():
    findings, suppressed = findings_for(
        """
        def fan_out(pool, tasks):
            return pool.map(lambda task: task + 1, tasks)  # repro: allow[RPR001]
        """,
        "runtime/sweep.py",
    )
    # RPR006/RPR007 still fire: the comment names a different rule.
    assert sorted(rule_ids(findings)) == ["RPR006", "RPR007"]
    assert suppressed == []


# ---------------------------------------------------------------------------
# engine behavior


def test_syntax_error_reports_parse_finding():
    findings, _ = lint_source("def broken(:\n", "runtime/x.py")
    assert [f.rule for f in findings] == [PARSE_ERROR]


def test_registry_has_the_seven_shipped_rules():
    ids = [rule.id for rule in all_rules()]
    assert ids == [
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007",
    ]
    assert get_rule("RPR004").name == "lock-discipline"
    with pytest.raises(ValueError):
        get_rule("RPR999")


def test_findings_are_sorted_and_located():
    findings, _ = findings_for(
        """
        def late(pool, tasks):
            return pool.map(lambda t: t, tasks)

        def early(path):
            try:
                return path.read_bytes()
            except OSError:
                pass
        """,
        "runtime/x.py",
    )
    assert findings == sorted(findings, key=lambda f: f.sort_key)
    assert all(f.path == "runtime/x.py" and f.line > 0 and f.col > 0 for f in findings)


# ---------------------------------------------------------------------------
# CLI


def seed_violation(tmp_path: Path) -> Path:
    """A fixture tree with one RPR002 violation, as CI would catch it."""
    bad = tmp_path / "crypto" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def keygen(rng, q):\n    return rng.randrange(1, q)\n")
    return tmp_path


def test_cli_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    root = seed_violation(tmp_path)
    assert lint_main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "RPR002" in out and "crypto/bad.py:2" in out


def test_cli_json_schema(tmp_path, capsys):
    root = seed_violation(tmp_path)
    assert lint_main([str(root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["files"] == 1
    assert report["clean"] is False
    assert report["rules"] == [r.id for r in all_rules()]
    (finding,) = report["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "RPR002"
    assert finding["path"] == "crypto/bad.py"
    assert report["suppressions"] == []


def test_cli_rule_selection(tmp_path, capsys):
    root = seed_violation(tmp_path)
    # Selecting an unrelated rule: the violation is invisible.
    assert lint_main([str(root), "--rule", "RPR005"]) == 0
    assert lint_main([str(root), "--select", "RPR002,RPR003"]) == 1
    assert lint_main([str(root), "--ignore", "RPR002"]) == 0
    capsys.readouterr()


def test_cli_usage_errors(tmp_path, capsys):
    assert lint_main(["--rule", "RPR999"]) == 2
    assert lint_main([str(tmp_path / "missing.py")]) == 2
    err = capsys.readouterr().err
    assert "RPR999" in err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


# ---------------------------------------------------------------------------
# meta: the shipped tree is clean, and the lint path is dependency-minimal


def test_shipped_tree_is_clean():
    report = lint_paths()
    assert report.findings == [], [f.render() for f in report.findings]
    # The justified suppressions are part of the shipped contract: they
    # only ever shrink (a new one needs the same scrutiny as a fix).
    # PR 9 added three: the thread executor's map and the post-terminate
    # pool.join() (both provably bounded, RPR007), and the journal's
    # best-effort temp-file cleanup (RPR005).
    # One RPR005 waiver remains in runtime/aio.py: the host's
    # get_running_loop() probe, where *no* loop is the happy path.  The
    # async driver's step machinery took its other three with it, and
    # the material store's shared-memory segment took three more (its
    # teardown, attach and resource-tracker workarounds).
    assert len(report.suppressions) <= 15


def test_default_root_is_the_repro_package():
    root = default_root()
    assert root.name == "repro"
    assert (root / "analysis" / "lint" / "engine.py").is_file()


def test_lint_cli_runs_without_optional_deps_or_heavy_modules(tmp_path):
    """`repro lint` on a minimal install: no gmpy2/hypothesis, no crypto stack."""
    root = seed_violation(tmp_path)
    script = textwrap.dedent(
        f"""
        import sys

        class Blocker:
            BLOCKED = {{"gmpy2", "hypothesis"}}
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] in self.BLOCKED:
                    raise ImportError("blocked optional dependency: " + name)

        sys.meta_path.insert(0, Blocker())
        from repro.cli import main

        rc = main(["lint", {str(root)!r}])
        assert rc == 1, rc
        heavy = [m for m in sys.modules
                 if m.startswith(("repro.crypto", "repro.runtime",
                                  "repro.core", "repro.uc", "repro.protocols"))]
        assert not heavy, heavy
        print("minimal-ok")
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert "minimal-ok" in result.stdout


def test_repro_package_lazy_exports_still_resolve():
    import repro

    assert callable(repro.build_sbc_stack)
    assert "build_sbc_stack" in dir(repro)
    with pytest.raises(AttributeError):
        _ = repro.not_a_symbol
