"""Layer-attributed span recorder for the traced benchmark pass.

The traced pass measures where a session's time goes without touching
``src/``: :func:`instrumented` wraps the public functions of each layer
(the :data:`WRAPS` table) from outside, and a :class:`Recorder` charges
every interval of wall time to exactly one layer.

Attribution is *transition based*.  The recorder keeps one current
target layer and a timestamp; each wrapped call, each coarse span
(session, round, wave, attach) and each asyncio task step charges the
time since the last transition to the current target, then switches
target.  Self times therefore partition the time during which some span
is open, also when many sessions interleave on one event loop: a task
step resumes the innermost span of *its own* task (held in a
:mod:`contextvars` variable, which asyncio copies per task), so one
session's round is never charged with another session's work.

Coarse spans stay in memory and are written as JSON lines when the run
ends (:meth:`Recorder.write_spans`).  :func:`instrumented` restores on
exit the class attribute or every module binding it replaced, including
names imported with ``from module import name``.
"""

from __future__ import annotations

import asyncio
import collections.abc
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: Layer charged with a hosted wave's own code (``AsyncSessionHost.serve``)
#: and with event-loop time between task steps while a span is open
#: (callback scheduling, future wake-ups).
LOOP = "runtime.aio.host"

#: Layer charged with a session span's own code (stack building, input
#: and output handling) and with party activations: the protocol and
#: functionality logic that no narrower layer claims.
PROTOCOLS = "protocols"

#: Layer charged with the benchmark's own host-speed probes when they run
#: inside a traced interval; it is instrument time, not program time.
PROBE = "bench.probe"


class Wrap(NamedTuple):
    """One wrapped callable: where it lives and what it is charged to.

    ``layer`` receives the call's self time (``None``: the call is only
    counted and its time stays with the caller).  ``counter`` counts
    calls; ``observe`` maps ``(args, result)`` to extra counter
    increments.  ``span`` names calls that are also coarse spans (rounds,
    material attaches), recorded to the span file.  Like every wrapped
    call they are traced only inside an open span, except ``top`` ones,
    which open a traced interval of their own (a sweep worker's material
    attach runs before any session).
    """

    module: str
    path: str
    layer: Optional[str]
    counter: str
    observe: Optional[Callable[[tuple, Any], Dict[str, int]]] = None
    span: Optional[str] = None
    top: bool = False


def _batch_report(args: tuple, report: Any) -> Dict[str, int]:
    return {"crypto.batch.items": len(report.verdicts), "crypto.batch.fallback": report.fallback}


def _same(layer: str, counter: str, module: str, *paths: str, **extra: Any) -> Tuple[Wrap, ...]:
    return tuple(Wrap(module, path, layer, counter, **extra) for path in paths)


#: Every layer boundary the traced pass wraps, named after the
#: ``src/repro/`` modules.  Schnorr signatures count as Σ-proofs
#: (Fiat–Shamir proofs of knowledge) under ``crypto.zkp``.
WRAPS: Tuple[Wrap, ...] = (
    *_same("crypto.exp", "crypto.exp.calls", "repro.crypto.groups",
           "SchnorrGroup.exp", "SchnorrGroup.power_of_g"),
    Wrap("repro.crypto.groups", "SchnorrGroup.multi_exp", "crypto.multi_exp",
         "crypto.multi_exp.calls"),
    Wrap("repro.crypto.groups", "SchnorrGroup.is_member", None, "crypto.is_member.calls"),
    *_same("crypto.zkp", "crypto.zkp.calls", "repro.crypto.zkp", "pok_prove", "pok_verify",
           "cp_prove", "cp_verify", "ballot_prove", "ballot_verify"),
    *_same("crypto.zkp", "crypto.zkp.calls", "repro.crypto.schnorr",
           "schnorr_sign", "schnorr_verify"),
    Wrap("repro.crypto.batch", "verify_batch", "crypto.batch", "crypto.batch.calls",
         observe=_batch_report),
    *_same("crypto.hashing", "crypto.hashing.calls", "repro.crypto.hashing",
           "hash_bytes", "hash_to_int", "expand", "xor_bytes"),
    *_same("tle.puzzle", "tle.puzzle.calls", "repro.tle.astrolabous",
           "ast_encrypt", "ast_decrypt", "ast_solve", "PuzzleSolver.next_query"),
    *_same("tle.puzzle", "tle.puzzle.steps", "repro.tle.astrolabous",
           "PuzzleSolver.absorb", "PuzzleSolver.step"),
    Wrap("repro.uc.trace", "EventLog.record", "uc.trace.record", "uc.trace.events"),
    Wrap("repro.runtime.pool", "trace_digest", "uc.trace.digest", "uc.trace.digests"),
    *_same("uc.encoding", "uc.encoding.calls", "repro.uc.encoding", "encode", "decode", "sort_key"),
    Wrap("repro.uc.metrics", "Metrics.count_ro_query", None, "uc.metrics.ro_queries"),
    *_same("runtime.driver", "runtime.driver.rounds", "repro.runtime.driver",
           "SequentialRoundDriver.run_round", "BatchedRoundDriver.run_round", span="round"),
    Wrap("repro.runtime.aio", "AsyncRoundDriver.run_round_async", "runtime.driver",
         "runtime.driver.rounds", span="round"),
    *_same("runtime.scheduler", "runtime.scheduler.drains", "repro.runtime.scheduler",
           "BatchScheduler.drain"),
    *_same("runtime.scheduler", "runtime.scheduler.enqueues", "repro.runtime.scheduler",
           "BatchScheduler.enqueue"),
    Wrap("repro.runtime.backend", "ExecutionBackend.warm_up", "runtime.material",
         "runtime.material.attaches", span="attach", top=True),
    Wrap("repro.runtime.material", "MaterialStore.record_spend", "runtime.material",
         "runtime.material.ledger_writes"),
    Wrap("repro.uc.entity", "Party.advance_clock", PROTOCOLS, "protocols.activations"),
)


@dataclass
class _Frame:
    """An open coarse span: the layer it charges and its span record."""

    layer: str
    span_id: int
    session: Any


#: The innermost open coarse span of the running task (or thread).
_FRAME: contextvars.ContextVar[Optional[_Frame]] = contextvars.ContextVar(
    "perf_frame", default=None
)


class Recorder:
    """Charges wall time to layers and keeps coarse spans in memory.

    Attributes:
        self_s: layer -> self seconds.
        counts: counter -> occurrences.
        spans: ``(id, name, start, end, parent, session)`` tuples.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[int, str, float, float, Optional[int], Any]] = []
        self._ids = itertools.count(1)
        self._target: Optional[str] = None
        self._mark = time.perf_counter()
        self._open = 0

    def _switch(self, target: Optional[str]) -> float:
        """Charge the time since the last transition; return the timestamp."""
        now = time.perf_counter()
        if self._target is not None:
            self.self_s[self._target] += now - self._mark
        self._mark = now
        self._target = target
        return now

    def _idle(self) -> Optional[str]:
        return LOOP if self._open else None

    # -- coarse spans ------------------------------------------------------

    def _enter(self, layer: str, session: Any) -> Tuple[_Frame, Any, float]:
        parent = _FRAME.get()
        if session is None and parent is not None:
            session = parent.session
        frame = _Frame(layer, next(self._ids), session)
        now = self._switch(layer)
        self._open += 1
        return frame, _FRAME.set(frame), now

    def _exit(self, name: str, frame: _Frame, token: Any, start: float) -> None:
        _FRAME.reset(token)
        parent = _FRAME.get()
        self._open -= 1
        now = self._switch(parent.layer if parent is not None else self._idle())
        self.spans.append(
            (frame.span_id, name, start, now, parent.span_id if parent else None, frame.session)
        )

    @contextlib.contextmanager
    def span(self, name: str, layer: str, session: Any = None) -> Iterator[None]:
        """A synchronous coarse span charging its self time to ``layer``."""
        frame, token, start = self._enter(layer, session)
        try:
            yield
        finally:
            self._exit(name, frame, token, start)

    async def aspan(self, name: str, layer: str, awaitable: Any, session: Any = None) -> Any:
        """Await ``awaitable`` inside a coarse span of the current task."""
        frame, token, start = self._enter(layer, session)
        try:
            return await awaitable
        finally:
            self._exit(name, frame, token, start)

    # -- asyncio task steps ------------------------------------------------

    def task_factory(self, loop: Any, coro: Any, context: Any = None) -> Any:
        """``loop.set_task_factory`` hook: bracket every step of every task."""
        return asyncio.Task(_Steps(self, coro), loop=loop, context=context)

    def _step_begin(self) -> None:
        frame = _FRAME.get()
        self._switch(frame.layer if frame is not None else self._idle())

    def _step_end(self) -> None:
        self._switch(self._idle())

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict totals (picklable across processes); ``spans`` maps
        each span name to ``[count, inclusive seconds]``."""
        span_totals: Dict[str, List[float]] = {}
        for _, name, start, end, _, _ in self.spans:
            total = span_totals.setdefault(name, [0, 0.0])
            total[0] += 1
            total[1] += end - start
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": span_totals,
        }

    def reset(self) -> None:
        """Drop the totals and the spans."""
        self.self_s.clear()
        self.counts.clear()
        self.spans = []

    def write_spans(self, path: Any) -> None:
        """Write the coarse spans as JSON lines, one span per line."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, session in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "session": session}
                handle.write(json.dumps(record) + "\n")

    def _after_fork(self) -> None:
        # A forked sweep worker starts from a copy of the parent's state;
        # it must charge nothing the parent was in the middle of.
        self.reset()
        self._open = 0
        self._target = None
        self._mark = time.perf_counter()
        _FRAME.set(None)


class _Steps(collections.abc.Coroutine):
    """A task's coroutine with every step bracketed by recorder transitions.

    asyncio runs each step inside the task's own context, so the step
    resumes the task's innermost span, not whichever span the previous
    step of some other task left open.
    """

    def __init__(self, recorder: Recorder, coro: Any) -> None:
        self._recorder = recorder
        self._coro = coro

    def send(self, value: Any) -> Any:
        self._recorder._step_begin()
        try:
            return self._coro.send(value)
        finally:
            self._recorder._step_end()

    def throw(self, *exc: Any) -> Any:
        self._recorder._step_begin()
        try:
            return self._coro.throw(*exc)
        finally:
            self._recorder._step_end()

    def close(self) -> None:
        self._coro.close()

    def __await__(self) -> Any:
        return self._coro.__await__()


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------


def _wrapper(recorder: Recorder, wrap: Wrap, fn: Callable[..., Any]) -> Callable[..., Any]:
    """The replacement for ``fn``.  The timed variant is the hot path
    (thousands of calls per session), so it inlines the transition."""
    counts = recorder.counts
    counter = wrap.counter
    layer = wrap.layer
    if wrap.span is not None:
        name, top = wrap.span, wrap.top
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_span(*args: Any, **kwargs: Any) -> Any:
                if recorder._target is None and not top:
                    return await fn(*args, **kwargs)
                counts[counter] += 1
                return await recorder.aspan(name, layer, fn(*args, **kwargs))

            return async_span

        @functools.wraps(fn)
        def sync_span(*args: Any, **kwargs: Any) -> Any:
            if recorder._target is None and not top:
                return fn(*args, **kwargs)
            counts[counter] += 1
            with recorder.span(name, layer):
                return fn(*args, **kwargs)

        return sync_span

    if layer is None:

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if recorder._target is not None:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    self_s = recorder.self_s
    clock = time.perf_counter
    observe = wrap.observe

    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        previous = recorder._target
        if previous is None or previous == layer:
            # Outside every span (not traced), or a same-layer re-entry
            # such as exp -> power_of_g, which the outer call accounts for.
            return fn(*args, **kwargs)
        counts[counter] += 1
        now = clock()
        self_s[previous] += now - recorder._mark
        recorder._mark = now
        recorder._target = layer
        try:
            result = fn(*args, **kwargs)
        finally:
            now = clock()
            self_s[recorder._target] += now - recorder._mark
            recorder._mark = now
            recorder._target = previous
        if observe is not None:
            for key, value in observe(args, result).items():
                counts[key] += value
        return result

    return timed


def _resolve(wrap: Wrap) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(wrap.module)
    *outer, attr = wrap.path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _bindings(value: Any) -> Iterator[Tuple[Any, str]]:
    """Every ``(module, name)`` currently bound to exactly ``value``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None) or {}
        for name, bound in list(namespace.items()):
            if bound is value:
                yield module, name


#: The recorder the installed wrappers feed (see :func:`active`).
_ACTIVE: Optional[Recorder] = None


def _reset_forked_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._after_fork()


os.register_at_fork(after_in_child=_reset_forked_child)


@contextlib.contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Install every :data:`WRAPS` wrapper feeding ``recorder``; undo on exit.

    Methods are patched on their class.  Module functions are patched in
    every loaded module that binds the identical object: protocols import
    ``encode``, ``ballot_prove`` and the hashing helpers by name, so
    patching only the defining module would miss them.  On exit every
    binding is restored, including ones a module imported while the
    wrappers were installed.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a recorder is already instrumenting this process")
    installed: List[Tuple[Any, str, Any]] = []
    wrappers: List[Tuple[Any, Any]] = []
    try:
        for wrap in WRAPS:
            owner, attr = _resolve(wrap)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                wrapper = _wrapper(recorder, wrap, original)
                targets = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                wrapper = _wrapper(recorder, wrap, original)
                targets = list(_bindings(original))
            for target, name in targets:
                setattr(target, name, wrapper)
                installed.append((target, name, original))
            wrappers.append((wrapper, original))
        _ACTIVE = recorder
        yield recorder
    finally:
        _ACTIVE = None
        for target, name, original in reversed(installed):
            setattr(target, name, original)
        for wrapper, original in wrappers:
            for module, name in _bindings(wrapper):
                setattr(module, name, original)


def active() -> Optional[Recorder]:
    """The recorder the installed wrappers feed, if any.  Forked sweep
    workers inherit it together with the wrappers."""
    return _ACTIVE
