"""The memoised trace digest against the un-memoised renderer it replaced.

``trace_digest`` shares one render memo across every event of a log, so a
payload recorded in many events (the composed world leaks and delivers each
time-lock ciphertext to every party) is rendered once.  The memo is keyed
by identity, which is only sound while nothing mutates the log during the
digest and while ``repr`` depends on value alone.  These tests pin:

* digest equality with a verbatim copy of the pre-memo renderer, over
  generated logs that share objects, hold equal-but-distinct objects and
  mix values that compare equal but render differently (``1``/``True``/
  ``1.0``);
* that the digest reads a detail's state at digest time, not at record
  time;
* that no stack builder records a detail whose rendering carries a memory
  address (a default ``object.__repr__``), which would break both the
  memo's assumption and cross-process digest equality.
"""

import hashlib
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    build_durs_stack,
    build_sbc_stack,
    build_tle_stack,
    build_voting_stack,
)
from repro.core.stacks import build_fbc_fixture
from repro.functionalities.dummy import DummyBroadcastParty
from repro.runtime import canonical_detail, trace_digest
from repro.uc.environment import Environment
from repro.uc.session import Session
from repro.uc.trace import Event, EventLog

from tests.conftest import broadcast_action

#: Bounded, derandomized profile: identical examples on every run.
QUICK = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Oracle: the renderer and digest exactly as they were before memoisation.
# ---------------------------------------------------------------------------


def _reference_render(obj):
    if isinstance(obj, tuple):
        inner = ", ".join(_reference_render(item) for item in obj)
        return f"({inner},)" if len(obj) == 1 else f"({inner})"
    if isinstance(obj, list):
        return "[" + ", ".join(_reference_render(item) for item in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(
            (_reference_render(key), _reference_render(value))
            for key, value in obj.items()
        )
        return "{" + ", ".join(f"{key}: {value}" for key, value in items) + "}"
    if isinstance(obj, frozenset):
        return "frozenset(" + _reference_render(set(obj)) + ")" if obj else "frozenset()"
    if isinstance(obj, set):
        return "{" + ", ".join(sorted(_reference_render(item) for item in obj)) + "}" if obj else "set()"
    return repr(obj)


def _reference_digest(log):
    h = hashlib.sha256()
    for event in log:
        h.update(
            _reference_render(
                (event.seq, event.time, event.kind, event.source, event.detail)
            ).encode()
        )
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Generated logs
# ---------------------------------------------------------------------------

Point = namedtuple("Point", "x y")


@dataclass(frozen=True)
class Tag:
    label: str
    value: object


# ``1``, ``True`` and ``1.0`` compare (and hash) equal but render apart.
EQUAL_BUT_DIFFERENT = [1, True, 1.0, (1,), (True,), (1.0,), Point(1, True), Point(True, 1.0)]

hashable_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=96),
)
hashables = st.recursive(
    hashable_atoms,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.builds(Point, inner, inner),
        st.builds(Tag, st.text(max_size=4), inner),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)
details = st.recursive(
    hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.dictionaries(hashables, inner, max_size=3),
        st.sets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3),
    ),
    max_leaves=10,
)


def _distinct_copy(obj):
    """An equal object that is not ``obj`` (where the type allows one)."""
    if type(obj) is bytes:
        return bytes(bytearray(obj))
    if type(obj) is tuple:
        return tuple(list(obj))
    if isinstance(obj, (list, dict, set)):
        return type(obj)(obj)
    if type(obj) is frozenset:
        return frozenset(set(obj))
    return obj


@st.composite
def shared_logs(draw):
    """An EventLog whose details reuse a pool of objects many times."""
    pool = list(EQUAL_BUT_DIFFERENT) + draw(st.lists(details, min_size=1, max_size=6))
    log = EventLog()
    for time in range(draw(st.integers(min_value=1, max_value=25))):
        pick = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        shape = draw(st.sampled_from(("same", "copy", "wrapped", "nested")))
        if shape == "copy":
            pick = _distinct_copy(pick)
        elif shape == "wrapped":
            pick = ("deliver", f"P{time % 4}", pick)
        elif shape == "nested":
            pick = (pick, [pick, {"k": pick}], pick)
        log.record(time, draw(st.sampled_from(("leak", "deliver"))), "F", pick)
    return log


@QUICK
@given(shared_logs())
def test_memoised_digest_matches_unmemoised_reference(log):
    assert trace_digest(log) == _reference_digest(log)


@QUICK
@given(details)
def test_canonical_detail_matches_reference_renderer(detail):
    assert canonical_detail(detail) == _reference_render(detail)


def test_equal_values_with_different_reprs_stay_apart():
    log = EventLog()
    for value in EQUAL_BUT_DIFFERENT + [frozenset(), frozenset({2, 1}), {}, set()]:
        log.record(0, "leak", "F", value)
        log.record(0, "leak", "F", (value, value))
    assert trace_digest(log) == _reference_digest(log)
    rendered = [canonical_detail(value) for value in (1, True, 1.0, (1,), (True,), (1.0,))]
    assert len(set(rendered)) == 6


def test_shared_payload_rendered_once_per_digest():
    payload = bytes(range(256)) * 32
    log = EventLog()
    for pid in ("P0", "P1", "P2", "P3"):
        log.record(1, "deliver", "FUBC", (pid, ("Broadcast", payload)))
    memo = {}
    texts = [canonical_detail(event.detail, memo) for event in log]
    assert all(repr(payload) in text for text in texts)
    assert sum(1 for obj, _text in memo.values() if obj is payload) == 1
    assert trace_digest(log) == _reference_digest(log)


class Level(IntEnum):
    HIGH = 2


class Tagged(str):
    def __repr__(self):
        return f"Tagged({str.__repr__(self)})"


def test_inexact_event_heads_digest_like_the_reference():
    # The digest formats an exact int/str head itself; anything else
    # (bool, enum, str subclass) renders through the full tuple path.
    log = EventLog()
    log.record(0, "leak", "F", b"x")
    log.record(True, "leak", "F", b"x")
    log.record(Level.HIGH, Tagged("deliver"), "P0", (1, b"y"))
    log.record(3, "deliver", Tagged("P1"), None)
    log.events.append(Event(seq=False, time=4, kind="tick", source="P2"))
    assert trace_digest(log) == _reference_digest(log)
    exact = EventLog()
    for event in log:
        exact.record(int(event.time), str(event.kind), str(event.source), event.detail)
    assert trace_digest(exact) != trace_digest(log)


# ---------------------------------------------------------------------------
# Semantics: the digest reads details at digest time
# ---------------------------------------------------------------------------


def test_detail_mutated_after_record_digests_as_its_end_state():
    # The digest is taken over the finished log, not folded in at record
    # time: a detail changed after it was recorded is digested as it ends
    # up.  A record-time digest would disagree with every replay that
    # digests the finished log, so this is the contract the memo (built
    # per trace_digest call, never across calls) preserves.
    grown = []
    mutated = EventLog()
    mutated.record(0, "output", "P0", grown)
    before = trace_digest(mutated)
    grown.append(b"late")
    after = trace_digest(mutated)

    final = EventLog()
    final.record(0, "output", "P0", [b"late"])
    initial = EventLog()
    initial.record(0, "output", "P0", [])
    assert after == trace_digest(final) == _reference_digest(mutated)
    assert before == trace_digest(initial)
    assert before != after


# ---------------------------------------------------------------------------
# Determinism guard: no builder's trace renders a memory address
# ---------------------------------------------------------------------------


def _sbc(mode):
    stack = build_sbc_stack(n=3, mode=mode, seed=4, phi=5, delta=3)
    stack.parties["P0"].broadcast(b"m0")
    stack.parties["P2"].broadcast(b"m2")
    stack.run_until_delivery()
    return stack.session.log


def _tle(mode):
    stack = build_tle_stack(n=3, mode=mode, seed=5)
    stack.enc("P0", b"secret", 8)
    stack.run_rounds(8)
    ((_message, ciphertext, tau),) = stack.parties["P0"].retrieve()
    stack.dec("P1", ciphertext, tau)
    return stack.session.log


def _durs(mode):
    params = dict(phi=4, delta=8, alpha=3) if mode == "composed" else {}
    stack = build_durs_stack(n=3, mode=mode, seed=6, **params)
    stack.parties["P0"].urs_request()
    stack.run_until_urs()
    return stack.session.log


def _voting(mode):
    params = dict(phi=5, delta=3) if mode == "composed" else {}
    stack = build_voting_stack(voters=3, mode=mode, seed=7, **params)
    if mode == "ideal":
        stack.service.init()
    else:
        for authority in stack.authorities.values():
            authority.deal()
        stack.run_rounds(1)
    for pid, candidate in (("V0", "yes"), ("V1", "no"), ("V2", "yes")):
        stack.parties[pid].vote(candidate)
    stack.run_until_result()
    return stack.session.log


def _fbc(real_ubc):
    session = Session(seed=8)
    fixture = build_fbc_fixture(session, q=4, real_ubc=real_ubc)
    for i in range(3):
        fixture.fbc.attach(DummyBroadcastParty(session, f"P{i}", fixture.fbc))
    env = Environment(session)
    env.run_round([("P0", broadcast_action(b"x")), ("P2", broadcast_action(b"y"))])
    env.run_rounds(3)
    return session.log


WORLDS = {
    **{f"sbc-{mode}": (_sbc, mode) for mode in ("ideal", "hybrid", "composed")},
    **{f"tle-{mode}": (_tle, mode) for mode in ("ideal", "hybrid", "composed")},
    **{f"durs-{mode}": (_durs, mode) for mode in ("ideal", "hybrid", "composed")},
    **{f"voting-{mode}": (_voting, mode) for mode in ("ideal", "hybrid", "composed")},
    "fbc-ideal-ubc": (_fbc, False),
    "fbc-real-ubc": (_fbc, True),
}


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_no_builder_records_an_address_bearing_detail(world):
    build, arg = WORLDS[world]
    log = build(arg)
    assert len(log) > 0
    memo = {}
    for event in log:
        text = canonical_detail(event.detail, memo)
        assert " at 0x" not in text, f"{world}: event {event.seq} ({event.kind}) renders an address"
    assert trace_digest(log) == _reference_digest(log)
