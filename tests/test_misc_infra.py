"""Small-surface infrastructure: metrics summary, trace rendering, misc."""

from repro.functionalities.ubc import UnfairBroadcast
from repro.uc.entity import Party
from repro.uc.metrics import Metrics
from repro.uc.session import Session
from repro.uc.trace import EventLog


def test_metrics_summary_filters_prefixes():
    metrics = Metrics()
    metrics.inc("messages.total", 3)
    metrics.inc("ro.total", 2)
    metrics.inc("internal.debug", 9)
    summary = metrics.summary()
    assert "messages.total" in summary
    assert "ro.total" in summary
    assert "internal.debug" not in summary


def test_metrics_count_message_counts_total_and_channel():
    metrics = Metrics()
    metrics.count_message("chan")
    metrics.count_message("chan")
    metrics.count_message("other")
    assert metrics.snapshot() == {
        "messages.total": 3, "messages.chan": 2, "messages.other": 1,
    }


def test_event_str_rendering():
    log = EventLog()
    event = log.record(3, "leak", "FUBC", ("Broadcast",))
    text = str(event)
    assert "t=3" in text and "leak" in text and "FUBC" in text


def test_event_log_iteration_and_len():
    log = EventLog()
    log.record(0, "a", "x")
    log.record(1, "b", "y")
    assert len(log) == 2
    assert [e.kind for e in log] == ["a", "b"]


def test_event_log_predicate_filter():
    log = EventLog()
    log.record(0, "tick", "P0")
    log.record(5, "tick", "P1")
    late = log.filter(kind="tick", predicate=lambda e: e.time > 2)
    assert [e.source for e in late] == ["P1"]


def test_event_log_first_last_missing():
    log = EventLog()
    assert log.first("nothing") is None
    assert log.last("nothing") is None


def test_session_random_bytes_zero():
    assert Session(seed=1).random_bytes(0) == b""


def test_party_repr():
    session = Session(seed=1)
    party = Party(session, "P0")
    assert "P0" in repr(party)


def test_ubc_adv_allow_unknown_tag_noop(session):
    ubc = UnfairBroadcast(session)
    ubc.adv_allow(b"no-such-tag", b"whatever")  # silently ignored


def test_ubc_adapter_allow_unknown_tag_noop(session):
    from repro.protocols.ubc_protocol import UBCProtocolAdapter

    adapter = UBCProtocolAdapter(session)
    adapter.adv_allow(b"no-such-fid", b"whatever")  # silently ignored


def test_functionality_require_corrupted(session):
    from repro.uc.entity import Functionality
    from repro.uc.errors import CorruptionError

    import pytest

    Party(session, "P0")
    f = Functionality(session, "F")
    with pytest.raises(CorruptionError):
        f.require_corrupted("P0")
    session.corrupt("P0")
    f.require_corrupted("P0")  # no raise


def test_deliver_all_exclusion(session):
    from repro.uc.entity import Functionality

    received = []

    class Probe(Party):
        def on_deliver(self, message, source):
            received.append(self.pid)

    Probe(session, "P0")
    Probe(session, "P1")
    f = Functionality(session, "F")
    f.deliver_all(("x",), exclude=["P0"])
    assert received == ["P1"]
