"""Tests for the tracer."""

from __future__ import annotations

import pytest

from repro.sim.trace import TraceRecord, Tracer, trace_divergence


def test_emit_and_len(tracer):
    tracer.emit(1.0, "a.b", node=1, x=1)
    tracer.emit(2.0, "a.c", node=2)
    assert len(tracer) == 2


def test_filter_by_prefix(tracer):
    tracer.emit(1.0, "phy.tx", node=0)
    tracer.emit(1.0, "phy.collision", node=0)
    tracer.emit(1.0, "mac.tx", node=0)
    assert tracer.count("phy") == 2
    assert tracer.count("phy.tx") == 1
    assert tracer.count("mac") == 1


def test_records_carry_payload(tracer):
    tracer.emit(3.5, "app.send", node=4, packet_uid=99)
    record = next(tracer.filter("app.send"))
    assert record.time == 3.5
    assert record.node == 4
    assert record.data["packet_uid"] == 99


def test_subscriber_receives_matching_records(tracer):
    seen = []
    tracer.subscribe("app.", seen.append)
    tracer.emit(1.0, "app.send", node=0)
    tracer.emit(1.0, "mac.tx", node=0)
    assert len(seen) == 1
    assert seen[0].category == "app.send"


def test_multiple_subscribers_all_fire(tracer):
    a, b = [], []
    tracer.subscribe("x", a.append)
    tracer.subscribe("x", b.append)
    tracer.emit(0.0, "x.y")
    assert len(a) == len(b) == 1


def test_keep_false_skips_retention_but_notifies():
    tracer = Tracer(keep=False)
    seen = []
    tracer.subscribe("", seen.append)
    tracer.emit(0.0, "anything")
    assert len(tracer) == 0
    assert len(seen) == 1


def test_mute_drops_category(tracer):
    """Old exact-category behaviour still holds: the muted category itself
    is dropped and unmute restores it."""
    tracer.mute("noisy")
    tracer.emit(0.0, "noisy")
    tracer.emit(0.0, "quiet")
    assert len(tracer) == 1
    tracer.unmute("noisy")
    tracer.emit(0.0, "noisy")
    assert len(tracer) == 2


def test_mute_is_prefix_based_like_subscribe(tracer):
    """Regression for the mute/subscribe asymmetry: mute now uses the same
    prefix semantics as subscribe/filter, so ``mac.`` mutes ``mac.drop``."""
    tracer.mute("mac.")
    tracer.emit(0.0, "mac.drop")
    tracer.emit(0.0, "mac.tx")
    tracer.emit(0.0, "route.forward")
    assert [r.category for r in tracer] == ["route.forward"]
    tracer.unmute("mac.")
    tracer.emit(0.0, "mac.drop")
    assert len(tracer) == 2


def test_mute_suppresses_subscribers_too(tracer):
    seen = []
    tracer.subscribe("mac.", seen.append)
    tracer.mute("mac.drop")
    tracer.emit(0.0, "mac.drop")
    tracer.emit(0.0, "mac.tx")
    assert [r.category for r in seen] == ["mac.tx"]


# ------------------------------------------------------------- fast path
def test_enabled_for_reflects_keep_subscribers_and_mutes():
    keeping = Tracer(keep=True)
    assert keeping.enabled_for("anything")  # retained even with no listener
    keeping.mute("mac.")
    assert not keeping.enabled_for("mac.drop")

    dropping = Tracer(keep=False)
    assert not dropping.enabled_for("mac.tx")  # nobody listening, no log
    dropping.subscribe("mac.", lambda r: None)
    assert dropping.enabled_for("mac.tx")
    assert not dropping.enabled_for("phy.tx")


def test_drop_path_never_allocates_a_record(monkeypatch):
    """keep=False + no matching subscriber: emit must return before the
    TraceRecord is constructed (the zero-allocation fast path)."""
    import repro.sim.trace as trace_module

    tracer = Tracer(keep=False)
    tracer.subscribe("app.", lambda r: None)

    def boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("TraceRecord allocated on the drop path")

    monkeypatch.setattr(trace_module, "TraceRecord", boom)
    tracer.emit(0.0, "mac.tx", node=1, payload=123)  # no app.* match: dropped
    with pytest.raises(AssertionError):
        tracer.emit(0.0, "app.send", node=1)  # matched: must allocate


def test_bucketed_and_unbucketed_subscribers_fire_in_registration_order(tracer):
    calls = []
    tracer.subscribe("", lambda r: calls.append("global"))
    tracer.subscribe("app.", lambda r: calls.append("bucketed"))
    tracer.subscribe("ap", lambda r: calls.append("partial-head"))
    tracer.emit(0.0, "app.send")
    assert calls == ["global", "bucketed", "partial-head"]
    calls.clear()
    tracer.emit(0.0, "apple")  # no dot: only non-bucketed prefixes match
    assert calls == ["global", "partial-head"]


def test_subscribe_after_emit_invalidates_dispatch_cache(tracer):
    tracer.emit(0.0, "app.send")  # primes the per-category cache
    seen = []
    tracer.subscribe("app.", seen.append)
    tracer.emit(1.0, "app.send")
    assert len(seen) == 1


def test_dispatch_stats_surface_cache_shape(tracer):
    tracer.subscribe("app.send", lambda r: None)
    tracer.subscribe("", lambda r: None)
    tracer.mute("noisy.")
    tracer.emit(0.0, "app.send")
    stats = tracer.dispatch_stats()
    assert stats["subscribers"] == 2
    assert stats["bucketed"] == 1 and stats["unbucketed"] == 1
    assert stats["muted_prefixes"] == 1
    assert stats["cached_categories"] >= 1
    assert stats["retained_records"] == 1


def test_categories_histogram(tracer):
    tracer.emit(0.0, "a")
    tracer.emit(0.0, "a")
    tracer.emit(0.0, "b")
    assert tracer.categories() == {"a": 2, "b": 1}


def test_clear(tracer):
    tracer.emit(0.0, "a")
    tracer.clear()
    assert len(tracer) == 0


def test_iteration_yields_records_in_order(tracer):
    tracer.emit(1.0, "a")
    tracer.emit(2.0, "b")
    assert [r.category for r in tracer] == ["a", "b"]


def test_trace_divergence_names_first_difference():
    a = [TraceRecord(1.0, "phy.tx", 3), TraceRecord(2.0, "mac.tx", 1)]
    b = [TraceRecord(1.0, "phy.tx", 3), TraceRecord(2.0, "mac.tx", 2)]
    # A differing node names the first divergent record, both sides.
    message = trace_divergence(a, b, "reference", "fast")
    assert message is not None
    assert message.startswith("trace divergence at record 1:")
    assert "reference (2.0, 'mac.tx', node=1)" in message
    assert "fast (2.0, 'mac.tx', node=2)" in message
    # A longer trace with an identical prefix is a length mismatch.
    message = trace_divergence(a, a + a, "reference", "fast")
    assert message is not None
    assert message.startswith("trace length mismatch: reference 2 records, fast 4")
    assert "(first 2 identical)" in message
    # Identical traces (equal records, distinct objects) do not diverge.
    copy = [TraceRecord(r.time, r.category, r.node) for r in a]
    assert trace_divergence(a, copy, "reference", "fast") is None
