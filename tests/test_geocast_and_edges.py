"""Edge-case tests: geocast base packet, MAC timing corners, engine misc."""

from __future__ import annotations

import pytest

from repro.geo.vec import Position
from repro.location.geocast import LocationAddressed
from repro.net.addresses import LAST_ATTEMPT
from repro.net.mac.constants import Dot11Params
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


# ------------------------------------------------------------------ geocast
def test_location_addressed_defaults():
    packet = LocationAddressed(uid=1, target_location=Position(10, 20))
    assert packet.ttl == 64
    assert packet.next_pseudonym == LAST_ATTEMPT
    assert packet.header_bytes() == 35


def test_location_addressed_clone_keeps_uid():
    packet = LocationAddressed(uid=1, target_location=Position(1, 2), ttl=10)
    clone = packet.clone_for_forwarding(ttl=9, next_pseudonym=b"\x01" * 6)
    assert clone.uid == packet.uid
    assert clone.ttl == 9
    assert packet.ttl == 10


# --------------------------------------------------------------- MAC timing
def test_cts_and_ack_timeouts_cover_their_frames():
    params = Dot11Params()
    assert params.cts_timeout > params.sifs + params.control_duration(params.cts_bytes)
    assert params.ack_timeout > params.sifs + params.control_duration(params.ack_bytes)


def test_nav_rts_longer_for_bigger_payloads():
    params = Dot11Params()
    assert params.nav_for_rts(1000) > params.nav_for_rts(100)


def test_zero_payload_data_frame_still_has_airtime():
    params = Dot11Params()
    assert params.data_duration(0) >= params.plcp_overhead


def test_custom_rates_respected():
    fast = Dot11Params(data_rate=11e6)
    slow = Dot11Params(data_rate=1e6)
    assert fast.data_duration(1000) < slow.data_duration(1000)


# ------------------------------------------------------------------- engine
def test_schedule_at_exact_now_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(sim.now, lambda: fired.append(1)))
    sim.run()
    assert fired == [1]


def test_event_name_carried():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None, name="my.event")
    assert handle.name == "my.event"


def test_iter_pending_reflects_queue():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, name="a")
    dropped = sim.schedule(2.0, lambda: None, name="b")
    dropped.cancel()
    names = [e.name for e in sim.iter_pending()]
    assert names == ["a"]


# -------------------------------------------------------------------- trace
def test_subscriber_added_mid_run_sees_only_future():
    tracer = Tracer()
    tracer.emit(0.0, "x")
    seen = []
    tracer.subscribe("x", seen.append)
    tracer.emit(1.0, "x")
    assert len(seen) == 1


def test_empty_prefix_subscribes_to_everything():
    tracer = Tracer()
    seen = []
    tracer.subscribe("", seen.append)
    tracer.emit(0.0, "a")
    tracer.emit(0.0, "b.c")
    assert len(seen) == 2


# --------------------------------------------------------- config coherence
def test_agfw_default_timeout_matches_pseudonym_memory():
    """The coherence rule DESIGN.md documents: entries expire before their
    pseudonyms are forgotten (2 beacon intervals vs 2-deep memory)."""
    from repro.core.config import AgfwConfig

    config = AgfwConfig()
    assert config.neighbor_timeout == pytest.approx(
        config.pseudonym_memory * config.beacon_interval
    )


def test_gpsr_default_timeout_is_gpsr_classic():
    from repro.routing.gpsr import GpsrConfig

    assert GpsrConfig().neighbor_timeout == pytest.approx(4.5)
