"""Cross-cutting simulation invariants, property-tested over random
scenarios.

These are the "can't happen" guarantees downstream analyses rely on:
conservation (nothing delivered that was not sent), anonymity (no AGFW
wire image ever contains an identity), determinism, and accounting
consistency.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.tracker import DoubletTracker
from repro.experiments.scenario import Scenario, ScenarioConfig


def _tiny(protocol: str, seed: int, num_nodes: int = 20) -> ScenarioConfig:
    return ScenarioConfig(
        protocol=protocol,
        num_nodes=num_nodes,
        sim_time=6.0,
        traffic_start=(0.5, 2.0),
        num_flows=6,
        num_senders=5,
        seed=seed,
    )


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["gpsr", "agfw", "agfw-noack"]))
@settings(max_examples=8, deadline=None)
def test_conservation_properties(seed, protocol):
    scenario = Scenario(_tiny(protocol, seed))
    result = scenario.run()
    # Delivered packets are a subset of sent packets.
    assert 0 <= result.delivered <= result.sent
    assert 0.0 <= result.delivery_fraction <= 1.0
    # Latency only exists if something was delivered, and is causal.
    if result.delivered:
        assert result.mean_latency > 0
        assert result.latency is not None and result.latency.minimum > 0
    # Accounting consistency.
    assert result.router_totals.originated == result.sent
    assert result.frames_on_air >= sum(result.frames_by_kind.values())
    # No phantom receivers: every app.recv was matched to an app.send
    # by the collector (unmatched would mean uid corruption).
    assert scenario.delivery.unmatched_recv == 0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None)
def test_agfw_never_puts_identity_on_the_air(seed):
    """The core anonymity invariant, property-tested across random
    scenarios: zero doublets in any AGFW capture."""
    config = _tiny("agfw", seed)
    config = ScenarioConfig(**{**config.__dict__, "with_sniffer": True})
    scenario = Scenario(config)
    scenario.run()
    assert scenario.sniffer is not None
    tracker = DoubletTracker()
    tracker.ingest(scenario.sniffer.observations)
    assert tracker.doublets == []
    for observation in scenario.sniffer.observations:
        assert "identity" not in observation.wire
        for value in observation.wire.values():
            assert "node-" not in str(value)


@given(st.integers(min_value=0, max_value=1_000))
@settings(max_examples=4, deadline=None)
def test_determinism_property(seed):
    """Identical seeds produce bit-identical outcomes, whatever the seed."""
    a = Scenario(_tiny("agfw", seed)).run()
    b = Scenario(_tiny("agfw", seed)).run()
    assert a.sent == b.sent
    assert a.delivered == b.delivered
    assert a.frames_on_air == b.frames_on_air
    assert a.mean_latency == pytest.approx(b.mean_latency)


def test_pseudonyms_on_air_are_all_fresh():
    """Every data packet's next-hop pseudonym was announced by some hello
    earlier in the run — forwarding never invents pseudonyms."""
    config = _tiny("agfw", 77)
    config = ScenarioConfig(**{**config.__dict__, "with_sniffer": True})
    scenario = Scenario(config)
    scenario.run()
    seen_pseudonyms: set[str] = set()
    for observation in scenario.sniffer.observations:
        if observation.packet_kind == "agfw.hello":
            seen_pseudonyms.add(observation.wire["pseudonym"])
        elif observation.packet_kind == "agfw.data":
            pseudonym = observation.wire["next_pseudonym"]
            if pseudonym != "0" * 12:  # the last-attempt marker
                assert pseudonym in seen_pseudonyms


def test_no_duplicate_app_deliveries():
    """End-to-end duplicate suppression holds under retransmissions."""
    scenario = Scenario(_tiny("agfw", 31))
    scenario.run()
    assert scenario.delivery.duplicate_recv == 0
