"""Integration tests: full scenarios under every protocol.

These run short versions of the paper's simulation model and assert the
qualitative properties the evaluation section reports.  They are the
slowest tests in the suite (seconds each).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import PROTOCOLS, Scenario, ScenarioConfig, run_scenario
from repro.sim.rng import derive_seed


def _short(protocol, **kwargs):
    defaults = dict(
        protocol=protocol,
        num_nodes=30,
        sim_time=10.0,
        traffic_start=(1.0, 3.0),
        num_flows=10,
        num_senders=8,
        seed=5,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(protocol="flooding")
    with pytest.raises(ValueError):
        ScenarioConfig(num_nodes=1)
    with pytest.raises(ValueError):
        ScenarioConfig(sim_time=0)
    with pytest.raises(ValueError):
        ScenarioConfig(placement="poisson")
    with pytest.raises(ValueError):
        ScenarioConfig(placement="clusters", num_clusters=0)
    with pytest.raises(ValueError):
        ScenarioConfig(placement="clusters", cluster_radius=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(flow_locality=-1.0)
    with pytest.raises(ValueError, match="radio_range must be positive and finite"):
        ScenarioConfig(radio_range=-5.0)
    # ``nan <= 0`` is False, so a bare sign check let NaN through.
    for value in (math.nan, math.inf):
        for name in ("sim_time", "radio_range", "interference_range"):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                ScenarioConfig(**{name: value})
        with pytest.raises(ValueError, match="flow_locality must be positive and finite"):
            ScenarioConfig(flow_locality=value)
        with pytest.raises(ValueError, match="cluster_radius must be positive and finite"):
            ScenarioConfig(placement="clusters", cluster_radius=value)
    # A bad ring size used to fail only when the first hello was signed.
    with pytest.raises(ValueError, match="aant_ring_size must be >= 0"):
        ScenarioConfig(protocol="agfw", num_nodes=6, aant_ring_size=-3)
    with pytest.raises(ValueError, match="aant_ring_size must be <= num_nodes - 1"):
        ScenarioConfig(protocol="agfw", num_nodes=6, aant_ring_size=10, real_crypto=True)
    ScenarioConfig(protocol="agfw", num_nodes=6, aant_ring_size=0)
    ScenarioConfig(protocol="agfw", num_nodes=6, aant_ring_size=5, real_crypto=True)
    ScenarioConfig(protocol="agfw", num_nodes=6, aant_ring_size=10)  # modeled ring
    # Non-finite mobility and traffic inputs.  A NaN or infinite speed
    # used to livelock the run at t = 0; a NaN traffic start or
    # staleness was silently clamped to 0; a NaN rate or height failed
    # only while the scenario was built.
    nan, inf = math.nan, math.inf
    for kwargs, message in [
        (dict(min_speed=nan), "min_speed <= max_speed"),
        (dict(max_speed=nan), "min_speed <= max_speed"),
        (dict(max_speed=inf), "min_speed <= max_speed"),
        (dict(min_speed=0.0), "min_speed <= max_speed"),
        (dict(min_speed=5.0, max_speed=1.0), "min_speed <= max_speed"),
        (dict(pause_time=nan), "pause_time must be non-negative and finite"),
        (dict(pause_time=inf), "pause_time must be non-negative and finite"),
        (dict(pause_time=-1.0), "pause_time must be non-negative and finite"),
        (dict(traffic_start=(nan, 0.5)), "traffic_start must be non-negative and finite"),
        (dict(traffic_start=(0.5, inf)), "traffic_start must be non-negative and finite"),
        (dict(traffic_start=(-1.0, -0.5)), "traffic_start must be non-negative and finite"),
        (dict(oracle_staleness=nan), "oracle_staleness must be non-negative and finite"),
        (dict(oracle_staleness=-0.5), "oracle_staleness must be non-negative and finite"),
        (dict(rate_pps=nan), "rate_pps must be positive and finite"),
        (dict(rate_pps=0.0), "rate_pps must be positive and finite"),
        (dict(width=nan), "width must be positive and finite"),
        (dict(height=nan), "height must be positive and finite"),
        (dict(height=inf), "height must be positive and finite"),
        # Workload sizes and loss settings used to pass construction and
        # fail only inside Scenario(...); the loss checks are the loss
        # model's own constructor's.
        (dict(num_flows=0), "num_flows must be >= 1"),
        (dict(num_senders=0), "num_senders must be >= 1"),
        (dict(payload_bytes=0), "payload_bytes must be >= 1"),
        (dict(loss_model="bernoulli", loss_rate=nan), "bernoulli rate must be in"),
        (dict(loss_model="bernoulli", loss_rate=1.5), "bernoulli rate must be in"),
        (dict(loss_model="gilbert", loss_rate=nan), "gilbert rate must be in"),
        (dict(loss_model="gilbert", loss_params={"burst_length": 0.5}), "burst_length must"),
        (dict(loss_model="distance", loss_params={"bogus": 1.0}), "unknown loss_params"),
        (dict(loss_model="rayleigh", loss_rate=0.2), "loss_model must be one of"),
    ]:
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**kwargs)
    ScenarioConfig(pause_time=0.0, traffic_start=(0.0, 0.0), oracle_staleness=0.0)
    ScenarioConfig(num_flows=1, num_senders=1, payload_bytes=1)
    ScenarioConfig(loss_model="gilbert", loss_rate=0.2, loss_params={"burst_length": 1.0})


def test_teleports_require_static():
    with pytest.raises(ValueError, match="static"):
        ScenarioConfig(teleports=((1.0, 0, 10.0, 10.0),), static=False)
    with pytest.raises(ValueError, match="unknown node"):
        ScenarioConfig(teleports=((1.0, 99, 10.0, 10.0),), static=True)
    with pytest.raises(ValueError, match=">= 0"):
        ScenarioConfig(teleports=((-1.0, 0, 10.0, 10.0),), static=True)


#: Ten times what any config drawn below executed in one simulated
#: second (at most 4.5k events over 200 draws); a livelock at a fixed
#: instant blows through it within a fraction of a second.
EVENT_BUDGET = 50_000


@st.composite
def _short_mobile_configs(draw):
    min_speed = draw(st.floats(0.1, 30.0))
    start = draw(st.floats(0.0, 1.0))
    num_nodes = draw(st.integers(4, 12))
    return ScenarioConfig(
        protocol=draw(st.sampled_from(PROTOCOLS)),
        num_nodes=num_nodes,
        width=draw(st.floats(200.0, 1500.0)),
        sim_time=draw(st.floats(0.1, 1.0)),
        seed=draw(st.integers(0, 2**31)),
        min_speed=min_speed,
        max_speed=min_speed + draw(st.floats(0.0, 30.0)),
        pause_time=0.0,
        num_flows=draw(st.integers(1, 6)),
        num_senders=draw(st.integers(1, num_nodes)),
        rate_pps=draw(st.floats(0.5, 20.0)),
        traffic_start=(start, start + draw(st.floats(0.0, 1.0))),
    )


@given(_short_mobile_configs())
@settings(max_examples=25, deadline=None)
def test_valid_mobile_configs_reach_sim_time(config):
    """Any valid mobility and traffic draw, with nodes moving from t = 0,
    reaches its horizon within a fixed event budget: the run makes
    progress instead of spinning at one instant."""
    scenario = Scenario(config)
    for node in scenario.nodes:
        node.start()
    for source in scenario.sources:
        source.start()
    scenario.sim.run(until=config.sim_time, max_events=EVENT_BUDGET)
    assert scenario.sim.now == config.sim_time


def test_clustered_placement_confines_nodes():
    """node_id % num_clusters picks the band; starts and waypoints stay
    within cluster_radius of its center line."""
    config = _short(
        "gpsr",
        num_nodes=40,
        width=8000.0,
        sim_time=1.0,
        placement="clusters",
        num_clusters=4,
        cluster_radius=300.0,
    )
    scenario = Scenario(config)
    pitch = config.width / config.num_clusters
    for node in scenario.nodes:
        center = (node.node_id % 4 + 0.5) * pitch
        for t in (0.0, 0.5, 1.0):
            x = node.mobility.position_at(t).x
            assert abs(x - center) <= 300.0 + 1e-9


def test_flow_locality_scenario_runs_and_stays_deterministic():
    config = _short(
        "agfw",
        num_nodes=40,
        sim_time=5.0,
        placement="clusters",
        num_clusters=2,
        cluster_radius=400.0,
        flow_locality=900.0,
    )
    a = run_scenario(config)
    b = run_scenario(config)
    assert a.sent > 0 and a.delivered > 0
    assert (a.sent, a.delivered, a.frames_on_air) == (b.sent, b.delivered, b.frames_on_air)


@pytest.mark.parametrize("protocol", ["gpsr", "agfw", "agfw-noack"])
def test_scenario_delivers_majority(protocol):
    result = run_scenario(_short(protocol))
    assert result.sent > 0
    assert result.delivery_fraction > 0.6
    assert result.mean_latency > 0


def test_scenario_deterministic_from_seed():
    a = run_scenario(_short("agfw"))
    b = run_scenario(_short("agfw"))
    assert a.sent == b.sent
    assert a.delivered == b.delivered
    assert a.mean_latency == pytest.approx(b.mean_latency)


def test_scenario_seeds_differ():
    a = run_scenario(_short("agfw", seed=5))
    b = run_scenario(_short("agfw", seed=6))
    assert (a.sent, a.delivered, a.frames_on_air) != (b.sent, b.delivered, b.frames_on_air)


def test_agfw_ack_recovers_more_than_noack():
    ack = run_scenario(_short("agfw", num_nodes=40, sim_time=15.0))
    noack = run_scenario(_short("agfw-noack", num_nodes=40, sim_time=15.0))
    assert ack.delivery_fraction >= noack.delivery_fraction


def test_static_scenario_supported():
    result = run_scenario(_short("gpsr", static=True))
    assert result.delivery_fraction > 0.5


def test_router_totals_aggregate():
    result = run_scenario(_short("agfw"))
    assert result.router_totals.originated == result.sent
    assert result.router_totals.beacons_sent > 0
    assert result.router_totals.forwarded >= 0


def test_sniffer_scenario_wiring():
    scenario = Scenario(_short("gpsr", with_sniffer=True, sim_time=5.0))
    scenario.run()
    assert scenario.sniffer is not None
    assert len(scenario.sniffer) > 0


def test_agfw_overrides_applied():
    scenario = Scenario(
        _short("agfw", agfw_overrides={"next_hop_strategy": "best_position"})
    )
    router = scenario.nodes[0].router
    from repro.core.freshness import best_position

    assert router.strategy is best_position


def test_aant_scenario_enables_authenticator():
    scenario = Scenario(_short("agfw", aant_ring_size=3, sim_time=5.0))
    assert all(n.router.authenticator is not None for n in scenario.nodes)
    result = scenario.run()
    assert result.delivery_fraction > 0.3  # verify delays cost a little


def test_real_crypto_scenario_end_to_end():
    """Everything real: RSA keygen, certificates, trapdoors."""
    result = run_scenario(
        _short(
            "agfw",
            num_nodes=20,
            sim_time=8.0,
            num_flows=4,
            num_senders=4,
            real_crypto=True,
        )
    )
    # 20 random nodes in 1500x300 m is still sparse: expect most, not all.
    assert result.delivery_fraction > 0.5


def test_gpsr_real_crypto_builds_no_pki():
    """GPSR never reads node.keystore, so real_crypto must not pay for a
    CA and its key generation, and must not change the run."""

    def outcome(real_crypto):
        scenario = Scenario(_short("gpsr", sim_time=4.0, real_crypto=real_crypto))
        assert scenario.ca is None
        assert all(node.keystore is None for node in scenario.nodes)
        r = scenario.run()
        return (
            r.sent, r.delivered, r.mean_latency, r.frames_on_air, r.collisions,
            vars(r.router_totals), r.bytes_by_kind, r.frames_by_kind,
        )

    assert outcome(True) == outcome(False)


def test_modeled_crypto_creates_no_trapdoor_stream():
    """Modeled trapdoors never draw, so no node builds the stream."""
    scenario = Scenario(_short("agfw", sim_time=1.0))
    for node in scenario.nodes:
        assert "trapdoor" not in node.rngs
        assert node.router.trapdoors.rng is None


def test_real_crypto_trapdoor_stream_seeded_by_name():
    """Real sealing still draws PKCS#1 padding from the node's
    ``trapdoor`` stream, fresh from its name-derived seed at build
    time, so every seal is the one it always was."""
    scenario = Scenario(
        _short("agfw", num_nodes=6, sim_time=1.0, num_flows=2, num_senders=2, real_crypto=True)
    )
    for node in scenario.nodes:
        assert "trapdoor" in node.rngs
        stream = node.router.trapdoors.rng
        assert stream is node.rng("trapdoor")
        fresh = random.Random(derive_seed(node.rngs.seed, "trapdoor"))
        assert stream.getstate() == fresh.getstate()


def test_wallclock_recorded():
    result = run_scenario(_short("gpsr", sim_time=3.0))
    assert result.wallclock_seconds > 0


def test_result_row_formatting():
    result = run_scenario(_short("gpsr", sim_time=3.0))
    row = result.row()
    assert "gpsr" in row and "pdf=" in row
