"""Integration tests: full scenarios under every protocol.

These run short versions of the paper's simulation model and assert the
qualitative properties the evaluation section reports.  They are the
slowest tests in the suite (seconds each).
"""

from __future__ import annotations

import math
import random
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AgfwConfig
from repro.domains import (
    Builds,
    FixedTuple,
    InstanceOf,
    Integer,
    Maybe,
    Number,
    OneOf,
    Real,
    TupleOf,
    checked,
)
from repro.experiments.scenario import PROTOCOLS, Scenario, ScenarioConfig, run_scenario
from repro.faults.plan import FaultPlan
from repro.routing.base import RoutingConfig
from repro.routing.gpsr import GpsrConfig
from repro.sim.rng import derive_seed
from tests.conftest import assert_reference_matches, on_air_audit


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
        # ``nan < 1.0`` and ``nan <= 0`` are False: a bare bound check let
        # a NaN shape parameter through and the run lost nothing.
        (
            dict(loss_model="gilbert", loss_rate=0.5, loss_params={"burst_length": nan}),
            "burst_length must be >= 1 and finite",
        ),
        (
            dict(loss_model="gilbert", loss_rate=0.5, loss_params={"burst_length": inf}),
            "burst_length must be >= 1 and finite",
        ),
        (
            dict(loss_model="distance", loss_rate=0.5, loss_params={"exponent": nan}),
            "exponent must be positive and finite",
        ),
        (
            dict(loss_model="distance", loss_rate=0.5, loss_params={"exponent": inf}),
            "exponent must be positive and finite",
        ),
        # Gaps the hand-written checks left: each constructed, then
        # failed at build or at run, or ran silently wrong.
        (dict(interference_range=100.0), "need interference_range >= radio_range"),
        (dict(agfw_overrides={"bogus": 1}), "agfw_overrides must be keyword arguments"),
        (dict(gpsr_overrides={"bogus": 1}), "gpsr_overrides must be keyword arguments"),
        (dict(agfw_overrides={"radio_range": 100.0}), "other than radio_range"),
        (dict(gpsr_overrides={"radio_range": 100.0}), "other than radio_range"),
        (dict(agfw_overrides={"beacon_interval": 0}), "beacon_interval must be positive"),
        (dict(gpsr_overrides={"beacon_interval": nan}), "beacon_interval must be positive"),
        (dict(agfw_overrides={"ack_timeout": nan}), "ack_timeout must be positive"),
        (dict(agfw_overrides={"beacon_jitter": 1.0}), r"beacon_jitter must be in \[0, 1\)"),
        (dict(gpsr_overrides={"beacon_jitter": -0.1}), r"beacon_jitter must be in \[0, 1\)"),
        (dict(agfw_overrides={"next_hop_strategy": "closest"}), "next_hop_strategy must be one"),
        (dict(agfw_overrides={"crypto_mode": "real"}), "requires real_crypto=True"),
        (dict(num_nodes=6.5), r"num_nodes must be >= 2 \(an int\)"),
        (dict(num_flows=2.5), r"num_flows must be >= 1 \(an int\)"),
        (dict(num_clusters=2.5), r"num_clusters must be >= 1 \(an int\)"),
        (dict(aant_ring_size=2.5), r"aant_ring_size must be >= 0 \(an int\)"),
        (dict(payload_bytes=1.5), r"payload_bytes must be >= 1 \(an int\)"),
        (dict(seed=1.5), r"seed must be >= 0 \(an int\)"),
        (dict(static="false"), "static must be a bool"),
        (dict(real_crypto="false"), "real_crypto must be a bool"),
        (dict(keep_trace="false"), "keep_trace must be a bool"),
        (dict(with_sniffer="false"), "with_sniffer must be a bool"),
        (dict(sim_time=0.05), "must end by sim_time"),
        (dict(traffic_start=(1.0, 2.0, 3.0)), "traffic_start must be a 2-tuple"),
        (dict(traffic_start=(2.0, 1.0)), r"need traffic_start\[0\] <= traffic_start\[1\]"),
        (dict(static=True, teleports=((1.0, 0, 10.0),)), "teleports must be a 4-tuple"),
        (dict(static=True, teleports=((nan, 0, 10.0, 10.0),)), "teleports must be finite"),
        (dict(static=True, teleports=((1.0, 1.5, 10.0, 10.0),)), "teleports must be >= 0"),
        (dict(static=True, teleports=((1.0, 0, nan, 10.0),)), "teleports must be finite"),
        (dict(static=True, teleports=((1.0, 0, 10.0, inf),)), "teleports must be finite"),
        (dict(fault_plan="crash node 1"), "fault_plan must be a FaultPlan"),
        (dict(fault_plan=FaultPlan().crash(10, 0.5), num_nodes=6), "unknown node"),
    ]:
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**kwargs)
    ScenarioConfig(pause_time=0.0, traffic_start=(0.0, 0.0), oracle_staleness=0.0)
    ScenarioConfig(num_flows=1, num_senders=1, payload_bytes=1)
    ScenarioConfig(loss_model="gilbert", loss_rate=0.2, loss_params={"burst_length": 1.0})
    # A field without a domain (or a domain without a field) fails when
    # the class is defined, i.e. at import.
    two_fields = make_dataclass("TwoFields", [("a", int), ("b", int)])
    with pytest.raises(TypeError, match=r"missing \['b'\], unknown \['c'\]"):
        checked({"a": Integer(0), "c": Integer(0)})(two_fields)


def test_teleports_require_static():
    with pytest.raises(ValueError, match="static"):
        ScenarioConfig(teleports=((1.0, 0, 10.0, 10.0),), static=False)
    with pytest.raises(ValueError, match="unknown node"):
        ScenarioConfig(teleports=((1.0, 99, 10.0, 10.0),), static=True)
    with pytest.raises(ValueError, match=">= 0"):
        ScenarioConfig(teleports=((-1.0, 0, 10.0, 10.0),), static=True)


#: The 802.11 backoff fires one event per 20 us slot per contending
#: node, so twelve nodes may legitimately execute some 600k events in a
#: simulated second (a draw with 65% channel loss reached 50k at seven
#: nodes and 0.87 s).  A livelock at a fixed instant still blows through
#: this budget within seconds.
EVENT_BUDGET = 1_000_000


def _overrides(cls):
    """A protocol config's keyword arguments, each from inside its
    domain, bounded so that one simulated second stays cheap."""
    drawn = {
        "beacon_interval": st.floats(0.2, 0.8),
        "beacon_jitter": st.floats(0.0, 0.99),
        "neighbor_timeout_factor": st.floats(1.0, 5.0),
        "data_ttl": st.integers(1, 64),
    }
    if cls is GpsrConfig:
        drawn.update(enable_perimeter=st.booleans(), mac_retry_limit=st.integers(0, 4))
    else:
        drawn.update(
            enable_ack=st.booleans(),
            ack_timeout=st.floats(0.005, 0.1),
            max_retransmissions=st.integers(0, 4),
            piggyback_acks=st.booleans(),
            pseudonym_memory=st.integers(1, 3),
            next_hop_strategy=st.sampled_from(AgfwConfig.DOMAINS["next_hop_strategy"].choices),
            enable_perimeter=st.booleans(),
        )
    return st.fixed_dictionaries({}, optional=drawn)


@st.composite
def _scenario_configs(draw, sim_times=st.floats(0.1, 1.0), keep_one_up=False):
    """A config anywhere in ``ScenarioConfig``'s domain table: every
    field is drawn (the assert below fails when a new field is not),
    at 4-12 nodes and horizons of at most 1 s.  Churn hits the first
    ``churned`` nodes; ``keep_one_up`` spares at least one."""
    num_nodes = draw(st.integers(4, 12))
    sim_time = draw(sim_times)
    radio_range = draw(st.floats(100.0, 400.0))
    min_speed = draw(st.floats(0.1, 30.0))
    start = draw(st.floats(0.0, 1.0))
    static = draw(st.booleans())
    real_crypto = draw(st.booleans())
    loss_model = draw(st.sampled_from(ScenarioConfig.DOMAINS["loss_model"].choices))
    shape = {"gilbert": {"burst_length": st.floats(1.0, 8.0)},
             "distance": {"exponent": st.floats(0.5, 4.0)}}.get(loss_model, {})
    loss_params = draw(st.fixed_dictionaries({}, optional=shape))
    churned = draw(st.integers(0, num_nodes - 1 if keep_one_up else num_nodes))
    fields = dict(
        protocol=draw(st.sampled_from(PROTOCOLS)),
        num_nodes=num_nodes,
        width=draw(st.floats(200.0, 1500.0)),
        height=draw(st.floats(100.0, 600.0)),
        radio_range=radio_range,
        interference_range=radio_range * draw(st.floats(1.0, 2.5)),
        sim_time=sim_time,
        seed=draw(st.integers(0, 2**31)),
        reference=draw(st.booleans()),
        min_speed=min_speed,
        max_speed=min_speed + draw(st.floats(0.0, 30.0)),
        pause_time=draw(st.floats(0.0, 0.5)),
        static=static,
        placement=draw(st.sampled_from(ScenarioConfig.DOMAINS["placement"].choices)),
        num_clusters=draw(st.integers(1, 4)),
        cluster_radius=draw(st.floats(50.0, 800.0)),
        num_flows=draw(st.integers(1, 6)),
        num_senders=draw(st.integers(1, num_nodes)),
        rate_pps=draw(st.floats(0.5, 20.0)),
        payload_bytes=draw(st.integers(1, 1500)),
        traffic_start=(start, start + draw(st.floats(0.0, 1.0))),
        flow_locality=draw(st.none() | st.floats(50.0, 2000.0)),
        oracle_staleness=draw(st.floats(0.0, 0.5)),
        # Modelled rings may outgrow the network; real ones cannot.
        aant_ring_size=draw(st.none() | st.integers(0, num_nodes - 1 if real_crypto else 16)),
        agfw_overrides=draw(_overrides(AgfwConfig)),
        gpsr_overrides=draw(_overrides(GpsrConfig)),
        real_crypto=real_crypto,
        loss_model=loss_model,
        loss_rate=0.0 if loss_model == "none" else draw(st.floats(0.0, 0.9)),
        loss_params=loss_params,
        fault_plan=FaultPlan.churn(
            range(churned), sim_time=sim_time, seed=draw(st.integers(0, 99)),
            rate=draw(st.floats(0.5, 3.0)), mean_downtime=draw(st.floats(0.05, 0.5)),
        ) if churned else None,
        teleports=tuple(
            (draw(st.floats(0.0, sim_time)), draw(st.integers(0, num_nodes - 1)),
             draw(st.floats(-100.0, 1600.0)), draw(st.floats(-100.0, 700.0)))
            for _ in range(draw(st.integers(0, 3) if static else st.just(0)))
        ),
        keep_trace=draw(st.booleans()),
        with_sniffer=draw(st.booleans()),
    )
    assert fields.keys() == ScenarioConfig.DOMAINS.keys()
    return ScenarioConfig(**fields)


@given(_scenario_configs())
@settings(max_examples=30, deadline=None)
def test_valid_mobile_configs_reach_sim_time(config):
    """Every config that constructs builds and reaches its horizon within
    a fixed event budget: the run makes progress instead of spinning at
    one instant, and nothing it needs fails after construction.  No
    frame it puts on the air names a node outside the forms allowed to
    (:func:`tests.conftest.on_air_audit`)."""
    with on_air_audit() as audit:
        scenario = Scenario(config)
        for node in scenario.nodes:
            node.start()
        for source in scenario.sources:
            source.start()
        if scenario.fault_injector is not None:
            scenario.fault_injector.arm()
        scenario.sim.run(until=config.sim_time, max_events=EVENT_BUDGET)
    assert scenario.sim.now == config.sim_time
    assert audit.leaks == [], f"{len(audit.leaks)} leaks, first {audit.leaks[0]}"


@given(_scenario_configs(sim_times=st.just(1.0), keep_one_up=True))
@settings(max_examples=3, deadline=None)
def test_whole_space_reference_matches_fast(config):
    """The reference paths trace like the fast ones anywhere in the
    space.  A node that never crashes beacons by 0.8 s, so every run
    has a trace to compare."""
    assert_reference_matches(config)


def _inside(domain):
    """A strategy for values inside one tuple-item domain."""
    if isinstance(domain, Integer):
        return st.integers(domain.low, domain.low + 10)
    return st.floats(max(domain.low, -1e6), min(domain.high, 1e6)).filter(domain.accepts)


def _outside(domain):
    """A strategy for values outside ``domain``, read off its type."""
    junk = st.sampled_from(["1", b"1", [], object()])
    if isinstance(domain, Real):
        below = (
            st.floats(max_value=domain.low) if domain.low_open
            else st.floats(max_value=math.nextafter(domain.low, -math.inf))
        )
        above = (
            st.floats(min_value=domain.high) if domain.high_open
            else st.floats(min_value=math.nextafter(domain.high, math.inf))
        )
        return st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, True, None]), junk,
                         below if domain.low > -math.inf else st.nothing(),
                         above if domain.high < math.inf else st.nothing())
    if isinstance(domain, Integer):
        return st.one_of(st.integers(max_value=domain.low - 1), st.floats(),
                         st.sampled_from([True, False, None, str(domain.low)]), junk)
    if isinstance(domain, OneOf):
        near_misses = [c.upper() for c in domain.choices] + [f" {c}" for c in domain.choices]
        return st.one_of(st.sampled_from(["", "bogus", *near_misses]),
                         st.integers(), st.none(), junk)
    if isinstance(domain, Maybe):
        return _outside(domain.inner).filter(lambda v: v is not None)
    if isinstance(domain, FixedTuple):
        inside = [_inside(item) for item in domain.items]
        bad_item = st.integers(0, len(domain.items) - 1).flatmap(
            lambda i: st.tuples(*inside[:i], _outside(domain.items[i]), *inside[i + 1:])
        )
        wrong_length = st.lists(st.floats(0.0, 1.0)).filter(lambda v: len(v) != len(inside))
        return st.one_of(bad_item, wrong_length.map(tuple), st.tuples(*inside).map(list), junk)
    if isinstance(domain, TupleOf):
        return st.one_of(st.tuples(_outside(domain.item)), st.lists(_outside(domain.item)), junk)
    if isinstance(domain, InstanceOf):
        # 0 and 1 are not bools, and "false" is truthy.
        return st.one_of(st.integers(), st.sampled_from(["false", "true", None]), junk)
    if isinstance(domain, Builds):
        nested = sorted(set(domain.cls.DOMAINS) - set(domain.exclude))
        bad_field = st.sampled_from(nested).flatmap(
            lambda name: _outside(domain.cls.DOMAINS[name]).map(lambda v: {name: v})
        )
        return st.one_of(bad_field, st.just({"bogus": 1}),
                         st.sampled_from(domain.exclude).map(lambda name: {name: 1.0}),
                         st.integers(), st.none(), junk)
    if isinstance(domain, Number):
        return st.one_of(st.sampled_from([True, None, "0.5"]), junk)
    raise AssertionError(f"no out-of-domain strategy for {domain!r}")


@pytest.mark.parametrize(
    "cls, name",
    [
        (cls, name)
        for cls in (ScenarioConfig, RoutingConfig, GpsrConfig, AgfwConfig)
        for name in cls.DOMAINS
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_out_of_domain_value_fails_construction(cls, name, data):
    """Substituting a value outside a field's declared domain makes the
    config fail at construction, for every field of every table."""
    value = data.draw(_outside(cls.DOMAINS[name]), label=name)
    with pytest.raises(ValueError, match=f"^{name} |{name}="):
        cls(**{name: value})


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
