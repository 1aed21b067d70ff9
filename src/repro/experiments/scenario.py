"""Scenario construction: the paper's simulation model, parameterized.

Defaults reproduce Section 5.1: nodes uniformly placed in a 1500 x 300 m
field, 250 m nominal radio range, random waypoint at up to 20 m/s with a
60 s pause time, 30 CBR flows from 20 senders, 900 s of simulated time.
The ``protocol`` field selects the scheme under test:

* ``"gpsr"``        — GPSR-Greedy (unicast data, RTS/CTS + MAC ACK),
* ``"agfw"``        — AGFW with network-layer ACKs,
* ``"agfw-noack"``  — the paper's ablation: AGFW without ACKs.

Use :func:`run_scenario` for one-shot runs; :func:`build_scenario` when
you need to attach sniffers or poke at nodes before running.
"""

from __future__ import annotations

import math
import random
import time as _wall
from dataclasses import dataclass, field as dc_field, fields as dc_fields, is_dataclass
from typing import Dict, List, Optional

from repro.adversary.sniffer import GlobalSniffer
from repro.core.aant import AantAuthenticator
from repro.core.agfw import AgfwRouter
from repro.core.config import AantConfig, AgfwConfig
from repro.crypto.certificates import CertificateAuthority
from repro.faults.loss import make_loss_process
from repro.faults.plan import FaultInjector, FaultPlan
from repro.geo.region import Region
from repro.geo.vec import Position
from repro.location.service import OracleLocationService
from repro.metrics.collectors import DeliveryCollector, OverheadCollector
from repro.metrics.faults import FaultMetrics
from repro.metrics.stats import Summary, summarize
from repro.net.medium import RadioMedium
from repro.net.mobility import RandomWaypointMobility, StaticMobility
from repro.net.node import Node
from repro.routing.base import RouterStats
from repro.routing.gpsr import GpsrConfig, GpsrRouter
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.traffic.cbr import CbrSource
from repro.traffic.workload import make_flows

__all__ = ["ScenarioConfig", "Scenario", "ScenarioResult", "build_scenario", "run_scenario"]

PROTOCOLS = ("gpsr", "agfw", "agfw-noack")


@dataclass
class ScenarioConfig:
    """Everything that defines one simulation run."""

    protocol: str = "gpsr"
    num_nodes: int = 50
    width: float = 1500.0
    height: float = 300.0
    radio_range: float = 250.0
    interference_range: float = 550.0
    sim_time: float = 900.0
    seed: int = 1
    # The proof oracle: brute-scan fan-out with no fan-out memo and no
    # crypto memo.  Traces identically to the default fast paths by
    # construction; see repro.net.medium and repro.crypto.cache.
    reference: bool = False

    # Mobility (paper defaults); static=True pins nodes for debugging.
    min_speed: float = 1.0
    max_speed: float = 20.0
    pause_time: float = 60.0
    static: bool = False

    # Placement: "uniform" (paper default — any node anywhere in the
    # field) or "clusters" (node_id % num_clusters picks one of
    # num_clusters equally spaced vertical bands; the node starts — and
    # keeps all its waypoints — within cluster_radius of that band's
    # center line).  Dense communities with radio-silent corridors
    # between them: the large mobile arena of the e2e benchmark.
    placement: str = "uniform"
    num_clusters: int = 8
    cluster_radius: float = 400.0

    # Workload (paper defaults).
    num_flows: int = 30
    num_senders: int = 20
    rate_pps: float = 4.0
    payload_bytes: int = 128  # paper leaves CBR size unstated; 128 B puts the
    # channel in the contention regime where Figure 1's density effects live
    traffic_start: tuple[float, float] = (5.0, 30.0)
    # When set, each flow's destination is drawn uniformly among nodes
    # whose *initial* position is within this many meters of the
    # sender's, instead of uniformly over the whole field.  None keeps
    # the paper's draw (and its exact rng call sequence).
    flow_locality: Optional[float] = None

    # Location service: Figure 1 uses the oracle (the paper "did not
    # incorporate ALS so as to focus on the major routing part").
    oracle_staleness: float = 0.0

    # Protocol extras.
    aant_ring_size: Optional[int] = None  # enable modeled ring-signed hellos
    agfw_overrides: Dict[str, object] = dc_field(default_factory=dict)
    gpsr_overrides: Dict[str, object] = dc_field(default_factory=dict)
    real_crypto: bool = False  # run actual RSA/ring signatures

    # Faults (defaults = the exact seed behaviour; see repro.faults).
    # loss_model: "none" | "bernoulli" | "gilbert" | "distance" — a seeded
    # per-reception channel loss process at every receiver.
    loss_model: str = "none"
    loss_rate: float = 0.0
    loss_params: Dict[str, float] = dc_field(default_factory=dict)
    # A FaultPlan of crash/recover/pause/churn events (picklable, so it
    # ships through --jobs pools); None = no lifecycle faults.
    fault_plan: Optional[FaultPlan] = None
    # Scripted teleports: (time, node_id, x, y) tuples applied as normal
    # simulation events, in canonical (time, node_id) order.
    # Requires static=True — waypoint mobility owns its own trajectory.
    teleports: tuple = ()

    # Instrumentation.
    keep_trace: bool = False
    with_sniffer: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")
        for name in (
            "sim_time", "width", "height", "radio_range", "interference_range", "rate_pps",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        # The chained comparisons below are False for NaN, which a bare
        # ``value < 0`` test lets through.  A NaN or infinite speed makes
        # every waypoint leg zero-length and livelocks the run at t = 0.
        for name in ("num_flows", "num_senders", "payload_bytes"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.min_speed <= self.max_speed < math.inf:
            raise ValueError("need 0 < min_speed <= max_speed < inf")
        for name in ("pause_time", "oracle_staleness"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if not all(0 <= t < math.inf for t in self.traffic_start):
            raise ValueError("traffic_start must be non-negative and finite")
        if not isinstance(self.reference, bool):
            # A campaign axis value such as "false" is truthy.
            raise ValueError(f"reference must be a bool, got {self.reference!r}")
        if self.aant_ring_size is not None:
            if self.aant_ring_size < 0:
                raise ValueError("aant_ring_size must be >= 0")
            if self.real_crypto and self.aant_ring_size > self.num_nodes - 1:
                # Real rings draw their decoys from the other nodes'
                # certificates, so a larger ring cannot be signed at all.
                raise ValueError(
                    "aant_ring_size must be <= num_nodes - 1 with real_crypto"
                )
        if self.loss_model == "none":
            if self.loss_rate or self.loss_params:
                raise ValueError(
                    "loss_rate / loss_params require a loss_model other than 'none'"
                )
        else:
            # Build one receiver's process on a throwaway stream: the
            # loss model's constructor owns its model name, rate range
            # and parameter checks, so a bad value fails here, not when
            # the scenario builds.
            make_loss_process(
                self.loss_model, self.loss_rate, self.loss_params,
                rng=random.Random(0), metrics=FaultMetrics(),
                radio_range=self.radio_range,
            )
        if self.placement not in ("uniform", "clusters"):
            raise ValueError("placement must be 'uniform' or 'clusters'")
        if self.placement == "clusters":
            if self.num_clusters < 1:
                raise ValueError("num_clusters must be >= 1")
            if not (math.isfinite(self.cluster_radius) and self.cluster_radius > 0):
                raise ValueError("cluster_radius must be positive and finite")
        if self.flow_locality is not None and not (
            math.isfinite(self.flow_locality) and self.flow_locality > 0
        ):
            raise ValueError("flow_locality must be positive and finite")
        if self.teleports:
            if not self.static:
                raise ValueError(
                    "teleports require static=True (waypoint mobility owns "
                    "its own trajectory)"
                )
            for entry in self.teleports:
                t, node_id, _x, _y = entry
                if t < 0:
                    raise ValueError(f"teleport time must be >= 0: {entry}")
                if not (0 <= node_id < self.num_nodes):
                    raise ValueError(f"teleport targets unknown node: {entry}")

    def canonical_dict(self) -> Dict[str, object]:
        """A JSON-stable encoding of this config for content addressing.

        The campaign layer (:mod:`repro.campaign`) keys its result store
        on a digest of this form, so it must be a pure function of the
        config's *values*: dataclasses (including nested
        :class:`~repro.faults.plan.FaultPlan` schedules) flatten to
        tagged dicts with sorted field names, tuples become lists, and
        dict keys are stringified and sorted.  Two configs that would
        simulate identically encode identically across processes,
        machines, and interpreter restarts.
        """
        return _canonical_value(self)  # type: ignore[return-value]


def _canonical_value(value: object) -> object:
    if is_dataclass(value) and not isinstance(value, type):
        encoded: Dict[str, object] = {
            name: _canonical_value(getattr(value, name))
            for name in sorted(f.name for f in dc_fields(value))
        }
        encoded["__type__"] = type(value).__qualname__
        return encoded
    if isinstance(value, (tuple, list)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {
            str(key): _canonical_value(item)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"config field of type {type(value).__name__} has no canonical "
        f"encoding: {value!r}"
    )


@dataclass
class ScenarioResult:
    """What one run produced."""

    config: ScenarioConfig
    sent: int
    delivered: int
    delivery_fraction: float
    mean_latency: float
    latency: Optional[Summary]
    router_totals: RouterStats
    frames_on_air: int
    collisions: int
    wallclock_seconds: float
    bytes_by_kind: Dict[str, int] = dc_field(default_factory=dict)
    frames_by_kind: Dict[str, int] = dc_field(default_factory=dict)
    #: repro.metrics.faults counters — empty when no impairment was
    #: configured, so pre-faults result dictionaries stay unchanged.
    fault_counters: Dict[str, float] = dc_field(default_factory=dict)

    @property
    def goodput_bytes(self) -> int:
        """Application payload bytes actually delivered end-to-end."""
        return self.delivered * self.config.payload_bytes

    @property
    def overhead_ratio(self) -> float:
        """Total network-layer bytes on the air per delivered payload byte —
        the byte price of the scheme (anonymity headers, beacons, ACKs,
        retransmissions all included)."""
        goodput = self.goodput_bytes
        total = sum(self.bytes_by_kind.values())
        return total / goodput if goodput else float("inf")

    def row(self) -> str:
        """One human-readable result line."""
        return (
            f"{self.config.protocol:>10}  n={self.config.num_nodes:<4} "
            f"pdf={self.delivery_fraction:6.3f}  "
            f"latency={self.mean_latency * 1000:8.2f} ms  "
            f"({self.delivered}/{self.sent})"
        )


class Scenario:
    """A fully wired simulation, ready to run."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.tracer = Tracer(keep=config.keep_trace)
        self.delivery = DeliveryCollector(self.tracer)
        self.overhead = OverheadCollector(self.tracer)
        self.sniffer: Optional[GlobalSniffer] = (
            GlobalSniffer(self.tracer) if config.with_sniffer else None
        )
        self.medium = RadioMedium(
            self.sim,
            self.tracer,
            radio_range=config.radio_range,
            interference_range=config.interference_range,
            reference=config.reference,
        )
        self.region = Region.of_size(config.width, config.height)
        self.rngs = RngRegistry(config.seed)
        self.oracle = OracleLocationService(self.sim, staleness=config.oracle_staleness)
        self.ca: Optional[CertificateAuthority] = None
        self.nodes: List[Node] = []
        self.sources: List[CbrSource] = []
        self.fault_metrics = FaultMetrics()
        self.fault_injector: Optional[FaultInjector] = None
        self._build()

    # ------------------------------------------------------------- building
    def _node_region(self, node_id: int) -> Region:
        """The region a node lives in: the whole field, or its cluster band."""
        cfg = self.config
        if cfg.placement != "clusters":
            return self.region
        pitch = cfg.width / cfg.num_clusters
        cx = (node_id % cfg.num_clusters + 0.5) * pitch
        return Region(
            max(0.0, cx - cfg.cluster_radius),
            0.0,
            min(cfg.width, cx + cfg.cluster_radius),
            cfg.height,
        )

    def _build(self) -> None:
        cfg = self.config
        placement_rng = self.rngs.stream("placement")
        starts: List[Position] = []
        for node_id in range(cfg.num_nodes):
            home = self._node_region(node_id)
            start = home.random_position(placement_rng)
            starts.append(start)
            if cfg.static:
                mobility = StaticMobility(start)
            else:
                mobility = RandomWaypointMobility(
                    self.sim,
                    home,
                    self.rngs.fork(f"mob:{node_id}").stream("rwp"),
                    start=start,
                    min_speed=cfg.min_speed,
                    max_speed=cfg.max_speed,
                    pause_time=cfg.pause_time,
                )
            node = Node(self.sim, node_id, self.medium, mobility, self.rngs, self.tracer)
            self.nodes.append(node)
        self.oracle.register_all(self.nodes)

        # Scripted teleports run as ordinary simulation events in
        # canonical (time, node_id) order, so sequence numbers are a pure
        # function of the config.  StaticMobility.move_to notifies
        # subscribers (radio position, spatial index, fan-out memo)
        # exactly like any other position change.
        for tp_time, tp_node, tp_x, tp_y in sorted(cfg.teleports):
            node = self.nodes[tp_node]

            def _teleport(n=node, x=tp_x, y=tp_y, at=tp_time) -> None:
                n.mobility.move_to(Position(x, y))
                self.tracer.emit(at, "mob.teleport", node=n.node_id)

            self.sim.schedule_at(tp_time, _teleport, name="mob.teleport")

        # Channel impairment: one loss process per receiver, each on its
        # own per-purpose derived stream, so loss draws at one node never
        # perturb another node's chain (byte-identical across --jobs
        # pools).  With loss_model="none" nothing is created at all — the
        # reception path runs the exact seed instructions.
        if cfg.loss_model != "none":
            loss_rngs = self.rngs.fork("faults")
            for node in self.nodes:
                node.phy.set_loss_process(
                    make_loss_process(
                        cfg.loss_model,
                        cfg.loss_rate,
                        cfg.loss_params,
                        rng=loss_rngs.stream(f"loss:{node.node_id}"),
                        metrics=self.fault_metrics,
                        radio_range=cfg.radio_range,
                    )
                )
        if cfg.fault_plan is not None and cfg.fault_plan:
            self.fault_injector = FaultInjector(
                self.sim, self.nodes, cfg.fault_plan, self.fault_metrics, self.tracer
            )

        # Only the AGFW-family routers read node.keystore; GPSR would pay
        # for a whole PKI's key generation and never touch it.
        if cfg.real_crypto and cfg.protocol != "gpsr":
            self._provision_pki()

        for node in self.nodes:
            node.attach_router(self._make_router(node))

        # Clamp the ramp-up window into the run: short benchmark horizons
        # reuse the paper's (5, 30) default without further ceremony.
        window_cap = max(cfg.sim_time / 3.0, 0.1)
        start_window = (
            min(cfg.traffic_start[0], window_cap),
            min(cfg.traffic_start[1], window_cap),
        )
        flows = make_flows(
            [n.node_id for n in self.nodes],
            [n.identity for n in self.nodes],
            num_flows=cfg.num_flows,
            num_senders=min(cfg.num_senders, cfg.num_nodes),
            rng=self.rngs.stream("workload"),
            rate_pps=cfg.rate_pps,
            payload_bytes=cfg.payload_bytes,
            start_window=start_window,
            stop_time=cfg.sim_time,
            positions=[(p.x, p.y) for p in starts],
            locality=cfg.flow_locality,
        )
        by_id = {n.node_id: n for n in self.nodes}
        for flow in flows:
            self.sources.append(CbrSource(self.sim, by_id[flow.src_node_id], flow))

    def _provision_pki(self) -> None:
        """Enroll every node with the offline CA and pre-share certificates
        (the paper: nodes 'retrieve enough of them before entering')."""
        from repro.crypto.certificates import KeyStore

        self.ca = CertificateAuthority(
            rng=self.rngs.stream("ca"), memoize=not self.config.reference
        )
        stores = []
        for node in self.nodes:
            key, cert = self.ca.enroll(node.identity)
            stores.append(KeyStore(node.identity, key, cert))
        all_certs = [s.certificate for s in stores]
        for node, store in zip(self.nodes, stores):
            store.add_all(all_certs)
            node.keystore = store

    def _make_router(self, node: Node):
        cfg = self.config
        if cfg.protocol == "gpsr":
            gpsr_cfg = GpsrConfig(radio_range=cfg.radio_range, **cfg.gpsr_overrides)
            return GpsrRouter(node, self.oracle, gpsr_cfg, self.tracer)
        overrides = dict(cfg.agfw_overrides)
        if cfg.protocol == "agfw-noack":
            overrides["enable_ack"] = False
        if cfg.real_crypto:
            overrides.setdefault("crypto_mode", "real")
        agfw_cfg = AgfwConfig(radio_range=cfg.radio_range, **overrides)
        authenticator = None
        if cfg.aant_ring_size is not None:
            aant_cfg = AantConfig(ring_size=cfg.aant_ring_size)
            agfw_cfg.aant = aant_cfg
            authenticator = AantAuthenticator(
                aant_cfg,
                mode="real" if cfg.real_crypto else "modeled",
                cost_model=agfw_cfg.cost_model,
                keystore=node.keystore,
                ca=self.ca,
                rng=node.rng("aant"),
                memoize=not cfg.reference,
            )
        return AgfwRouter(
            node, self.oracle, agfw_cfg, self.tracer,
            authenticator=authenticator, memoize=not cfg.reference,
        )

    # -------------------------------------------------------------- running
    def run(self) -> ScenarioResult:
        started = _wall.perf_counter()
        for node in self.nodes:
            node.start()
        for source in self.sources:
            source.start()
        if self.fault_injector is not None:
            self.fault_injector.arm()
        self.sim.run(until=self.config.sim_time)
        if self.fault_injector is not None:
            self.fault_injector.finalize(self.sim.now)
        wallclock = _wall.perf_counter() - started

        totals = RouterStats()
        for node in self.nodes:
            stats = node.router.stats  # type: ignore[union-attr]
            for field_name in vars(totals):
                setattr(
                    totals, field_name,
                    getattr(totals, field_name) + getattr(stats, field_name),
                )
        collisions = sum(n.phy.frames_collided for n in self.nodes)
        latencies = self.delivery.latencies
        bytes_by_kind = {
            kind: counter.bytes for kind, counter in self.overhead.by_kind.items()
        }
        frames_by_kind = {
            kind: counter.frames for kind, counter in self.overhead.by_kind.items()
        }
        fault_counters: Dict[str, float] = {}
        if self.config.loss_model != "none" or self.fault_injector is not None:
            fault_counters = dict(self.fault_metrics.counters())
        return ScenarioResult(
            config=self.config,
            sent=self.delivery.sent,
            delivered=self.delivery.delivered,
            delivery_fraction=self.delivery.delivery_fraction,
            mean_latency=self.delivery.mean_latency,
            latency=summarize(latencies) if latencies else None,
            router_totals=totals,
            frames_on_air=self.medium.frames_sent,
            collisions=collisions,
            wallclock_seconds=wallclock,
            bytes_by_kind=bytes_by_kind,
            frames_by_kind=frames_by_kind,
            fault_counters=fault_counters,
        )


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Wire up (but do not run) a scenario."""
    return Scenario(config)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build and run a scenario in one call."""
    return Scenario(config).run()
