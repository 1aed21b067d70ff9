"""Shared test fixtures and topology builders."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import pytest
from hypothesis import settings

from repro.core.agfw import AgfwRouter
from repro.core.config import AgfwConfig
from repro.faults import FaultInjector, FaultPlan, make_loss_process
from repro.geo.vec import Position
from repro.location.service import OracleLocationService
from repro.metrics.faults import FaultMetrics
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.routing.gpsr import GpsrConfig, GpsrRouter
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

# ``HYPOTHESIS_PROFILE=ci`` replays the same examples on every run: no
# random generation and no example database carried between runs.  Per
# test ``@settings`` (example counts, deadlines) still apply on top.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@dataclass
class TestNet:
    """A ready-made static network for protocol tests."""

    sim: Simulator
    tracer: Tracer
    medium: RadioMedium
    nodes: List[Node]
    oracle: OracleLocationService
    fault_metrics: Optional[FaultMetrics] = None
    fault_injector: Optional[FaultInjector] = None

    def node_at(self, index: int) -> Node:
        return self.nodes[index]

    def deliveries(self) -> list:
        return [(r.node, r.data["packet_uid"], r.time) for r in self.tracer.filter("app.recv")]

    def sends(self) -> list:
        return [(r.node, r.data["packet_uid"], r.time) for r in self.tracer.filter("app.send")]


def build_static_net(
    positions: Sequence[Position],
    protocol: str = "gpsr",
    seed: int = 42,
    agfw_config: Optional[AgfwConfig] = None,
    gpsr_config: Optional[GpsrConfig] = None,
    start: bool = True,
    attach_routers: bool = True,
    loss_model: str = "none",
    loss_rate: float = 0.0,
    loss_params: Optional[dict] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> TestNet:
    """Build a static network with one node per position.

    ``loss_model``/``loss_rate``/``loss_params`` install a seeded channel
    loss process at every node's PHY (defaults keep the channel perfect);
    ``fault_plan`` arms a :class:`~repro.faults.FaultInjector` so the
    listed nodes crash/recover on schedule once the sim runs.
    """
    sim = Simulator()
    tracer = Tracer()
    medium = RadioMedium(sim, tracer)
    rngs = RngRegistry(seed)
    oracle = OracleLocationService(sim)
    nodes: List[Node] = []
    for index, position in enumerate(positions):
        node = Node(sim, index, medium, StaticMobility(position), rngs, tracer)
        nodes.append(node)
    oracle.register_all(nodes)
    fault_metrics: Optional[FaultMetrics] = None
    fault_injector: Optional[FaultInjector] = None
    if loss_model != "none" or fault_plan is not None:
        fault_metrics = FaultMetrics()
    if loss_model != "none":
        loss_rngs = rngs.fork("faults")
        for node in nodes:
            node.phy.set_loss_process(
                make_loss_process(
                    loss_model,
                    loss_rate,
                    dict(loss_params or {}),
                    rng=loss_rngs.stream(f"loss:{node.node_id}"),
                    metrics=fault_metrics,
                    radio_range=medium.radio_range,
                )
            )
    if fault_plan is not None and fault_plan:
        fault_injector = FaultInjector(sim, nodes, fault_plan, fault_metrics, tracer=tracer)
        fault_injector.arm()
    if attach_routers:
        for node in nodes:
            if protocol == "gpsr":
                router = GpsrRouter(node, oracle, gpsr_config or GpsrConfig(), tracer)
            elif protocol == "agfw":
                router = AgfwRouter(node, oracle, agfw_config or AgfwConfig(), tracer)
            else:
                raise ValueError(f"unknown protocol {protocol!r}")
            node.attach_router(router)
        if start:
            for node in nodes:
                node.start()
    return TestNet(
        sim=sim,
        tracer=tracer,
        medium=medium,
        nodes=nodes,
        oracle=oracle,
        fault_metrics=fault_metrics,
        fault_injector=fault_injector,
    )


def line_positions(count: int, spacing: float = 200.0) -> List[Position]:
    """Evenly spaced nodes on the x axis (spacing < radio range by default)."""
    return [Position(i * spacing, 0.0) for i in range(count)]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def _never() -> None:
    raise AssertionError("a cancelled event fired")


class CheckedSimulator(Simulator):
    """A :class:`Simulator` that checks every firing against a brute
    force: the clock must sit at the event's time, and the event's
    ``(time, priority, seq)`` key must be below every key still live in
    the queue."""

    def schedule_at(self, time, callback, **kwargs):
        handle = []

        def checked() -> None:
            event = handle[0]
            key = (event.time, event.priority, event.seq)
            assert self.now == event.time
            live = [(e.time, e.priority, e.seq) for e in self.iter_pending()]
            assert not live or key < min(live), (key, min(live))
            callback()

        handle.append(super().schedule_at(time, checked, **kwargs))
        return handle[0]


@pytest.fixture(params=("wheel", "heap", "cross"))
def msim(request) -> Simulator:
    """One engine build per param for the event-queue and clock-contract
    suites.

    The param ids are the names of the three scheduler backends those
    suites were first written against, kept so their test ids stay
    stable:

    * ``heap`` — a plain :class:`Simulator`;
    * ``wheel`` — a :class:`Simulator` carrying 400 cancelled timers
      spread over the first ten simulated seconds (the MAC timer-churn
      shape), so the run loop skips dead heads between live events;
    * ``cross`` — a :class:`CheckedSimulator`, which checks each pop
      against a brute min over the live queue.
    """
    if request.param == "cross":
        return CheckedSimulator()
    engine = Simulator()
    if request.param == "wheel":
        for i in range(400):
            engine.schedule(0.025 * (i + 1), _never).cancel()
    return engine


@pytest.fixture
def tracer() -> Tracer:
    return Tracer()


# Deterministic, session-scoped RSA keys: keygen is the slowest crypto
# operation and most tests only need *some* valid keypair.
@pytest.fixture(scope="session")
def rsa_keys():
    from repro.crypto.rsa import generate_keypair

    key_rng = random.Random(99)
    return [generate_keypair(512, key_rng) for _ in range(8)]


@pytest.fixture(scope="session")
def ca_with_nodes():
    """A CA plus six enrolled identities with warmed keystores."""
    from repro.crypto.certificates import CertificateAuthority, KeyStore

    ca = CertificateAuthority(rng=random.Random(7))
    stores = []
    for index in range(6):
        key, cert = ca.enroll(f"node-{index}")
        stores.append(KeyStore(f"node-{index}", key, cert))
    certs = [s.certificate for s in stores]
    for store in stores:
        store.add_all(certs)
    return ca, stores
