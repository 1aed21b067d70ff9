"""Shared test fixtures and topology builders."""

from __future__ import annotations

import dataclasses
import os
import random
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import pytest
from hypothesis import settings

import repro.experiments.scenario as scenario_module
from repro.core.aant import AantAttachment, CertReply, CertRequest
from repro.core.agfw import AgfwData, AgfwRouter, AntHello
from repro.core.config import AgfwConfig
from repro.crypto.cache import LruMemo
from repro.experiments.scenario import Scenario, ScenarioConfig, ScenarioResult
from repro.faults import FaultInjector, FaultPlan, make_loss_process
from repro.geo.vec import Position
from repro.location.dlm import DlmReply, DlmRequest, DlmUpdate
from repro.location.service import OracleLocationService
from repro.metrics.faults import FaultMetrics
from repro.net.addresses import MacAddress
from repro.net.mac.frames import MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.routing.gpsr import GpsrBeacon, GpsrConfig, GpsrData, GpsrRouter
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, Tracer, trace_divergence

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


# ------------------------------------------------ reference-path checkers
class CheckedMedium(RadioMedium):
    """A :class:`RadioMedium` that checks every fan-out against a brute
    scalar scan over :attr:`radios`, memo hits included.

    A transmission must start on exactly the radios within interference
    range of the sender, in registration order, each with the bitwise
    scalar distance and the right deliverability; the sender position
    must be bitwise the scalar one.  The receivers are read off the
    ``on_tx_start(tx, distance)`` calls; under the reference scan each
    PHY computes its own distance, which is the scalar one by definition."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``(radio, distance)`` per ``on_tx_start`` of the transmit in flight.
        self._starts: Optional[list] = None

    def register(self, radio) -> None:
        super().register(radio)
        real = radio.on_tx_start

        def on_tx_start(tx, distance=None) -> None:
            if self._starts is not None:
                self._starts.append((radio, distance))
            real(tx, distance)

        radio.on_tx_start = on_tx_start

    def transmit(self, sender, frame, duration):
        self._starts = starts = []
        try:
            tx = super().transmit(sender, frame, duration)
        finally:
            self._starts = None
        center, ref = tx.sender_pos, sender.position
        assert (center.x, center.y) == (ref.x, ref.y), (
            f"sender {sender.node_id} at {center.as_tuple()!r}, "
            f"scalar {ref.as_tuple()!r} at t={self.sim.now!r}"
        )
        expected = []
        for radio in self.radios:
            if radio is sender:
                continue
            pos = radio.position
            d2 = pos.distance2_to(center)
            if d2 <= self._interference_range2:
                expected.append(
                    (radio.node_id, pos.distance_to(center), d2 <= self._radio_range2)
                )
        got = [
            (
                radio.node_id,
                radio.position.distance_to(center) if distance is None else distance,
                radio.node_id in tx.deliverable_to,
            )
            for radio, distance in starts
        ]
        assert got == expected, (
            f"fan-out of node {sender.node_id} at t={self.sim.now!r} diverged "
            f"from the brute scan: expected {expected}, got {got}"
        )
        return tx


@pytest.fixture
def checked_medium(monkeypatch):
    """Build every scenario's medium as a :class:`CheckedMedium`."""
    monkeypatch.setattr(scenario_module, "RadioMedium", CheckedMedium)
    return CheckedMedium


# ------------------------------------------------------------ on-air audit
class NodeId(int):
    """A node id the on-air audit recognises wherever it ends up.  It
    compares, hashes, formats and serializes as the plain ``int``, so a
    run under the audit traces like one without it."""

    __slots__ = ()


#: Packet fields, or ``wire_view()`` keys, that name nodes by design.  An
#: AANT hello names its ring (paper Sec. 4: the signer hides among k+1
#: named members), and the certificate fetch asks for and hands out the
#: certificates of those members.
RING_FORMS: Dict[type, frozenset] = {
    AantAttachment: frozenset({"ring_subjects", "signature"}),
    CertRequest: frozenset({"subjects"}),
    CertReply: frozenset({"certificates", "subjects"}),
}

#: The cleartext baselines the paper compares against.  GPSR names nodes
#: in beacons, headers and unicast MAC addresses.  ALS sends DLM packets
#: only for a node that opted out of privacy, or as the plain fallback
#: of a lookup that timed out.
BASELINE_PACKETS = (GpsrBeacon, GpsrData, DlmUpdate, DlmRequest, DlmReply)


def form_of(packet) -> str:
    """A packet's kind, split where one kind has two wire forms: signed
    and unsigned hellos, greedy and perimeter data."""
    if isinstance(packet, AntHello):
        return f"{packet.kind} {'unsigned' if packet.auth is None else 'signed'}"
    if isinstance(packet, AgfwData):
        return f"{packet.kind} {packet.mode}"
    return packet.kind


class OnAirAudit:
    """What the frames on the air give away about the nodes that sent them.

    For each frame it walks the packet: every public dataclass field,
    recursively, and every ``wire_view()``.  It flags a node identity in
    a ``str`` or ``bytes`` (on word boundaries, so ``node-1`` does not
    match inside ``node-12``), a node's :class:`MacAddress` in a field or
    in the frame header, and a :class:`NodeId`.  What :data:`RING_FORMS`
    fields and :data:`BASELINE_PACKETS` carry goes to :attr:`allowed`
    instead of :attr:`leaks`.  Control frames (RTS/CTS/ACK) only answer
    a unicast data frame and repeat its addresses, so that frame judges
    them.
    """

    def __init__(self) -> None:
        self.identities: set = set()
        self.addresses: Dict[MacAddress, int] = {}
        self.frames = 0
        #: Frames sent per packet form (:func:`form_of`).
        self.sent: Counter = Counter()
        self.leaks: List[str] = []
        self.allowed: List[str] = []
        self._patterns: Optional[Tuple[re.Pattern, re.Pattern]] = None

    def add_node(self, node: Node) -> None:
        self.identities.add(node.identity)
        self.addresses[node.address] = node.node_id
        self._patterns = None

    def inspect(self, frame: MacFrame) -> None:
        self.frames += 1
        packet = frame.packet
        baseline = packet is None or isinstance(packet, BASELINE_PACKETS)
        out = self.allowed if baseline else self.leaks
        for name in ("src", "dst"):
            node_id = self.addresses.get(getattr(frame, name))
            if node_id is not None:
                out.append(f"frame.{name}: MAC address of node {node_id}")
        if packet is not None:
            self.sent[form_of(packet)] += 1
            self._walk(packet, packet.kind, out)

    def _identity_patterns(self) -> Tuple[re.Pattern, re.Pattern]:
        if self._patterns is None:
            names = "|".join(re.escape(i) for i in sorted(self.identities)) or "(?!)"
            text = re.compile(rf"\b(?:{names})\b")
            self._patterns = (text, re.compile(text.pattern.encode()))
        return self._patterns

    def _walk(self, value, path: str, out: List[str]) -> None:
        if isinstance(value, NodeId):
            out.append(f"{path}: node id {int(value)}")
        elif isinstance(value, MacAddress):
            if value in self.addresses:
                out.append(f"{path}: MAC address of node {self.addresses[value]}")
        elif isinstance(value, (str, bytes)):
            text, raw = self._identity_patterns()
            for match in (text if isinstance(value, str) else raw).finditer(value):
                out.append(f"{path}: identity {match.group()!r}")
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                self._walk(item, f"{path}[{index}]", out)
        elif isinstance(value, dict):
            self._walk_items(value, path, out, frozenset())
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            ring = RING_FORMS.get(type(value), frozenset())
            public = {
                spec.name: getattr(value, spec.name)
                for spec in dataclasses.fields(value)
                if not spec.name.startswith("_")
            }
            self._walk_items(public, path, out, ring, ".{}")
            wire_view = getattr(value, "wire_view", None)
            if wire_view is not None:
                # An entry that is a field's own view was walked with it,
                # under that field's class and its ring forms.
                view = {
                    key: item
                    for key, item in wire_view().items()
                    if not (
                        hasattr(public.get(key), "wire_view")
                        and public[key].wire_view() == item
                    )
                }
                self._walk_items(view, f"{path}.wire_view()", out, ring)

    def _walk_items(self, items: dict, path: str, out: List[str], ring, step="[{!r}]") -> None:
        for key, item in items.items():
            self._walk(key, path, out)
            target = self.allowed if key in ring else out
            self._walk(item, path + step.format(key), target)


@contextmanager
def on_air_audit() -> Iterator[OnAirAudit]:
    """Audit every frame any medium carries while the block runs.

    ``RadioMedium.transmit`` and ``Node.__init__`` are wrapped at the
    class level, so every way of building a network is covered:
    :class:`Scenario`, :func:`build_static_net` and the ALS harness in
    :mod:`repro.experiments.overhead`.  Each node built in the block gets
    a :class:`NodeId`."""
    audit = OnAirAudit()
    transmit, init = RadioMedium.transmit, Node.__init__

    def audited_transmit(self, sender, frame, duration):
        audit.inspect(frame)
        return transmit(self, sender, frame, duration)

    def audited_init(self, sim, node_id, *args, **kwargs) -> None:
        init(self, sim, NodeId(node_id), *args, **kwargs)
        audit.add_node(self)

    RadioMedium.transmit, Node.__init__ = audited_transmit, audited_init
    try:
        yield audit
    finally:
        RadioMedium.transmit, Node.__init__ = transmit, init


@pytest.fixture
def checked_memo(monkeypatch):
    """Recompute every crypto memo hit and assert it equals the memoized
    value: a mismatch means a cache key misses an input its computation
    reads."""
    real = LruMemo.get_or_compute

    def get_or_compute(self, key, compute, memoize=True):
        hit = memoize and key in self
        value = real(self, key, compute, memoize)
        if hit:
            fresh = compute()
            assert fresh == value, (
                f"crypto cache {self.name!r}: memoized {value!r} != recomputed "
                f"{fresh!r} for key {key!r}"
            )
        return value

    monkeypatch.setattr(LruMemo, "get_or_compute", get_or_compute)


# ------------------------------------------------------ trace comparison
def _traced_run(config: ScenarioConfig) -> Tuple[ScenarioResult, List[TraceRecord]]:
    scenario = Scenario(replace(config, keep_trace=True))
    result = scenario.run()
    assert scenario.tracer.records, "a traced scenario must retain records"
    return result, scenario.tracer.records


def _outcome(result: ScenarioResult) -> str:
    """Everything observable about a run except wall-clock, as a repr so
    a NaN latency compares equal to itself."""
    return repr((
        result.sent,
        result.delivered,
        result.frames_on_air,
        result.collisions,
        result.mean_latency,
        sorted(vars(result.router_totals).items()),
        sorted(result.bytes_by_kind.items()),
        sorted(result.frames_by_kind.items()),
        sorted(result.fault_counters.items()),
    ))


def assert_reference_matches(config: ScenarioConfig) -> ScenarioResult:
    """Run ``config`` on the reference paths and on the fast paths, assert
    they trace the same (:func:`repro.sim.trace.trace_divergence`) and
    report the same outcome, and return the fast run's result."""
    reference, reference_trace = _traced_run(replace(config, reference=True))
    fast, fast_trace = _traced_run(replace(config, reference=False))
    divergence = trace_divergence(reference_trace, fast_trace, "reference", "fast")
    assert divergence is None, divergence
    assert _outcome(fast) == _outcome(reference)
    return fast

