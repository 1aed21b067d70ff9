"""Shared test fixtures and topology builders."""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import settings

import repro.experiments.scenario as scenario_module
from repro.analysis.engine import AnalysisResult, analyze_paths
from repro.core.agfw import AgfwRouter
from repro.core.config import AgfwConfig
from repro.crypto.cache import LruMemo
from repro.experiments.scenario import Scenario, ScenarioConfig, ScenarioResult
from repro.faults import FaultInjector, FaultPlan, make_loss_process
from repro.geo.vec import Position
from repro.location.service import OracleLocationService
from repro.metrics.faults import FaultMetrics
from repro.net.mac.frames import MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.routing.gpsr import GpsrConfig, GpsrRouter
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
    """A :class:`RadioMedium` that checks every fan-out and neighbor query
    against a brute scalar scan over :attr:`radios`, memo hits included.

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

    def neighbors_within(self, radio, rng):
        got = super().neighbors_within(radio, rng)
        center, limit = radio.position, rng * rng
        expected = [
            other
            for other in self.radios
            if other is not radio and other.position.distance2_to(center) <= limit
        ]
        assert got == expected, (
            f"neighbors of node {radio.node_id} within {rng!r} m diverged from "
            f"the brute scan: expected {[r.node_id for r in expected]}, "
            f"got {[r.node_id for r in got]}"
        )
        return got


@pytest.fixture
def checked_medium(monkeypatch):
    """Build every scenario's medium as a :class:`CheckedMedium`."""
    monkeypatch.setattr(scenario_module, "RadioMedium", CheckedMedium)
    return CheckedMedium


@pytest.fixture
def frames_on_air(monkeypatch) -> List[MacFrame]:
    """Build every scenario's medium so that it records each frame it
    carries; returns the list the frames are appended to, in transmit
    order, across every scenario the test builds."""
    frames: List[MacFrame] = []

    class RecordingMedium(RadioMedium):
        def transmit(self, sender, frame, duration):
            frames.append(frame)
            return super().transmit(sender, frame, duration)

    monkeypatch.setattr(scenario_module, "RadioMedium", RecordingMedium)
    return frames


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


# ------------------------------------------------- shared src/ analysis
@dataclass(frozen=True)
class TimedAnalysis:
    """One whole-tree analysis: its findings and its wall time.

    It keeps no parsed modules or ASTs: holding those for the rest of
    the session would grow the live heap every later test collects."""

    result: AnalysisResult
    elapsed_s: float


@pytest.fixture(scope="session")
def src_analysis() -> TimedAnalysis:
    """``analyze_paths([src])``, run once per session and timed.

    The src self-clean, noqa-catalog, determinism and wall-time floor
    tests all read this one run instead of each analysing ``src/``."""
    src = Path(__file__).resolve().parents[1] / "src"
    started = time.perf_counter()
    result = analyze_paths([str(src)])
    return TimedAnalysis(result, time.perf_counter() - started)
