"""Fan-out reception: the PHY receives a whole fan-out in one loop, and
the MAC picks each frame's receive handler once.

* Scenario traces with :class:`~tests.conftest.ReferenceReception`,
  which hands each radio the transmission on its own and sends every
  clean deliverable reception through ``DcfMac.on_frame``, must digest
  equal to the fast path's on every scenario config of
  :mod:`tests.trace_digest`, for seeds 1–3.
* Each per-frame handler ``DcfMac.receiver_for`` picks must leave a MAC
  exactly as ``on_frame`` does, for every frame kind, for the addressee
  and a bystander, in every MAC state.
* ``RadioMedium.receptions`` counts the per-radio starts the reference
  makes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.geo.vec import Position
from repro.net.addresses import BROADCAST, MacAddress
from repro.net.mac.constants import DEFAULT_DOT11
from repro.net.mac.dcf import DcfMac, MacState
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from tests.conftest import reference_reception
from tests.trace_digest import CONFIGS, trace_digest

SCENARIOS = {name: c for name, c in CONFIGS.items() if isinstance(c, ScenarioConfig)}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reference_reception_traces_like_the_fan_out(name):
    for seed in (1, 2, 3):
        config = replace(SCENARIOS[name], seed=seed)
        fast = trace_digest(config)
        with reference_reception() as reception:
            reference = trace_digest(config)
        assert reception.starts > 0
        assert reference == fast, f"{name}, seed {seed}"


def test_receptions_count_the_reference_starts(reference_receiver):
    scenario = Scenario(SCENARIOS["agfw"])
    scenario.run()
    medium = scenario.medium
    assert medium.receptions == reference_receiver.starts > medium.frames_sent


# ------------------------------------------------------ per-frame handlers
@dataclass
class _Data(Packet):
    KIND = "data"

    def header_bytes(self) -> int:
        return 20


#: A station that is neither the MAC under test nor its peer.
_OTHER = MacAddress(77)


def _station(state: MacState):
    """A MAC (node 0, with peer node 1 at 100 m) driven into ``state``,
    with its trace, upcalls and completions recorded."""
    sim = Simulator()
    tracer = Tracer(keep=True)
    medium = RadioMedium(sim, tracer)
    rngs = RngRegistry(3)
    me, peer = (
        Node(sim, i, medium, StaticMobility(Position(100.0 * i, 0.0)), rngs, tracer)
        for i in range(2)
    )
    log: list = []
    me.mac.receive_callback = lambda packet, frame: log.append(("up", packet.uid, frame.uid))
    done = lambda ok: log.append(("done", ok))  # noqa: E731
    if state is MacState.CONTEND:
        me.mac.send(_Data(payload_bytes=64, uid=1), BROADCAST, done)
    elif state is not MacState.IDLE:
        me.mac.send(_Data(payload_bytes=64, uid=1), peer.address, done)
        while me.mac._state is not state:
            sim.run(max_events=1)
    assert me.mac._state is state
    return sim, tracer, me.mac, peer.mac, log


def _frame(kind: str, role: str, me: DcfMac, peer: DcfMac) -> MacFrame:
    dst = {"addressee": me.address, "bystander": _OTHER, "broadcast": BROADCAST}[role]
    params = DEFAULT_DOT11
    if kind == "rts":
        return MacFrame(FrameKind.RTS, peer.address, dst, nav=params.nav_for_rts(84), uid=900)
    if kind == "cts":
        return MacFrame(FrameKind.CTS, peer.address, dst, nav=params.nav_for_cts(84), uid=900)
    if kind == "cts-nav0":
        return MacFrame(FrameKind.CTS, peer.address, dst, nav=0.0, uid=900)
    if kind == "ack":
        return MacFrame(FrameKind.ACK, peer.address, dst, uid=900)
    packet = None if kind == "data-empty" else _Data(payload_bytes=32, uid=500)
    nav = 0.0 if role == "broadcast" else params.sifs + params.control_duration(params.ack_bytes)
    return MacFrame(FrameKind.DATA, peer.address, dst, packet=packet, nav=nav, uid=900)


def _snapshot(sim: Simulator, tracer: Tracer, mac: DcfMac, log: list) -> tuple:
    """Everything a reception can change at a MAC: state, NAV, timers,
    carrier level, counters, the events it scheduled (responses
    included), its trace and its upcalls."""
    timers = {
        name: None if timer is None else timer.cancelled
        for name, timer in (
            ("difs", mac._difs_timer), ("slot", mac._slot_timer),
            ("wait", mac._wait_timer), ("nav", mac._nav_timer),
        )
    }
    pending = sorted((e.time, e.priority, e.seq, e.name) for e in sim.iter_pending())
    return (
        mac._state, mac._nav_until, mac._cw, mac._op is None, mac.queue_length, timers,
        mac.phy.carrier_listen, vars(mac.stats).copy(), pending,
        [repr(r) for r in tracer.records], list(log),
    )


_CASES = [
    (kind, role)
    for kind in ("rts", "cts", "cts-nav0", "data", "ack")
    for role in ("addressee", "bystander")
] + [("data", "broadcast"), ("data-empty", "broadcast")]


@pytest.mark.parametrize("state", list(MacState), ids=lambda s: s.value)
@pytest.mark.parametrize("kind, role", _CASES, ids=[f"{k}-{r}" for k, r in _CASES])
def test_handler_leaves_the_mac_as_on_frame_does(kind, role, state):
    outcomes = []
    for via_handler in (True, False):
        sim, tracer, mac, peer, log = _station(state)
        frame = _frame(kind, role, mac, peer)
        if via_handler:
            receive = DcfMac.receiver_for(frame)
            if receive is not None:
                receive(mac, None)
        else:
            mac.on_frame(frame, None)
        after = _snapshot(sim, tracer, mac, log)
        sim.run(until=sim.now + 0.05)  # the scheduled responses go out
        outcomes.append((after, _snapshot(sim, tracer, mac, log)))
    assert outcomes[0] == outcomes[1]


def test_handler_table_reaches_every_effect():
    """The table is not vacuous: among its cases a reception sets a NAV,
    schedules a SIFS response and the data after a CTS, goes up, and
    completes a handshake."""
    effects = set()
    for kind, role in _CASES:
        for state in MacState:
            sim, _tracer, mac, peer, log = _station(state)
            nav = mac._nav_until
            pending = {e.seq for e in sim.iter_pending()}
            receive = DcfMac.receiver_for(_frame(kind, role, mac, peer))
            if receive is not None:
                receive(mac, None)
            if mac._nav_until > nav:
                effects.add("nav")
            effects.update(e.name for e in sim.iter_pending() if e.seq not in pending)
            effects.update(entry[0] for entry in log)
    assert {"nav", "mac.sifs_resp", "mac.sifs_data", "up", "done"} <= effects
