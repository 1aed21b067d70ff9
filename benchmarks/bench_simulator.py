"""Substrate performance benchmarks: event engine, medium, MAC.

Not a paper table — these track the simulator's own throughput so
regressions in the substrate (which every experiment pays for) are
visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from repro.geo.vec import Position
from repro.net.addresses import BROADCAST, MacAddress
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.phy import PhyRadio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


@dataclass
class _Payload(Packet):
    KIND = "payload"

    def header_bytes(self) -> int:
        return 20


@pytest.mark.benchmark(group="substrate")
def test_engine_event_throughput(benchmark):
    def run():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count

    assert benchmark(run) == 20_000


@pytest.mark.benchmark(group="substrate")
def test_engine_heap_churn(benchmark):
    def run():
        sim = Simulator()
        handles = [sim.schedule(float(i % 100) + 1.0, lambda: None) for i in range(5_000)]
        for handle in handles[::2]:
            handle.cancel()
        sim.run()
        return sim.processed_events

    assert benchmark(run) == 2_500


def _mesh(num_nodes: int):
    sim = Simulator()
    medium = RadioMedium(sim)
    rngs = RngRegistry(1)
    nodes = [
        Node(
            sim, i, medium,
            StaticMobility(Position((i % 10) * 140.0, (i // 10) * 140.0)),
            rngs,
        )
        for i in range(num_nodes)
    ]
    return sim, nodes


@pytest.mark.benchmark(group="substrate")
def test_broadcast_fanout_50_nodes(benchmark):
    def run():
        sim, nodes = _mesh(50)
        for i, node in enumerate(nodes):
            sim.schedule(0.001 * i, lambda n=node: n.mac.send(_Payload(payload_bytes=64), BROADCAST))
        sim.run(until=1.0)
        return sum(n.mac.stats.delivered_up for n in nodes)

    assert benchmark(run) > 0


def _phy_mesh(num_nodes: int, reference: bool):
    """A square static grid of bare radios, 250 m pitch (PHY only: no MAC,
    so the benchmark isolates the medium's per-frame fan-out cost)."""
    sim = Simulator()
    medium = RadioMedium(sim, reference=reference)
    side = math.ceil(math.sqrt(num_nodes))
    radios = [
        PhyRadio(
            sim, i, medium,
            StaticMobility(Position((i % side) * 250.0, (i // side) * 250.0)),
        )
        for i in range(num_nodes)
    ]
    return sim, medium, radios


# The acceptance benchmark for the spatial index: identical workload under
# both fan-out strategies.  bench_to_json.py derives the grid-vs-brute
# speedup from this pair and records it in BENCH_substrate.json.
@pytest.mark.benchmark(group="substrate")
@pytest.mark.parametrize("reference", [False, True], ids=["grid", "brute"])
def test_medium_fanout_150_nodes(benchmark, reference):
    # Mesh built once outside the timed region: both modes pay identical
    # construction cost, so the measurement isolates per-frame fan-out.
    sim, medium, radios = _phy_mesh(150, reference)
    frame = MacFrame(FrameKind.DATA, MacAddress(1), BROADCAST)

    def run():
        already_sent = medium.frames_sent
        for i in range(1_000):
            medium.transmit(radios[i % 150], frame, 1e-4)
            sim.run(until=sim.now + 2e-4)
        return medium.frames_sent - already_sent

    assert benchmark(run) == 1_000


@pytest.mark.benchmark(group="substrate")
def test_unicast_chain_throughput(benchmark):
    def run():
        sim, nodes = _mesh(2)
        done = []
        for i in range(40):  # below the 50-packet interface queue limit
            sim.schedule(
                0.0, lambda: nodes[0].mac.send(_Payload(payload_bytes=256), nodes[1].address, done.append)
            )
        sim.run(until=5.0)
        return sum(done)

    assert benchmark(run) == 40
