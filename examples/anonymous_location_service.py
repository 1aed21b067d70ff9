#!/usr/bin/env python3
"""ALS walkthrough: Algorithm 3.3 end to end, with real cryptography.

Builds a static field running the anonymous routing stack plus the
Anonymous Location Service.  Node A (the updater) pushes encrypted
location entries for its anticipated senders to its server grid; node B
(the requester) resolves A's location without revealing its own
identity to the server, relays, or eavesdroppers; the location server
itself stores only ciphertext it cannot read.

Run:  python examples/anonymous_location_service.py [--real-crypto]
"""

from __future__ import annotations

import argparse
import random

from repro.core import AgfwConfig, AgfwRouter
from repro.core.als import AlsAgent, AlsConfig
from repro.crypto import CertificateAuthority, KeyStore
from repro.geo import Grid, Position, Region
from repro.location import OracleLocationService
from repro.net import Node, RadioMedium, StaticMobility
from repro.sim import RngRegistry, Simulator, Tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--real-crypto", action="store_true",
                        help="run actual RSA instead of the calibrated cost model")
    parser.add_argument("--nodes", type=int, default=30)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    mode = "real" if args.real_crypto else "modeled"

    sim = Simulator()
    tracer = Tracer(keep=False)
    medium = RadioMedium(sim, tracer)
    region = Region.of_size(1500.0, 300.0)
    grid = Grid(region, 5, 1)
    rngs = RngRegistry(args.seed)
    oracle = OracleLocationService(sim)  # bootstrap only; ALS replaces it

    # A connected lattice with jitter so every grid cell is inhabited.
    rng = random.Random(args.seed)
    nodes = []
    for i in range(args.nodes):
        x = min((i % 10) * 150.0 + rng.uniform(0, 60), 1499.0)
        y = min((i // 10) * 100.0 + rng.uniform(0, 60), 299.0)
        node = Node(sim, i, medium, StaticMobility(Position(x, y)), rngs, tracer)
        node.attach_router(AgfwRouter(node, oracle, AgfwConfig(), tracer))
        nodes.append(node)
    oracle.register_all(nodes)

    if mode == "real":
        print("provisioning PKI (offline CA, per-node RSA-512 keys)...")
        ca = CertificateAuthority(rng=rngs.stream("ca"))
        stores = []
        for node in nodes:
            key, cert = ca.enroll(node.identity)
            stores.append(KeyStore(node.identity, key, cert))
        certs = [s.certificate for s in stores]
        for node, store in zip(nodes, stores):
            store.add_all(certs)
            node.keystore = store

    agents = [
        AlsAgent(node, node.router, grid, AlsConfig(update_interval=5.0), mode=mode)
        for node in nodes
    ]
    updater, requester = nodes[20], nodes[5]
    # The paper's limitation, explicit: A must anticipate its senders.
    agents[20].potential_senders = [requester.identity, nodes[7].identity]

    for node in nodes:
        node.start()
    for agent in agents:
        agent.start()
    sim.run(until=12.0)

    home = grid.home_cells(updater.identity, 1)[0]
    print(f"\nupdater  {updater.identity} at {updater.position}")
    print(f"server grid for {updater.identity}: cell {home} "
          f"(center {grid.center_of(home)})")
    holders = [a for a in agents if a.blobs]
    print(f"nodes currently acting as location servers: "
          f"{sorted(a.node.node_id for a in holders)}")
    sample = next(a for a in holders)
    print(f"what a server stores (node {sample.node.node_id}): "
          f"{len(sample.blobs)} ciphertext entries, e.g. "
          f"{next(iter(sample.blobs.values())).blob.wire_view()}")

    print(f"\nrequester {requester.identity} resolving {updater.identity} anonymously...")
    results = []
    sim.schedule(0.1, lambda: agents[5].lookup(requester, updater.identity, results.append))
    sim.run(until=20.0)
    if results and results[0] is not None:
        error = results[0].distance_to(updater.position)
        print(f"resolved location: {results[0]} (error {error:.1f} m)")
    else:
        print("lookup failed (try another seed / denser field)")

    total_msgs = sum(a.messages_sent for a in agents)
    total_bytes = sum(a.bytes_sent for a in agents)
    total_crypto = sum(a.crypto_ops for a in agents)
    print(f"\nservice totals: {total_msgs} messages, {total_bytes} bytes, "
          f"{total_crypto} crypto operations "
          f"({sum(a.crypto_time_charged for a in agents) * 1000:.0f} ms CPU charged)")


if __name__ == "__main__":
    main()
