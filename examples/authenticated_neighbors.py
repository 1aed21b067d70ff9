#!/usr/bin/env python3
"""Authenticated ANT with real ring signatures, and a spoofing attacker.

Demonstrates Section 3.1.2: nodes ring-sign their hellos over k decoy
certificates, so neighbors verify "an authorized user sent this" while
the signer hides in a (k+1)-anonymity set.  A certificate-less attacker
who forges hellos with arbitrary pseudonyms — the attack motivating
authentication — is rejected by every verifier.

Run:  python examples/authenticated_neighbors.py [--ring-size 4]
"""

from __future__ import annotations

import argparse

from repro.core import AantConfig, AgfwConfig, AgfwRouter
from repro.core.aant import AantAuthenticator
from repro.core.agfw import AntHello
from repro.crypto import CertificateAuthority, KeyStore
from repro.geo import Position
from repro.location import OracleLocationService
from repro.net import BROADCAST, Node, RadioMedium, StaticMobility
from repro.sim import RngRegistry, Simulator, Tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ring-size", type=int, default=4, help="decoys per hello (k)")
    parser.add_argument("--nodes", type=int, default=5)
    args = parser.parse_args()

    sim = Simulator()
    tracer = Tracer()
    medium = RadioMedium(sim, tracer)
    rngs = RngRegistry(31)
    oracle = OracleLocationService(sim)

    print("enrolling nodes with the offline CA (RSA-512 keys)...")
    ca = CertificateAuthority(rng=rngs.stream("ca"))
    nodes, stores = [], []
    for i in range(args.nodes):
        node = Node(sim, i, medium, StaticMobility(Position(i * 150.0, 0.0)), rngs, tracer)
        key, cert = ca.enroll(node.identity)
        stores.append(KeyStore(node.identity, key, cert))
        nodes.append(node)
    certs = [s.certificate for s in stores]
    for node, store in zip(nodes, stores):
        store.add_all(certs)  # pre-fetched decoy certificates (paper Sec 4)
        node.keystore = store
    oracle.register_all(nodes)

    config = AgfwConfig(aant=AantConfig(ring_size=args.ring_size), crypto_mode="real")
    for node in nodes:
        authenticator = AantAuthenticator(
            config.aant, mode="real", keystore=node.keystore, ca=ca,
            rng=node.rng("aant"),
        )
        node.attach_router(
            AgfwRouter(node, oracle, config, tracer, authenticator=authenticator)
        )
        node.start()

    sim.run(until=4.0)
    victim = nodes[2].router
    print(f"\nafter 4 s of ring-signed beaconing, node-2's ANT holds "
          f"{len(victim.ant)} pseudonymous entries")
    hello = next(
        r.data["packet_obj"] for r in tracer.filter("phy.tx")
        if r.data["packet_kind"] == "agfw.hello"
    )
    view = hello.wire_view()
    print(f"a captured hello: pseudonym={view['pseudonym']} loc={view['location']}")
    print(f"its ring (the k+1 anonymity set): {view['auth']['ring_subjects']}")
    print("any of these identities could have sent it; the signature does not say.")

    # --- the spoofing attacker ------------------------------------------
    print("\nattacker (no certificate) floods forged hellos...")
    attacker = Node(sim, 99, medium, StaticMobility(Position(300.0, 10.0)), rngs, tracer)

    def flood() -> None:
        forged = AntHello(
            pseudonym=b"\xde\xad\xbe\xef\x00\x01",
            position=Position(300.0, 10.0),
            timestamp=sim.now,
            auth=None,  # it cannot produce a valid ring signature
            uid=attacker.next_packet_uid(),
        )
        attacker.mac.send(forged, BROADCAST)

    for i in range(10):
        sim.schedule(0.2 * i, flood)
    sim.run(until=7.0)

    rejected = sum(n.router.stats.drops_auth for n in nodes)
    poisoned = sum(
        1 for n in nodes if b"\xde\xad\xbe\xef\x00\x01" in n.router.ant
    )
    print(f"forged hellos rejected by verifiers: {rejected}")
    print(f"neighbor tables poisoned: {poisoned} (must be 0)")
    assert poisoned == 0


if __name__ == "__main__":
    main()
