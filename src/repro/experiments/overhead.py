"""Overhead experiments: the byte/CPU cost of anonymity.

Two analyses from the paper's Sections 4 and 5:

* **AANT overhead** — "the larger the set of ambiguous signers, the
  stronger the anonymity, but with more certificates to transmit."
  :func:`aant_overhead_table` computes hello wire sizes versus ring size
  k, for both certificate-attachment and serial-number modes, from the
  calibrated cost model (and can cross-check against real ring-signature
  byte sizes).
* **ALS vs DLM** — "the performance is expected to be similar to the
  original location service ... one might also expect it to elegantly
  degrade a bit."  :func:`run_location_service_comparison` runs the same
  update/query workload over both services on the same static topology
  and reports message counts, bytes, success rates, and crypto ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.agfw import AgfwRouter
from repro.core.als import AlsAgent, AlsConfig
from repro.core.config import AgfwConfig
from repro.crypto.timing import DEFAULT_COST_MODEL, CryptoCostModel
from repro.geo.grid import Grid
from repro.geo.region import Region
from repro.location.dlm import DlmAgent, DlmConfig
from repro.location.service import OracleLocationService
from repro.net.medium import RadioMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node
from repro.routing.gpsr import GpsrConfig, GpsrRouter
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

__all__ = [
    "AantOverheadRow",
    "aant_overhead_table",
    "format_aant_overhead",
    "LocationServiceReport",
    "run_location_service_comparison",
    "format_location_service_comparison",
]

_PLAIN_HELLO_BYTES = 46  # AntHello header without any auth attachment


@dataclass(frozen=True)
class AantOverheadRow:
    """Hello cost at one ring size."""

    ring_size: int  # k decoys (anonymity set is k+1)
    hello_bytes_with_certs: int
    hello_bytes_with_serials: int
    sign_cost_ms: float
    verify_cost_ms: float


def aant_overhead_table(
    ring_sizes: Sequence[int] = (1, 2, 4, 8, 12, 16),
    cost_model: CryptoCostModel = DEFAULT_COST_MODEL,
) -> List[AantOverheadRow]:
    """Hello wire size and crypto cost as a function of ring size k."""
    rows: List[AantOverheadRow] = []
    for k in ring_sizes:
        members = k + 1
        rows.append(
            AantOverheadRow(
                ring_size=k,
                hello_bytes_with_certs=_PLAIN_HELLO_BYTES
                + cost_model.aant_hello_extra_bytes(members, attach_certificates=True),
                hello_bytes_with_serials=_PLAIN_HELLO_BYTES
                + cost_model.aant_hello_extra_bytes(members, attach_certificates=False),
                sign_cost_ms=cost_model.ring_sign_cost(members) * 1000,
                verify_cost_ms=cost_model.ring_verify_cost(members) * 1000,
            )
        )
    return rows


def format_aant_overhead(rows: Sequence[AantOverheadRow]) -> str:
    lines = [
        "AANT hello overhead vs ring size (anonymity set = k+1)",
        f"{'k':>4}  {'bytes (certs)':>14}  {'bytes (serials)':>16}  "
        f"{'sign ms':>8}  {'verify ms':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row.ring_size:>4}  {row.hello_bytes_with_certs:>14}  "
            f"{row.hello_bytes_with_serials:>16}  {row.sign_cost_ms:>8.2f}  "
            f"{row.verify_cost_ms:>10.2f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- ALS
@dataclass(frozen=True)
class LocationServiceReport:
    """One service's cost/effectiveness on the shared workload."""

    service: str
    lookups: int
    lookups_answered: int
    messages: int
    bytes: int
    crypto_ops: int
    crypto_time_ms: float


def _build_static_network(
    num_nodes: int, seed: int, protocol: str
) -> tuple[Simulator, List[Node], Grid, Tracer]:
    """A connected static field for service-layer comparisons."""
    sim = Simulator()
    tracer = Tracer(keep=False)
    medium = RadioMedium(sim, tracer)
    region = Region.of_size(1500.0, 300.0)
    grid = Grid.with_cell_size(region, 300.0)
    rngs = RngRegistry(seed)
    placement = rngs.stream("placement")
    nodes: List[Node] = []
    oracle = OracleLocationService(sim)
    for node_id in range(num_nodes):
        node = Node(
            sim, node_id, medium, StaticMobility(region.random_position(placement)),
            rngs, tracer,
        )
        if protocol == "gpsr":
            node.attach_router(GpsrRouter(node, oracle, GpsrConfig(), tracer))
        else:
            node.attach_router(AgfwRouter(node, oracle, AgfwConfig(), tracer))
        nodes.append(node)
    oracle.register_all(nodes)
    return sim, nodes, grid, tracer


def _run_service_point(
    service_name: str,
    num_nodes: int,
    seed: int,
    num_lookups: int,
    warmup: float,
    include_index: bool,
    senders_per_node: Optional[int],
) -> LocationServiceReport:
    """One service's run of the shared lookup workload, on a
    Simulator/network of its own built from the arguments."""
    sim, nodes, grid, _tracer = _build_static_network(
        num_nodes, seed, protocol="gpsr" if service_name == "dlm" else "agfw"
    )
    rng = random.Random(seed + 1)
    pair_rng = random.Random(seed + 2)
    pairs = []
    for _ in range(num_lookups):
        a, b = pair_rng.sample(range(num_nodes), 2)
        pairs.append((a, b))
    agents = []
    for index, node in enumerate(nodes):
        if service_name == "dlm":
            agent = DlmAgent(node, node.router, grid, DlmConfig())
        else:
            agent = AlsAgent(
                node, node.router, grid, AlsConfig(include_index=include_index)
            )
            others = [n.identity for n in nodes if n.identity != node.identity]
            if senders_per_node is None:
                anticipated = others
            else:
                anticipated = rng.sample(others, min(senders_per_node, len(others)))
                # Lookups must be answerable: anticipate the requesters
                # that will actually query this node.
                for requester, target in pairs:
                    if target == index:
                        requester_id = nodes[requester].identity
                        if requester_id not in anticipated:
                            anticipated.append(requester_id)
            agent.potential_senders = anticipated
        agents.append(agent)
    for node in nodes:
        node.start()
    for agent in agents:
        agent.start()

    answered = {"n": 0}

    def _schedule_lookups() -> None:
        for offset, (a, b) in enumerate(pairs):
            requester = nodes[a]
            target = nodes[b]

            def _go(requester=requester, target=target) -> None:
                def _done(position) -> None:
                    if position is not None:
                        answered["n"] += 1

                requester.router.location_service.lookup(  # type: ignore[union-attr]
                    requester, target.identity, _done
                )

            sim.schedule(warmup + offset * 0.5, _go, name="exp.lookup")

    _schedule_lookups()
    sim.run(until=warmup + num_lookups * 0.5 + 10.0)

    return LocationServiceReport(
        service=service_name,
        lookups=num_lookups,
        lookups_answered=answered["n"],
        messages=sum(a.messages_sent for a in agents),
        bytes=sum(a.bytes_sent for a in agents),
        crypto_ops=sum(a.crypto_ops for a in agents),
        crypto_time_ms=sum(a.crypto_time_charged for a in agents) * 1000,
    )


def run_location_service_comparison(
    num_nodes: int = 60,
    seed: int = 11,
    num_lookups: int = 20,
    warmup: float = 15.0,
    include_index: bool = True,
    senders_per_node: Optional[int] = None,
) -> List[LocationServiceReport]:
    """The same lookup workload over DLM (cleartext) and ALS (anonymous).

    Both run over a dense static field so service behaviour, not routing
    luck, dominates.  ``senders_per_node`` bounds how many potential
    requesters each ALS updater anticipates (None = everyone, the paper's
    stated worst case for update overhead).  Lookup pairs are drawn so
    the anticipated-senders constraint is honoured.
    """
    return [
        _run_service_point(
            service_name, num_nodes, seed, num_lookups, warmup, include_index,
            senders_per_node,
        )
        for service_name in ("dlm", "als")
    ]


def format_location_service_comparison(reports: Sequence[LocationServiceReport]) -> str:
    lines = [
        "Location service overhead: DLM (cleartext) vs ALS (anonymous)",
        f"{'metric':<24}" + "".join(f"{r.service:>14}" for r in reports),
    ]

    def row(label: str, getter) -> str:
        return f"{label:<24}" + "".join(f"{getter(r):>14}" for r in reports)

    lines.append(row("lookups answered", lambda r: f"{r.lookups_answered}/{r.lookups}"))
    lines.append(row("service messages", lambda r: r.messages))
    lines.append(row("service bytes", lambda r: r.bytes))
    lines.append(row("crypto operations", lambda r: r.crypto_ops))
    lines.append(row("crypto time (ms)", lambda r: f"{r.crypto_time_ms:.1f}"))
    return "\n".join(lines)
