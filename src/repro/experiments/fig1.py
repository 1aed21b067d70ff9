"""Figure 1 harness: delivery fraction and latency vs node density.

The paper's evaluation (Section 5.2) plots, against the number of nodes
in the fixed 1500 x 300 m field:

* **Fig 1(a)** packet delivery fraction for GPSR-Greedy, AGFW (with
  network-layer ACK) and AGFW-noACK;
* **Fig 1(b)** mean end-to-end data latency for GPSR-Greedy and AGFW.

Expected shapes (what we validate, not absolute NS-2 numbers):
AGFW-ACK tracks GPSR-Greedy closely in (a) while AGFW-noACK is far below
and degrades with density; in (b) the schemes are comparable up to
moderate density (the paper calls out 112 nodes) with GPSR-Greedy's
latency rising steeply beyond it as RTS/CTS contention bites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.parallel import parallel_map
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults.plan import FaultPlan
from repro.sim.rng import derive_seed

__all__ = [
    "Fig1Point",
    "DEFAULT_NODE_COUNTS",
    "FIG1_SCHEMES",
    "run_fig1",
    "format_fig1a",
    "format_fig1b",
]

DEFAULT_NODE_COUNTS: Tuple[int, ...] = (50, 75, 100, 112, 130, 150)
FIG1_SCHEMES: Tuple[str, ...] = ("gpsr", "agfw", "agfw-noack")


@dataclass(frozen=True)
class Fig1Point:
    """One (scheme, density) measurement."""

    scheme: str
    num_nodes: int
    delivery_fraction: float
    mean_latency_ms: float
    sent: int
    delivered: int
    collisions: int


def _run_fig1_point(cfg: ScenarioConfig) -> Fig1Point:
    """Worker for one (scheme, density) cell — top-level so it pickles.

    Builds its own Simulator/RngRegistry from ``cfg`` (inside
    :func:`run_scenario`); shares nothing with sibling points.
    """
    result = run_scenario(cfg)
    return Fig1Point(
        scheme=cfg.protocol,
        num_nodes=cfg.num_nodes,
        delivery_fraction=result.delivery_fraction,
        mean_latency_ms=result.mean_latency * 1000.0,
        sent=result.sent,
        delivered=result.delivered,
        collisions=result.collisions,
    )


def run_fig1(
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    schemes: Sequence[str] = FIG1_SCHEMES,
    sim_time: float = 900.0,
    seed: int = 1,
    base: ScenarioConfig | None = None,
    jobs: int = 1,
    churn: Optional[Tuple[float, Optional[float]]] = None,
) -> List[Fig1Point]:
    """Run the full density sweep and return all points.

    ``sim_time`` scales the run length: benchmarks use short horizons
    (the traffic window shrinks proportionally), the full reproduction
    uses the paper's 900 s.  Each point gets a child seed derived from
    ``seed`` and its (scheme, count) label, so points are statistically
    independent and, crucially, *identical whether the sweep runs
    serially or fanned over ``jobs`` worker processes* — the point's
    whole random state is a pure function of its config.

    ``churn`` is ``(rate, mean_downtime)`` to run the whole sweep under
    seeded node churn (``mean_downtime=None`` defaults to a tenth of the
    run); each point gets its own :class:`~repro.faults.FaultPlan` from
    a child seed, so the default ``churn=None`` path is byte-identical
    to the pre-fault harness.
    """
    template = base if base is not None else ScenarioConfig()
    start_hi = min(30.0, max(3.0, sim_time / 10.0))
    downtime = None
    if churn is not None:
        downtime = churn[1] if churn[1] is not None else max(sim_time / 10.0, 0.5)
    configs = []
    for scheme in schemes:
        for count in node_counts:
            cfg = replace(
                template,
                protocol=scheme,
                num_nodes=count,
                sim_time=sim_time,
                seed=derive_seed(seed, f"fig1:{scheme}:{count}"),
                traffic_start=(1.0, start_hi),
            )
            if churn is not None:
                plan = FaultPlan.churn(
                    range(count),
                    sim_time=sim_time,
                    seed=derive_seed(seed, f"fig1:churn:{scheme}:{count}"),
                    rate=churn[0],
                    mean_downtime=downtime,
                )
                cfg = replace(cfg, fault_plan=plan)
            configs.append(cfg)
    return parallel_map(
        _run_fig1_point,
        configs,
        jobs=jobs,
        describe=lambda c: f"fig1:{c.protocol}:n={c.num_nodes}:seed={c.seed}",
    )


def _series(points: Iterable[Fig1Point]) -> Dict[str, Dict[int, Fig1Point]]:
    table: Dict[str, Dict[int, Fig1Point]] = {}
    for point in points:
        table.setdefault(point.scheme, {})[point.num_nodes] = point
    return table


def format_fig1a(points: Sequence[Fig1Point]) -> str:
    """The Fig 1(a) series as an aligned text table (one row per density)."""
    table = _series(points)
    schemes = [s for s in FIG1_SCHEMES if s in table]
    counts = sorted({p.num_nodes for p in points})
    header = "nodes  " + "  ".join(f"{s:>11}" for s in schemes)
    lines = [
        "Figure 1(a): packet delivery fraction vs node count",
        header,
    ]
    for count in counts:
        cells = []
        for scheme in schemes:
            point = table[scheme].get(count)
            cells.append(f"{point.delivery_fraction:11.3f}" if point else " " * 11)
        lines.append(f"{count:>5}  " + "  ".join(cells))
    return "\n".join(lines)


def format_fig1b(points: Sequence[Fig1Point]) -> str:
    """The Fig 1(b) series (latency, ms); AGFW-noACK omitted as in the paper."""
    table = _series(points)
    schemes = [s for s in ("gpsr", "agfw") if s in table]
    counts = sorted({p.num_nodes for p in points})
    header = "nodes  " + "  ".join(f"{s:>11}" for s in schemes)
    lines = [
        "Figure 1(b): end-to-end data latency (ms) vs node count",
        header,
    ]
    for count in counts:
        cells = []
        for scheme in schemes:
            point = table[scheme].get(count)
            cells.append(f"{point.mean_latency_ms:11.2f}" if point else " " * 11)
        lines.append(f"{count:>5}  " + "  ".join(cells))
    return "\n".join(lines)
