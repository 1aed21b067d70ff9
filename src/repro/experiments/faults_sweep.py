"""Fault sweep: Fig-1-style delivery-vs-impairment curves.

The paper's reliability claim (Sections 3.2 & 5, Fig 1) is that AGFW's
broadcast-only MAC plus network-layer ACK/retransmission matches 802.11
unicast delivery *under failure*.  The density sweep stresses that claim
with hidden-terminal collisions only; this sweep stresses it with the
two fault axes of :mod:`repro.faults`:

* **channel loss** — every receiver runs a seeded loss process
  (Bernoulli / Gilbert–Elliott / distance) at the PHY boundary;
* **node churn** — a seeded :class:`~repro.faults.FaultPlan` crashes and
  reboots nodes throughout the run.

Expected qualitative ordering (what the CI-facing tests assert): at
every dose AGFW-ACK ≫ AGFW-noACK, and at mild doses GPSR ≈ AGFW-ACK.
Under heavy impairment AGFW-ACK *overtakes* GPSR: 802.11 unicast gives
up after its bounded link-layer retry budget, while the network-layer
ACK machinery keeps retransmitting (and re-routing on give-up).  Either
way the conclusion is the same — the retransmission machinery, not the
MAC, is what survives impairment, and the noACK ablation loses packets
silently.

Every point runs under a child seed derived from its (axis, scheme,
label) cell, so the sweep is byte-identical whether it runs serially or
fanned over ``--jobs`` worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import parallel_map
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults.plan import FaultPlan
from repro.sim.rng import derive_seed

__all__ = [
    "FaultPoint",
    "FAULT_SCHEMES",
    "run_faults_sweep",
    "format_faults_sweep",
]

FAULT_SCHEMES: Tuple[str, ...] = ("gpsr", "agfw", "agfw-noack")

_Item = Tuple[str, str, ScenarioConfig]


@dataclass(frozen=True)
class FaultPoint:
    """One (scheme, impairment dose) measurement."""

    scheme: str
    axis: str  # "loss" | "churn"
    label: str  # human-readable dose, e.g. "bernoulli p=0.30"
    delivery_fraction: float
    mean_latency_ms: float
    sent: int
    delivered: int
    loss_fraction: float
    drops_injected: int
    crashes: int
    downtime_s: float
    deliveries_during_downtime: int


def _run_fault_point(item: _Item) -> FaultPoint:
    """Worker for one sweep cell — top-level so it pickles."""
    axis, label, cfg = item
    result = run_scenario(cfg)
    fc = result.fault_counters
    draws = fc.get("loss_draws", 0)
    return FaultPoint(
        scheme=cfg.protocol,
        axis=axis,
        label=label,
        delivery_fraction=result.delivery_fraction,
        mean_latency_ms=result.mean_latency * 1000.0,
        sent=result.sent,
        delivered=result.delivered,
        loss_fraction=(fc.get("drops_injected", 0) / draws) if draws else 0.0,
        drops_injected=int(fc.get("drops_injected", 0)),
        crashes=int(fc.get("crashes", 0)),
        downtime_s=float(fc.get("downtime_s", 0.0)),
        deliveries_during_downtime=int(fc.get("deliveries_during_downtime", 0)),
    )


def run_faults_sweep(
    loss_rates: Sequence[float] = (0.1, 0.3, 0.5),
    loss_model: str = "bernoulli",
    churn_rates: Sequence[float] = (1.0, 3.0),
    mean_downtime: Optional[float] = None,
    schemes: Sequence[str] = FAULT_SCHEMES,
    num_nodes: int = 50,
    sim_time: float = 20.0,
    seed: int = 1,
    jobs: int = 1,
    base: ScenarioConfig | None = None,
) -> List[FaultPoint]:
    """Run the loss axis and the churn axis for every scheme.

    ``loss_rates`` doses the channel (under ``loss_model``);
    ``churn_rates`` is the expected number of crashes per node over the
    run, with downtimes averaging ``mean_downtime`` seconds (default:
    ``sim_time / 10``).  Each cell gets a child seed derived from its
    label, so points are independent and identical under any ``jobs``.
    """
    template = base if base is not None else ScenarioConfig()
    downtime = mean_downtime if mean_downtime is not None else max(sim_time / 10.0, 0.5)
    start_hi = min(30.0, max(3.0, sim_time / 10.0))
    items: List[_Item] = []
    for scheme in schemes:
        for rate in loss_rates:
            label = f"{loss_model} p={rate:.2f}"
            items.append(
                (
                    "loss",
                    label,
                    replace(
                        template,
                        protocol=scheme,
                        num_nodes=num_nodes,
                        sim_time=sim_time,
                        seed=derive_seed(seed, f"faults:loss:{scheme}:{label}"),
                        traffic_start=(1.0, start_hi),
                        loss_model=loss_model,
                        loss_rate=rate,
                    ),
                )
            )
        for rate in churn_rates:
            label = f"churn r={rate:.1f}"
            point_seed = derive_seed(seed, f"faults:churn:{scheme}:{label}")
            plan = FaultPlan.churn(
                range(num_nodes),
                sim_time=sim_time,
                seed=point_seed,
                rate=rate,
                mean_downtime=downtime,
            )
            items.append(
                (
                    "churn",
                    label,
                    replace(
                        template,
                        protocol=scheme,
                        num_nodes=num_nodes,
                        sim_time=sim_time,
                        seed=point_seed,
                        traffic_start=(1.0, start_hi),
                        fault_plan=plan,
                    ),
                )
            )
    return parallel_map(
        _run_fault_point,
        items,
        jobs=jobs,
        describe=lambda it: f"faults:{it[0]}:{it[2].protocol}:{it[1]}:seed={it[2].seed}",
    )


def _series(points: Sequence[FaultPoint]) -> Dict[Tuple[str, str], Dict[str, FaultPoint]]:
    table: Dict[Tuple[str, str], Dict[str, FaultPoint]] = {}
    for point in points:
        table.setdefault((point.axis, point.label), {})[point.scheme] = point
    return table


def format_faults_sweep(points: Sequence[FaultPoint]) -> str:
    """Delivery fraction per impairment dose, one column per scheme,
    plus the measured dose (so every curve states what produced it)."""
    table = _series(points)
    schemes = [s for s in FAULT_SCHEMES if any(s in row for row in table.values())]
    header = f"{'impairment':<18}" + "".join(f"{s:>12}" for s in schemes) + "   dose"
    lines = ["Robustness: packet delivery fraction vs impairment", header]
    seen: List[Tuple[str, str]] = []
    for point in points:  # preserve sweep order, one row per dose
        key = (point.axis, point.label)
        if key in seen:
            continue
        seen.append(key)
        row = table[key]
        cells = "".join(
            f"{row[s].delivery_fraction:12.3f}" if s in row else " " * 12
            for s in schemes
        )
        sample = next(iter(row.values()))
        if point.axis == "loss":
            dose = f"loss={sample.loss_fraction:.3f} ({sample.drops_injected} drops)"
        else:
            dose = f"crashes={sample.crashes} down={sample.downtime_s:.1f}s"
        lines.append(f"{point.label:<18}{cells}   {dose}")
    return "\n".join(lines)
