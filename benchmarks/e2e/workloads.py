"""The benchmark's four fixed scenarios.

Every field not listed keeps its ``ScenarioConfig`` default, which is the
paper's Section 5.1 model: 250 m range, random waypoint up to 20 m/s with
a 60 s pause, 30 CBR flows from 20 senders at 4 pps, 128 B payload.  The
seed is the only input that varies between runs.  Why each workload was
chosen is recorded in ``BENCHMARK.json`` and README.md.

Horizons are short so that one child process runs a scenario in about
2-4 s on a 2-core x86 box, and a 20 s measurement window holds several
repetitions whose median is reported.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["WORKLOADS", "QUICK_FACTOR", "config_kwargs"]

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fig1-gpsr-150": dict(protocol="gpsr", num_nodes=150, sim_time=6.0, traffic_start=(1.0, 3.0)),
    "fig1-agfw-150": dict(protocol="agfw", num_nodes=150, sim_time=10.0, traffic_start=(1.0, 3.0)),
    "cluster-2000-mobile": dict(
        protocol="agfw",
        num_nodes=2000,
        placement="clusters",
        num_clusters=24,
        width=24 * 70000.0,
        cluster_radius=400.0,
        flow_locality=900.0,
        num_flows=500,
        num_senders=500,
        rate_pps=4.0,
        traffic_start=(0.1, 0.2),
        pause_time=0.0,
        min_speed=5.0,
        sim_time=0.7,
    ),
    "aant-real-150": dict(
        protocol="agfw",
        num_nodes=150,
        aant_ring_size=5,
        real_crypto=True,
        sim_time=3.0,
        traffic_start=(0.5, 1.0),
    ),
}

#: ``--quick`` scales every horizon by this factor (self-tests only).
QUICK_FACTOR = 0.25


def config_kwargs(name: str, seed: int, quick: bool = False) -> Dict[str, Any]:
    """``ScenarioConfig`` keyword arguments for one workload and seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    kwargs = dict(WORKLOADS[name], seed=seed)
    if quick:
        kwargs["sim_time"] = kwargs["sim_time"] * QUICK_FACTOR
    return kwargs
