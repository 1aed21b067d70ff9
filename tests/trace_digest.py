"""Full-record trace digests of a fixed list of scenarios.

The determinism contract is that a trace is a pure function of the
config: every record's time, category, node and ``data`` fields.  This
module names the configs the run-time determinism check replays
(``tests/test_determinism.py``) and digests their traces: scenarios,
which locate destinations through the oracle, runs of the DLM and
ALS location services from :mod:`repro.experiments.overhead`, and one
ALS network in which every third node has opted out of privacy.  Run it as a
script to print the digests of the named configs, run in the order
given, as one JSON object::

    PYTHONPATH=src:. python -m tests.trace_digest agfw gpsr
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.experiments import overhead
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults import FaultPlan
from repro.sim.trace import Tracer
from tests.test_als_heterogeneous import _als_net

#: One location-service run: ``(service, num_nodes, seed, num_lookups,
#: warmup, include_index, senders_per_node)``, the arguments of
#: :func:`repro.experiments.overhead._run_service_point`.
ServiceRun = Tuple[str, int, int, int, float, bool, Optional[int]]

#: A run built here that returns its trace records (and results) itself.
RecordsRun = Callable[[], List[object]]

#: A 15-node arena whose nodes move from t = 0 and whose data flows from
#: t = 0.5 s: hellos or beacons, data and, with ACKs on, NL-ACKs are all
#: on the air within the 3 s horizon.
_ARENA = ScenarioConfig(
    protocol="agfw", num_nodes=15, width=800.0, height=300.0, sim_time=3.0,
    pause_time=0.0, traffic_start=(0.5, 1.5), num_flows=4, num_senders=4, seed=1,
)


def _als_mixed_records() -> List[object]:
    """The trace records of a 30-node ALS network in which every third
    node has switched privacy off (paper Sec. 4.3), then the lookup
    results.  One lookup is of a private target that anticipates its
    requester; the other five are of public targets, which only the
    plain fallback finds once the anonymous attempts time out.  Three of
    those are answered; the two whose requester sits in its target's
    server grid are not, as that requester consumes its own plain
    request and drops it."""
    net, _grid, agents = _als_net()
    rng = random.Random(5)
    identities = [node.identity for node in net.nodes]
    lookups = ((5, 20), (7, 9), (11, 3), (2, 21), (8, 12), (13, 15))
    for index, agent in enumerate(agents):
        if index % 3 == 0:
            agent.set_privacy(False)
        others = identities[:index] + identities[index + 1:]
        agent.potential_senders = rng.sample(others, 3) + [
            identities[a] for a, b in lookups if b == index
        ]
        agent.start()
    results: List[object] = []
    for offset, (a, b) in enumerate(lookups):
        net.sim.schedule_at(
            12.0 + offset * 0.5,
            lambda a=a, b=b: agents[a].lookup(
                net.nodes[a], identities[b], lambda pos: results.append((a, b, pos))
            ),
        )
    net.sim.run(until=40.0)
    return [*net.tracer.records, *results]


#: One config per protocol, authenticator, channel, network shape and
#: location service; each service run answers some of its lookups.
CONFIGS: Dict[str, Union[ScenarioConfig, ServiceRun, RecordsRun]] = {
    "gpsr": replace(_ARENA, protocol="gpsr"),
    "agfw": _ARENA,
    "agfw-noack": replace(_ARENA, protocol="agfw-noack"),
    "aant-ring": replace(_ARENA, aant_ring_size=3),
    "real-crypto": replace(_ARENA, real_crypto=True, aant_ring_size=2),
    "reference": replace(_ARENA, reference=True, seed=2),
    "loss": replace(_ARENA, loss_model="gilbert", loss_rate=0.3),
    "churn": replace(
        _ARENA, protocol="gpsr",
        fault_plan=FaultPlan.churn(range(6), sim_time=3.0, seed=4, mean_downtime=0.5),
    ),
    "clusters": replace(_ARENA, placement="clusters", num_clusters=3, cluster_radius=200.0),
    "teleports": replace(
        _ARENA, static=True, teleports=((1.0, 0, 700.0, 150.0), (2.0, 3, 50.0, 250.0)),
    ),
    "dlm": ("dlm", 20, 7, 6, 5.0, True, None),
    "als": ("als", 20, 7, 6, 5.0, True, 4),
    "als-noindex": ("als", 20, 5, 6, 5.0, False, 2),
    "als-mixed": _als_mixed_records,
}


def _service_records(task: ServiceRun) -> List[object]:
    """The trace records of one location-service run, then its report.

    The service harness builds a tracer that keeps nothing; for the
    length of the run it is handed one that keeps every record.
    """
    tracers: List[Tracer] = []

    def keeping_tracer(keep: bool = True) -> Tracer:
        tracers.append(Tracer(keep=True))
        return tracers[-1]

    overhead.Tracer = keeping_tracer  # type: ignore[assignment]
    try:
        report = overhead._run_service_point(*task)
    finally:
        overhead.Tracer = Tracer  # type: ignore[misc]
    (tracer,) = tracers
    return [*tracer.records, report]


def trace_digest(config: Union[ScenarioConfig, ServiceRun, RecordsRun]) -> str:
    """SHA-256 over the ``repr`` of every record ``config``'s run traces."""
    records: List[object]
    if isinstance(config, ScenarioConfig):
        scenario = Scenario(replace(config, keep_trace=True))
        scenario.run()
        records = list(scenario.tracer.records)
    elif callable(config):
        records = config()
    else:
        records = _service_records(config)
    assert records, "a traced run must retain records"
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def digests(names: Iterable[str]) -> Dict[str, str]:
    """The digest of each named config, run in the order given."""
    return {name: trace_digest(CONFIGS[name]) for name in names}


if __name__ == "__main__":
    print(json.dumps(digests(sys.argv[1:] or CONFIGS)))
