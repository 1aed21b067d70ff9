"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so every run starts with
cold process-wide crypto caches and has its own peak RSS::

    python3 benchmarks/e2e/child.py <workload> <seed> <quick 0|1> <trace 0|1>

It prints one JSON object on stdout.  With trace 1 the layer boundaries
are wrapped (see ``ledger.py``) before the scenario is built, and the
object carries the set-up and run ledgers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
from typing import Any, Dict

from benchmarks.e2e.ledger import Ledger, calibrate, install
from benchmarks.e2e.workloads import config_kwargs


def outcome_digest(result) -> str:
    """sha256 over the run's simulated outcome (never over timings)."""
    latency = result.latency
    outcome = {
        "sent": result.sent,
        "delivered": result.delivered,
        "frames_on_air": result.frames_on_air,
        "collisions": result.collisions,
        "latency": None if latency is None else dataclasses.asdict(latency),
        "router": dataclasses.asdict(result.router_totals),
        "bytes_by_kind": result.bytes_by_kind,
    }
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def layer_counters(scenario, result) -> Dict[str, int]:
    """Deterministic per-layer work counts read off the finished scenario."""
    from repro.metrics import crypto_cache_counters

    macs = [node.mac.stats for node in scenario.nodes]
    phys = [node.phy for node in scenario.nodes]
    router = result.router_totals
    caches = crypto_cache_counters().values()
    return {
        "events": scenario.sim.processed_events,
        "mac_retries": sum(s.retries for s in macs),
        "mac_drops": sum(s.retry_drops + s.queue_drops for s in macs),
        "mac_delivered_up": sum(s.delivered_up for s in macs),
        "phy_delivered": sum(p.frames_delivered for p in phys),
        "phy_collided": sum(p.frames_collided for p in phys),
        "transmits": result.frames_on_air,
        "rebins": scenario.medium.index_stats()["rebins"],
        "forwarded": router.forwarded,
        "route_drops": (
            router.drops_deadend + router.drops_ttl + router.drops_mac
            + router.drops_no_location + router.drops_auth
        ),
        "cache_hits": sum(c["hits"] for c in caches),
        "cache_misses": sum(c["misses"] for c in caches),
    }


def main(argv) -> int:
    name, seed, quick, trace = argv[1], int(argv[2]), argv[3] == "1", argv[4] == "1"
    from repro.experiments import Scenario, ScenarioConfig

    config = ScenarioConfig(**config_kwargs(name, seed, quick))
    ledger, cal = None, None
    if trace:
        cal = calibrate()
        ledger = Ledger()
        install(ledger)

    start = time.perf_counter()
    scenario = Scenario(config)
    setup_s = time.perf_counter() - start
    record: Dict[str, Any] = {"setup_s": setup_s}
    if ledger is not None:
        record["calibration"] = cal._asdict()
        record["setup_ledger"] = ledger.report(setup_s, cal)
        ledger.reset()

    start = time.perf_counter()
    result = scenario.run()
    run_s = time.perf_counter() - start
    if ledger is not None:
        record["ledger"] = ledger.report(run_s, cal)

    record.update(
        run_s=run_s,
        events=scenario.sim.processed_events,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=outcome_digest(result),
        sent=result.sent,
        delivered=result.delivered,
        originated=result.router_totals.originated,
        delivery_fraction=result.delivery_fraction,
        mean_latency_s=result.mean_latency,
        counters=layer_counters(scenario, result),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
