"""Observability for the simulation substrate (event queue + tracer).

Queue compaction and the tracer dispatch cache are outcome-invisible by
construction, so — exactly as with the crypto caches — the interesting
signal is *how the work was done*: queue backlog, compactions, and the
tracer's dispatch-cache shape.  This module surfaces both through
``repro.metrics`` so experiments and benchmarks can report substrate
efficacy next to delivery/overhead numbers.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

__all__ = [
    "scheduler_counters",
    "tracer_counters",
    "format_engine_report",
]


def scheduler_counters(sim: Simulator) -> Dict[str, int]:
    """Event-queue telemetry for one simulator: ``backlog`` (live +
    cancelled entries still queued), ``pending`` (live only),
    ``processed``, ``compactions``."""
    return sim.scheduler_stats()


def tracer_counters(tracer: Tracer) -> Dict[str, int]:
    """Dispatch fast-path telemetry: cached categories, subscriber and
    mute counts, bucketed vs global subscriptions, retained records."""
    return tracer.dispatch_stats()


def format_engine_report(sim: Simulator, tracer: Tracer) -> str:
    """A deterministic, human-readable substrate report."""
    sched = scheduler_counters(sim)
    trace = tracer_counters(tracer)
    lines = ["scheduler"]
    for key in sorted(sched):
        lines.append(f"  {key:<18} {sched[key]:>10}")
    lines.append("tracer")
    for key in sorted(trace):
        lines.append(f"  {key:<18} {trace[key]:>10}")
    return "\n".join(lines)
