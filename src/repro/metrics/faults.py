"""Observability for the fault-injection subsystem (:mod:`repro.faults`).

Channel impairments and node lifecycle faults are *inputs* to a run, so
— unlike the crypto caches or the scheduler — they are deliberately
outcome-**visible**: the whole point is to degrade delivery.  What this
module surfaces is the *dose*: how many receptions the channel ate, how
bursty the loss process was, how long nodes spent down, and how much the
protocols still delivered despite it all.  Experiments and benchmarks
print these next to delivery/overhead numbers so a Fig-1-style
robustness curve always states the impairment that produced it.

Counters live on a per-run :class:`FaultMetrics` instance owned by the
scenario (never module-level — the DET lint bans process-global mutable
state), threaded into every per-receiver loss process and the fault
injector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

__all__ = ["FaultMetrics"]

Number = Union[int, float]


@dataclass
class FaultMetrics:
    """Per-run fault-injection counters (one instance per scenario)."""

    # ------------------------------------------------- channel loss process
    loss_draws: int = 0
    """Receptions the loss process judged (one draw per deliverable
    reception at a live radio)."""

    drops_injected: int = 0
    """Draws that came up *lose* (includes receptions a collision had
    already corrupted — the channel state advances regardless)."""

    deliveries_suppressed: int = 0
    """Otherwise-successful receptions the impairment actually flipped
    to a loss — the observable damage."""

    bursts_completed: int = 0
    """Loss runs (>= 1 consecutive drops at one receiver) that ended."""

    burst_drops_total: int = 0
    """Total drops inside completed bursts (mean burst length =
    ``burst_drops_total / bursts_completed``)."""

    # ---------------------------------------------------- node lifecycle
    crashes: int = 0
    recoveries: int = 0

    downtime_s: float = 0.0
    """Total node-seconds spent down (closed at :meth:`finalize`)."""

    deliveries_during_downtime: int = 0
    """End-to-end deliveries that completed while at least one node was
    down — deliveries *despite* faults."""

    # ------------------------------------------------------------ queries
    @property
    def mean_burst_length(self) -> float:
        """Mean completed loss-burst length in receptions (0.0 if none)."""
        if not self.bursts_completed:
            return 0.0
        return self.burst_drops_total / self.bursts_completed

    @property
    def loss_fraction(self) -> float:
        """Fraction of judged receptions the channel dropped."""
        return self.drops_injected / self.loss_draws if self.loss_draws else 0.0

    def counters(self) -> Dict[str, Number]:
        """A flat, deterministic snapshot for results/JSON."""
        return {
            "loss_draws": self.loss_draws,
            "drops_injected": self.drops_injected,
            "deliveries_suppressed": self.deliveries_suppressed,
            "bursts_completed": self.bursts_completed,
            "burst_drops_total": self.burst_drops_total,
            "mean_burst_length": round(self.mean_burst_length, 6),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "downtime_s": round(self.downtime_s, 9),
            "deliveries_during_downtime": self.deliveries_during_downtime,
        }

