"""Deterministic, seeded fault injection and channel impairment.

Two orthogonal fault axes, both pure functions of the master seed:

* **Channel loss models** (:mod:`repro.faults.loss`) — per-reception
  drop processes applied at the PHY reception boundary: independent
  Bernoulli loss, Gilbert–Elliott bursty two-state loss, and
  distance-dependent loss.  Each receiver owns its own derived RNG
  stream, so loss decisions on one node never perturb another's stream
  and runs stay byte-identical across ``--jobs`` pools.  With
  ``loss_model="none"`` (the default) the hook is absent entirely —
  the reception code path, RNG consumption, and trace output are
  *exactly* the pre-faults behaviour.
* **Node lifecycle faults** (:mod:`repro.faults.plan`) — a
  :class:`~repro.faults.plan.FaultPlan` of crash/recover/pause/churn
  events that takes nodes *genuinely* down (no tx, no rx, beacons stop,
  volatile MAC/router state lost) instead of the old teleport hack, and
  a :class:`~repro.faults.plan.FaultInjector` that applies the plan to
  a built scenario and accounts downtime.

Degradation is observed through
:class:`repro.metrics.faults.FaultMetrics`; the campaign spec
``examples/campaigns/faults_sweep.toml`` sweeps both axes into
Fig-1-style delivery-vs-impairment tables (``python -m repro.campaign
report``).
"""

from repro.faults.loss import (
    LOSS_MODELS,
    BernoulliLoss,
    DistanceLoss,
    GilbertElliottLoss,
    LossProcess,
    make_loss_process,
    validate_loss_model,
)
from repro.faults.plan import FaultEvent, FaultInjector, FaultPlan

__all__ = [
    "LOSS_MODELS",
    "BernoulliLoss",
    "DistanceLoss",
    "GilbertElliottLoss",
    "LossProcess",
    "make_loss_process",
    "validate_loss_model",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
]
