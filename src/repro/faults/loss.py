"""Seeded per-reception channel loss models.

The unit-disk medium loses frames only to collisions (hidden terminals,
half-duplex clashes), which are *deterministic* given the traffic
pattern.  Real channels also fade, shadow, and burst-error — the loss
regime the paper's NL-ACK machinery exists to survive.  These processes
model that regime at the PHY **reception boundary**: for every
deliverable reception at a live radio the receiver's loss process is
asked once, in event order, whether the channel ate the frame.

Determinism contract
--------------------
* Each receiver owns its own process with a per-purpose derived RNG
  stream (``rngs.fork("faults").stream(f"loss:{node_id}")``), so one
  node's draws never perturb another's and a run is a pure function of
  the master seed — byte-identical across ``--jobs`` pools.
* The draw happens for *every* deliverable reception, whether or not a
  collision had already corrupted it: the channel state (and the RNG
  stream position) is independent of interference outcomes, keeping the
  process a clean per-reception chain.
* ``"none"`` is represented by the *absence* of a process (``None`` at
  the radio), not a pass-through object: the pre-faults code path runs
  instruction-for-instruction unchanged and traces stay byte-identical
  to the un-impaired simulator.

Models
------
``bernoulli``
    Independent per-reception loss with probability ``rate``.
``gilbert``
    Gilbert–Elliott two-state chain: a *good* state losing
    ``loss_good`` (default 0) and a *bad* state losing ``loss_bad``
    (default 1), with the bad-state dwell time ``burst_length``
    receptions on average.  ``rate`` sets the stationary bad-state
    fraction, so the long-run average loss matches the Bernoulli model
    at the same rate while arriving in bursts.
``distance``
    Loss probability grows with the transmitter distance:
    ``rate * (d / radio_range) ** exponent`` (default exponent 4, the
    two-ray path-loss shape) — edge-of-range receptions are fragile,
    close ones near-lossless.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from repro.metrics.faults import FaultMetrics

__all__ = [
    "LOSS_MODELS",
    "LossProcess",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "DistanceLoss",
    "validate_loss_model",
    "make_loss_process",
]

LOSS_MODELS = ("none", "bernoulli", "gilbert", "distance")


def validate_loss_model(model: str) -> None:
    if model not in LOSS_MODELS:
        raise ValueError(f"loss_model must be one of {LOSS_MODELS}, got {model!r}")


class LossProcess:
    """Base class: one receiver's channel-loss state machine.

    Subclasses implement :meth:`_draw`; the base class does the shared
    burst/draw accounting so every model reports through the same
    :class:`~repro.metrics.faults.FaultMetrics` counters.
    """

    def __init__(self, rng: random.Random, metrics: FaultMetrics) -> None:
        self.rng = rng
        self.metrics = metrics
        self._streak = 0  # consecutive drops at this receiver

    def should_drop(self, distance: float) -> bool:
        """Judge one deliverable reception arriving from ``distance`` m."""
        drop = self._draw(distance)
        metrics = self.metrics
        metrics.loss_draws += 1
        if drop:
            metrics.drops_injected += 1
            self._streak += 1
        elif self._streak:
            metrics.bursts_completed += 1
            metrics.burst_drops_total += self._streak
            self._streak = 0
        return drop

    def _draw(self, distance: float) -> bool:
        raise NotImplementedError


class BernoulliLoss(LossProcess):
    """Independent per-reception loss with fixed probability."""

    def __init__(self, rng: random.Random, metrics: FaultMetrics, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"bernoulli rate must be in [0, 1), got {rate}")
        super().__init__(rng, metrics)
        self.rate = rate

    def _draw(self, distance: float) -> bool:
        return self.rng.random() < self.rate


class GilbertElliottLoss(LossProcess):
    """Two-state bursty loss (Gilbert–Elliott).

    Parameterized by the *observable* targets — the long-run loss
    ``rate`` and the mean bad-state dwell ``burst_length`` (receptions)
    — from which the transition probabilities follow:

    * ``p_bad_good = 1 / burst_length`` (geometric dwell),
    * stationary bad fraction ``pi_bad = rate`` (with ``loss_bad = 1``,
      ``loss_good = 0``), hence
      ``p_good_bad = p_bad_good * rate / (1 - rate)``.

    ``loss_good`` / ``loss_bad`` may be overridden through
    ``loss_params`` for partially lossy states.
    """

    def __init__(
        self,
        rng: random.Random,
        metrics: FaultMetrics,
        rate: float,
        burst_length: float = 8.0,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"gilbert rate must be in [0, 1), got {rate}")
        if not 1.0 <= burst_length < math.inf:
            raise ValueError(f"burst_length must be >= 1 and finite, got {burst_length}")
        if not 0.0 <= loss_good <= 1.0 or not 0.0 <= loss_bad <= 1.0:
            raise ValueError("loss_good / loss_bad must be probabilities")
        super().__init__(rng, metrics)
        self.rate = rate
        self.p_bad_good = 1.0 / burst_length
        self.p_good_bad = (
            self.p_bad_good * rate / (1.0 - rate) if rate > 0.0 else 0.0
        )
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._bad = False  # chains start in the good state

    def _draw(self, distance: float) -> bool:
        rng = self.rng
        # Advance the chain first, then judge the reception in the new
        # state: a freshly entered bad state eats the reception that
        # found it (the burst starts on arrival, not one frame late).
        if self._bad:
            if rng.random() < self.p_bad_good:
                self._bad = False
        elif rng.random() < self.p_good_bad:
            self._bad = True
        loss = self.loss_bad if self._bad else self.loss_good
        if loss <= 0.0:
            return False
        if loss >= 1.0:
            return True
        return rng.random() < loss


class DistanceLoss(LossProcess):
    """Distance-dependent loss: fragile at the radio-range edge.

    ``p(d) = rate * min(1, d / radio_range) ** exponent`` — at the very
    edge the loss probability equals ``rate``; at half range it is
    ``rate / 2**exponent`` (a sixteenth for the default exponent 4).
    """

    def __init__(
        self,
        rng: random.Random,
        metrics: FaultMetrics,
        rate: float,
        radio_range: float,
        exponent: float = 4.0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"distance rate must be in [0, 1], got {rate}")
        if not 0.0 < radio_range < math.inf:
            raise ValueError(f"radio_range must be positive and finite, got {radio_range}")
        if not 0.0 < exponent < math.inf:
            raise ValueError(f"exponent must be positive and finite, got {exponent}")
        super().__init__(rng, metrics)
        self.rate = rate
        self.radio_range = radio_range
        self.exponent = exponent

    def _draw(self, distance: float) -> bool:
        fraction = distance / self.radio_range
        if fraction > 1.0:
            fraction = 1.0
        probability = self.rate * fraction**self.exponent
        if probability <= 0.0:
            return False
        return self.rng.random() < probability


def make_loss_process(
    model: str,
    rate: float,
    params: Optional[Dict[str, float]],
    rng: random.Random,
    metrics: FaultMetrics,
    radio_range: float,
) -> Optional[LossProcess]:
    """Build one receiver's loss process (``None`` for ``"none"``).

    ``params`` carries the model-specific extras (``burst_length``,
    ``loss_good``/``loss_bad``, ``exponent``); unknown keys raise so a
    typo cannot silently run the default shape.
    """
    validate_loss_model(model)
    params = dict(params or {})

    def _take(allowed: tuple[str, ...]) -> Dict[str, float]:
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown loss_params for model {model!r}: {unknown} "
                f"(allowed: {sorted(allowed)})"
            )
        return params

    if model == "none":
        _take(())
        return None
    if model == "bernoulli":
        _take(())
        return BernoulliLoss(rng, metrics, rate)
    if model == "gilbert":
        kwargs = _take(("burst_length", "loss_good", "loss_bad"))
        return GilbertElliottLoss(rng, metrics, rate, **kwargs)
    # model == "distance" (validate_loss_model guarantees membership)
    kwargs = _take(("exponent",))
    return DistanceLoss(rng, metrics, rate, radio_range=radio_range, **kwargs)
