"""Channel-loss models: unit behaviour, accounting, and end-to-end wiring.

The end-to-end tests double as the regression suite for the ACK-dedupe
bug under *injected* loss: a deaf sender forces retransmissions, the
receiver re-requests the same ACK reference, and the reference must be
carried once per flush window — not once per data copy.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.config import AgfwConfig
from repro.faults import (
    LOSS_MODELS,
    BernoulliLoss,
    DistanceLoss,
    GilbertElliottLoss,
    LossProcess,
    make_loss_process,
    validate_loss_model,
)
from repro.metrics.faults import FaultMetrics, format_faults_report
from tests.conftest import build_static_net, line_positions


def _metrics() -> FaultMetrics:
    return FaultMetrics()


# ------------------------------------------------------------------ bernoulli
def test_bernoulli_rate_zero_never_drops():
    process = BernoulliLoss(random.Random(1), _metrics(), rate=0.0)
    assert not any(process.should_drop(100.0) for _ in range(500))


def test_bernoulli_rate_matches_long_run_average():
    metrics = _metrics()
    process = BernoulliLoss(random.Random(7), metrics, rate=0.3)
    for _ in range(4000):
        process.should_drop(100.0)
    assert metrics.loss_draws == 4000
    assert metrics.loss_fraction == pytest.approx(0.3, abs=0.03)


def test_bernoulli_rejects_bad_rate():
    with pytest.raises(ValueError):
        BernoulliLoss(random.Random(1), _metrics(), rate=1.0)
    with pytest.raises(ValueError):
        BernoulliLoss(random.Random(1), _metrics(), rate=-0.1)


# -------------------------------------------------------------------- gilbert
def test_gilbert_matches_rate_but_bursts():
    metrics = _metrics()
    process = GilbertElliottLoss(random.Random(3), metrics, rate=0.2, burst_length=8.0)
    for _ in range(20000):
        process.should_drop(100.0)
    # Long-run loss matches the Bernoulli dose ...
    assert metrics.loss_fraction == pytest.approx(0.2, abs=0.03)
    # ... but arrives in bursts near the configured dwell time.
    assert metrics.mean_burst_length == pytest.approx(8.0, rel=0.25)


def test_gilbert_rate_zero_stays_good():
    process = GilbertElliottLoss(random.Random(5), _metrics(), rate=0.0)
    assert not any(process.should_drop(50.0) for _ in range(500))


def test_gilbert_validation():
    with pytest.raises(ValueError):
        GilbertElliottLoss(random.Random(1), _metrics(), rate=0.2, burst_length=0.5)
    with pytest.raises(ValueError):
        GilbertElliottLoss(random.Random(1), _metrics(), rate=0.2, loss_bad=1.5)


# ------------------------------------------------------------------- distance
def test_distance_loss_zero_at_origin_and_rate_at_edge():
    metrics = _metrics()
    process = DistanceLoss(random.Random(9), metrics, rate=0.5, radio_range=250.0)
    assert not any(process.should_drop(0.0) for _ in range(200))
    edge_drops = sum(process.should_drop(250.0) for _ in range(4000))
    assert edge_drops / 4000 == pytest.approx(0.5, abs=0.05)


def test_distance_loss_monotone_in_distance():
    # Same stream, fixed draws: closer receptions can only drop less often.
    def drops_at(d: float) -> int:
        process = DistanceLoss(random.Random(11), _metrics(), rate=0.8, radio_range=250.0)
        return sum(process.should_drop(d) for _ in range(2000))

    assert drops_at(60.0) < drops_at(150.0) < drops_at(250.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_loss_shape_parameters_reject_out_of_domain_values(value):
    """A NaN bound check is always False, so each parameter is checked as
    one chained comparison that NaN and inf both fail."""
    with pytest.raises(ValueError, match="burst_length must be >= 1 and finite"):
        GilbertElliottLoss(random.Random(1), _metrics(), rate=0.2, burst_length=value)
    with pytest.raises(ValueError, match="exponent must be positive and finite"):
        DistanceLoss(random.Random(1), _metrics(), rate=0.2, radio_range=250.0, exponent=value)
    with pytest.raises(ValueError, match="radio_range must be positive and finite"):
        DistanceLoss(random.Random(1), _metrics(), rate=0.2, radio_range=value)


# ------------------------------------------------------------------ accounting
def test_burst_accounting_counts_streaks():
    class _Scripted(LossProcess):
        def __init__(self, pattern):
            super().__init__(random.Random(0), _metrics())
            self._pattern = iter(pattern)

        def _draw(self, distance):
            return next(self._pattern)

    process = _Scripted([True, True, False, True, False, False])
    for _ in range(6):
        process.should_drop(10.0)
    m = process.metrics
    assert m.drops_injected == 3
    assert m.bursts_completed == 2
    assert m.burst_drops_total == 3
    assert m.mean_burst_length == pytest.approx(1.5)
    report = format_faults_report(m)
    assert "drops" in report


# --------------------------------------------------------------------- factory
def test_make_loss_process_none_returns_none():
    assert (
        make_loss_process("none", 0.0, {}, random.Random(1), _metrics(), 250.0) is None
    )


def test_make_loss_process_rejects_unknown_model_and_params():
    with pytest.raises(ValueError):
        validate_loss_model("rayleigh")
    with pytest.raises(ValueError):
        make_loss_process("bernoulli", 0.1, {"exponent": 2}, random.Random(1), _metrics(), 250.0)
    with pytest.raises(ValueError):
        make_loss_process("gilbert", 0.1, {"typo": 1}, random.Random(1), _metrics(), 250.0)


def test_make_loss_process_builds_each_model():
    for model, cls in (
        ("bernoulli", BernoulliLoss),
        ("gilbert", GilbertElliottLoss),
        ("distance", DistanceLoss),
    ):
        process = make_loss_process(model, 0.2, {}, random.Random(1), _metrics(), 250.0)
        assert isinstance(process, cls)
    assert LOSS_MODELS == ("none", "bernoulli", "gilbert", "distance")


# ---------------------------------------------------- end-to-end (PHY wiring)
def test_loss_process_drops_count_at_phy():
    """With a lossy channel the receiver's PHY suppresses deliveries and
    the metrics ledger sees every draw."""
    net = build_static_net(
        line_positions(2), protocol="gpsr", loss_model="bernoulli", loss_rate=0.5
    )
    net.sim.run(until=5.0)
    m = net.fault_metrics
    assert m is not None
    assert m.loss_draws > 0
    assert m.drops_injected > 0
    assert net.nodes[0].phy.frames_impaired + net.nodes[1].phy.frames_impaired > 0


def test_lossless_models_leave_no_counters():
    net = build_static_net(line_positions(2), protocol="gpsr")
    net.sim.run(until=2.0)
    assert net.fault_metrics is None  # "none" builds no machinery at all


class _DeafWindow(LossProcess):
    """Scripted impairment: the receiver hears nothing inside [t0, t1)."""

    def __init__(self, sim, metrics, t0: float, t1: float) -> None:
        super().__init__(random.Random(0), metrics)
        self.sim = sim
        self.t0 = t0
        self.t1 = t1

    def _draw(self, distance: float) -> bool:
        return self.t0 <= self.sim.now < self.t1


def test_ack_dedupe_regression_under_injected_loss():
    """Regression (end-to-end) for the queue_ack dedupe bug.

    The sender goes deaf right as it forwards, so its NL-ACKs are lost
    and it retransmits on a tight timeout.  Each retransmitted copy
    re-requests the same ACK reference at the receiver; duplicates
    landing inside one flush window must be carried once (dedupe), and
    copies arriving after a drain must earn a fresh ACK (re-queue) so
    the transfer still completes once the window lifts.
    """
    net = build_static_net(
        line_positions(2),
        protocol="agfw",
        agfw_config=AgfwConfig(ack_timeout=0.001, max_retransmissions=8),
    )
    net.sim.run(until=3.0)  # neighbor state warm
    metrics = FaultMetrics()
    net.nodes[0].phy.set_loss_process(_DeafWindow(net.sim, metrics, 3.0, 3.05))
    net.nodes[0].router.send_data("node-1", 64)
    net.sim.run(until=6.0)
    sender = net.nodes[0].router.acks
    receiver = net.nodes[1].router.acks
    assert sender.retransmissions > 0  # the deaf window was noticed
    assert receiver.acks_deduped > 0  # dup refs collapsed within a window
    assert sender.acks_matched > 0  # and the post-window ACK got through
    assert [d[0] for d in net.deliveries()] == [1]  # delivered exactly once
