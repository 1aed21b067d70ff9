"""Frame/reception pooling: generation semantics + trace equivalence.

Pooling is only admissible because it is *outcome-invisible*: each
acquire draws exactly one uid from the same module counter as direct
construction, so the trace-visible uid sequence — and therefore every
trace byte — is identical with the pool off, on, or cross.  ``cross``
additionally scrubs payload fields at release and verifies the scrub at
the next acquire, turning any write-after-free into a loud
:class:`PoolCoherenceError` inside the run itself.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.net.addresses import BROADCAST, MacAddress
from repro.net.mac.frames import FrameKind, MacFrame
from repro.net.pool import (
    POOL_MODES,
    FramePool,
    PoolCoherenceError,
    Reception,
    validate_pool_mode,
)


# ------------------------------------------------------------ unit level
def test_pool_mode_validation():
    for mode in POOL_MODES:
        assert validate_pool_mode(mode) == mode
    with pytest.raises(ValueError):
        validate_pool_mode("maybe")
    with pytest.raises(ValueError):
        FramePool("off")  # off means *no pool object at all*
    with pytest.raises(ValueError):
        ScenarioConfig(pool_mode="maybe")


def test_acquire_draws_one_uid_fresh_and_recycled():
    """The uid sequence must be indistinguishable from direct
    construction: one draw per acquire, recycled or not."""
    pool = FramePool("on")
    first = pool.acquire_frame(FrameKind.DATA, MacAddress(1), BROADCAST)
    probe = MacFrame(FrameKind.DATA, MacAddress(1), BROADCAST)
    assert probe.uid == first.uid + 1  # same counter, consecutive draws
    pool.release_frame(first)
    recycled = pool.acquire_frame(FrameKind.ACK, MacAddress(2), MacAddress(1))
    assert recycled is first  # the free list actually recycled it
    assert recycled.uid == probe.uid + 1  # and still drew exactly one uid
    assert recycled.kind is FrameKind.ACK
    assert pool.stats()["frames_reused"] == 1


def test_generation_positive_live_negative_free():
    pool = FramePool("on")
    frame = pool.acquire_frame(FrameKind.RTS, MacAddress(1), MacAddress(2))
    live_gen = frame.generation
    assert live_gen > 0
    pool.release_frame(frame)
    assert frame.generation == -live_gen
    again = pool.acquire_frame(FrameKind.RTS, MacAddress(1), MacAddress(2))
    assert again.generation > live_gen  # monotone counter, restamped


def test_double_release_raises_in_every_mode():
    for mode in ("on", "cross"):
        pool = FramePool(mode)
        frame = pool.acquire_frame(FrameKind.DATA, MacAddress(1), BROADCAST)
        pool.release_frame(frame)
        with pytest.raises(PoolCoherenceError):
            pool.release_frame(frame)


def test_donated_frame_release_is_accepted():
    """Frames constructed directly (generation 0) may enter the pool;
    the release stamps them freed so a double release still raises."""
    pool = FramePool("on")
    donated = MacFrame(FrameKind.ACK, MacAddress(1), MacAddress(2))
    assert donated.generation == 0
    pool.release_frame(donated)
    assert donated.generation == -1
    with pytest.raises(PoolCoherenceError):
        pool.release_frame(donated)


def test_cross_mode_detects_write_after_free():
    pool = FramePool("cross")
    frame = pool.acquire_frame(FrameKind.DATA, MacAddress(1), BROADCAST)
    pool.release_frame(frame)
    frame.nav = 123.0  # the bug class cross mode exists to catch
    with pytest.raises(PoolCoherenceError):
        pool.acquire_frame(FrameKind.DATA, MacAddress(1), BROADCAST)


def test_cross_mode_reception_scrub_roundtrip():
    pool = FramePool("cross")
    rec = pool.acquire_reception(object(), 42.0, True)
    assert rec.generation > 0
    pool.release_reception(rec)
    assert rec.tx is None and rec.distance == 0.0 and rec.corrupted is False
    with pytest.raises(PoolCoherenceError):
        pool.release_reception(rec)
    rec2 = pool.acquire_reception(object(), 7.0, False)
    assert rec2 is rec  # recycled through the scrub check
    assert pool.stats()["recs_reused"] == 1


def test_reception_defaults():
    rec = Reception()
    assert rec.tx is None and rec.distance == 0.0
    assert rec.corrupted is False and rec.generation == 0


# ------------------------------------------------------- scenario level
def _fingerprint(pool_mode: str, seed: int) -> list:
    scenario = Scenario(
        ScenarioConfig(
            protocol="agfw",
            num_nodes=14,
            sim_time=5.0,
            traffic_start=(0.5, 1.5),
            num_flows=5,
            num_senders=4,
            seed=seed,
            static=False,
            pause_time=0.0,
            min_speed=5.0,
            keep_trace=True,
            # The brute scan keeps the PHY's own distance recompute on
            # the pooled path.
            medium_index="brute",
            pool_mode=pool_mode,
        )
    )
    result = scenario.run()
    records = [(repr(r.time), r.category, r.node) for r in scenario.tracer.records]
    assert records, "keep_trace scenario must retain records"
    return [(result.sent, result.delivered, result.collisions)] + records


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pool_modes_trace_identically(seed):
    prints = [_fingerprint(mode, seed) for mode in POOL_MODES]
    assert prints[0] == prints[1] == prints[2]
    assert prints[0][0][0] > 0  # the workload actually sent traffic


def test_pool_actually_recycles_in_a_scenario():
    scenario = Scenario(
        ScenarioConfig(
            protocol="agfw",
            num_nodes=12,
            sim_time=5.0,
            traffic_start=(0.5, 1.5),
            num_flows=4,
            num_senders=3,
            seed=2,
            pool_mode="on",
        )
    )
    scenario.run()
    stats = scenario.medium.frame_pool.stats()
    assert stats["frames_reused"] > 0  # the free list did real work
    assert stats["recs_reused"] == 0  # "on" keeps receptions in per-radio lists
