"""Scale-up layer of the sharded runtime: promises riding round replies,
the shared-memory position plane, adaptive column boundaries, and the
keyed engine's swept promise indexes.

Everything here rides the same proof discipline as
``test_shard_equivalence``: ``shard_mode="cross"`` compares the merged
shard trace record-by-record against the unmodified single engine and
raises :class:`ShardCoherenceError` on the first divergence, so a
passing cross run IS the byte-identical claim for that feature
combination.  The churn tests work one level down, driving
:class:`KeyedSimulator` directly and checking every promise-index probe
against a brute min over the pending events under randomized
schedule/cancel churn.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import replace

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.geo.partition import ColumnPartition, rebalanced_boundaries
from repro.sim.keyed import KeyedSimulator
from repro.sim.shard import ShardCoherenceError
from repro.sim.shard.shmplane import ShardPlane
from repro.sim.shard.worker import ShardWorker
from tests.test_shard_equivalence import _cfg, _faulted, _fingerprint


# ------------------------------------------- keyed promise-index churn
def _brute_next_time(sim: KeyedSimulator, actor) -> float | None:
    """The oracle: min fire time over pending events attributed to ``actor``."""
    times = [ev.time for ev in sim.iter_pending() if ev.actor == actor]
    return min(times) if times else None


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_keyed_promise_indexes_match_brute_min_under_churn(seed):
    """Randomized schedule/cancel churn with interleaved promise probes:
    every ``actor_next_time`` / ``untracked_next_time`` answer equals a
    brute min over ``iter_pending()`` filtered by actor."""
    rng = random.Random(seed)
    sim = KeyedSimulator()
    live: list = []

    def make_cb(depth: int):
        def cb() -> None:
            if depth < 6 and rng.random() < 0.6:
                child = sim.schedule_at(
                    sim.now + rng.random(),
                    make_cb(depth + 1),
                    priority=rng.choice((10, 20, 30)),
                    name=rng.choice(("app.tick", "mac.slot", "mac.difs")),
                    actor=rng.choice((None, -1, 0, 1, 2, 3)),
                )
                live.append(child)
            if live and rng.random() < 0.3:
                live.pop(rng.randrange(len(live))).cancel()
        return cb

    for _ in range(40):
        ev = sim.schedule_at(
            rng.random() * 2.0,
            make_cb(0),
            priority=rng.choice((10, 20, 30)),
            name=rng.choice(("app.tick", "mac.slot")),
            actor=rng.choice((None, -1, 0, 1, 2, 3)),
        )
        if rng.random() < 0.2:
            ev.cancel()
        else:
            live.append(ev)

    steps = answered = 0
    while True:
        if steps % 5 == 0:
            for actor in (0, 1, 2, 3, None):
                if actor is None:
                    got = sim.untracked_next_time()
                else:
                    got = sim.actor_next_time(actor)
                want = _brute_next_time(sim, actor)
                assert got == want, (steps, actor)
                answered += want is not None
        if not sim.execute_next():
            break
        steps += 1
        assert steps < 20000, "runaway churn"
    assert answered > 0
    assert sim.pending_events == 0


# ----------------------------------------------- promises in round replies
def test_promise_rides_the_round_reply():
    stats = Scenario(_cfg(1, shard_mode="on", shards=2)).run().shard_stats
    # Steady state is exactly one request and one reply per shard per
    # round; the bootstrap is the only promise-only round.
    assert stats["ipc_messages_per_round"] == pytest.approx(2 * 2, abs=0.01)
    assert stats["ipc_messages"] == 2 * 2 * (stats["rounds"] + 1)
    assert stats["promise_rounds"] == 1
    assert stats["ipc_bytes"] > 0


# ------------------------------------------------- shared position plane
def test_brute_index_allocates_no_plane():
    """Workers publish only from the array index, so the reference run
    (brute scan) gets no plane — and the same outcome as the fast run,
    which does."""
    grid = Scenario(_cfg(2, shard_mode="on", shards=2)).run()
    brute = Scenario(_cfg(2, shard_mode="on", shards=2, reference=True)).run()
    assert grid.shard_stats["plane"] is True
    assert brute.shard_stats["plane"] is False
    assert _fingerprint(brute) == _fingerprint(grid)


def test_plane_resolve_matches_position_formula():
    class Legs:
        pass

    legs = Legs()
    legs.ox, legs.oy = [10.0, 5.0], [20.0, 6.0]
    legs.gx, legs.gy = [110.0, 5.0], [220.0, 6.0]
    legs.depart, legs.arrive = [1.0, float("inf")], [3.0, float("-inf")]
    legs.span = [2.0, float("inf")]
    legs.dgx, legs.dgy = [100.0, 0.0], [200.0, 0.0]
    import numpy as np

    for field in ("ox", "oy", "gx", "gy", "depart", "arrive", "span", "dgx", "dgy"):
        setattr(legs, field, np.asarray(getattr(legs, field)))
    plane = ShardPlane(2, 1)
    try:
        assert not plane.resolvable(0, 2.0)  # unpublished rows never resolve
        epoch = plane.publish_legs(0, np.asarray([0, 1]), legs, np.asarray([0, 1]))
        assert epoch == plane.epoch(0) == 1
        assert plane.resolve(0, 0.5) == (10.0, 20.0)  # t <= depart: origin
        assert plane.resolve(0, 7.0) == (110.0, 220.0)  # t >= arrive: target
        mx, my = plane.resolve(0, 2.0)  # mid-leg interpolation
        frac = (2.0 - 1.0) / 2.0
        assert (mx, my) == (100.0 * frac + 10.0, 200.0 * frac + 20.0)
        assert not plane.resolvable(1, 1e9)  # fixed row: depart = +inf
    finally:
        plane.destroy()


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def test_killed_worker_leaks_no_shm_segments(monkeypatch):
    """SIGKILL a worker mid-window: the driver must surface a coherent
    error and the plane segment must not outlive the run."""
    before = _shm_segments()
    original = ShardWorker.execute_window

    def dying(self, horizon):
        if self.shard_index == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self, horizon)

    # Applied pre-fork, so the patched class is inherited by the worker
    # processes; shard 1 dies the instant its first window opens.
    monkeypatch.setattr(ShardWorker, "execute_window", dying)
    with pytest.raises(ShardCoherenceError, match="terminated mid-protocol"):
        Scenario(_cfg(3, shard_mode="on", shards=2)).run()
    assert _shm_segments() == before


def test_normal_runs_leak_no_shm_segments():
    before = _shm_segments()
    Scenario(_cfg(4, shard_mode="on", shards=2)).run()
    assert _shm_segments() == before


# --------------------------------------------------- adaptive boundaries
def test_rebalanced_boundaries_uniform_load_keeps_equal_width():
    cuts = rebalanced_boundaries(0.0, 1200.0, 4, [10.0, 10.0, 10.0, 10.0])
    assert cuts == pytest.approx((300.0, 600.0, 900.0))


def test_rebalanced_boundaries_shift_toward_load():
    # All load in column 0: every cut clamps to its left floor so the
    # loaded column is carved as finely as min_fraction allows.
    cuts = rebalanced_boundaries(0.0, 1200.0, 3, [30.0, 0.0, 0.0])
    assert len(cuts) == 2
    assert all(b > a for a, b in zip((0.0,) + cuts, cuts))
    assert cuts[0] < 400.0 and cuts[1] < 800.0  # both pulled left of equal-width
    # Skew the other way: load on the right pulls cuts right.
    right = rebalanced_boundaries(0.0, 1200.0, 3, [0.0, 0.0, 30.0])
    assert right[0] > 400.0 and right[1] > 800.0


def test_rebalanced_boundaries_respects_min_fraction_floor():
    # min_fraction=0.5 makes the clamp binding: the load-equalizing cuts
    # for an all-left load would carve columns of 62.5 m, but every
    # column must keep at least half the equal-width size (125 m).
    cuts = rebalanced_boundaries(
        0.0, 1000.0, 4, [100.0, 0.0, 0.0, 0.0], min_fraction=0.5
    )
    widths = [b - a for a, b in zip((0.0,) + cuts, cuts + (1000.0,))]
    floor = (1000.0 / 4) * 0.5
    assert all(w >= floor - 1e-9 for w in widths)
    assert cuts == pytest.approx((125.0, 250.0, 375.0))


def test_rebalanced_boundaries_zero_load_equal_width():
    assert rebalanced_boundaries(0.0, 900.0, 3, [0, 0, 0]) == pytest.approx(
        (300.0, 600.0)
    )
    assert rebalanced_boundaries(0.0, 900.0, 1, [5]) == ()


def test_rebalanced_boundaries_quantized_and_deterministic():
    loads = [7.0, 3.0, 11.0, 2.0]
    a = rebalanced_boundaries(0.0, 1234.567, 4, loads)
    b = rebalanced_boundaries(0.0, 1234.567, 4, loads)
    assert a == b
    for cut in a:
        assert cut == pytest.approx(round(cut / 1e-6) * 1e-6, abs=0.0)


def test_column_partition_explicit_boundaries():
    part = ColumnPartition(0.0, 1200.0, 3, boundaries=(200.0, 900.0))
    assert part.column_of(100.0) == 0
    assert part.column_of(200.0) == 1  # cuts are [lo, hi) like equal width
    assert part.column_of(899.0) == 1
    assert part.column_of(1150.0) == 2
    assert part.column_bounds(0) == (0.0, 200.0)
    assert part.column_bounds(1) == (200.0, 900.0)
    assert part.column_bounds(2) == (900.0, 1200.0)
    with pytest.raises(ValueError):
        ColumnPartition(0.0, 1200.0, 3, boundaries=(200.0,))  # wrong count
    with pytest.raises(ValueError):
        ColumnPartition(0.0, 1200.0, 3, boundaries=(900.0, 200.0))  # not sorted
    with pytest.raises(ValueError):
        ColumnPartition(0.0, 1200.0, 3, boundaries=(0.0, 900.0))  # on the edge


def test_adaptive_boundaries_deterministic_and_equivalent():
    cfg = _cfg(8, shard_mode="on", shards=3, shard_adaptive=True, shard_calibration=0.5)
    first = Scenario(cfg).run()
    second = Scenario(cfg).run()
    assert first.shard_stats["boundaries"] is not None
    assert first.shard_stats["boundaries"] == second.shard_stats["boundaries"]
    assert _fingerprint(first) == _fingerprint(second)
    # And the rebalanced run still matches the single engine exactly.
    assert _fingerprint(first) == _fingerprint(Scenario(_cfg(8)).run())


def test_cross_adaptive_byte_identical():
    result = Scenario(
        _cfg(9, shard_mode="cross", shards=3, shard_adaptive=True, shard_calibration=0.5)
    ).run()
    assert result.sent > 0
    assert result.shard_stats["boundaries"] is not None


def test_explicit_boundaries_any_split_same_trace():
    """The merged trace is a pure function of config + seed, not of the
    split geometry: two very different explicit splits, one answer."""
    lop = Scenario(
        _cfg(10, shard_mode="cross", shards=3, shard_boundaries=(150.0, 1050.0))
    ).run()
    mid = Scenario(
        _cfg(10, shard_mode="cross", shards=3, shard_boundaries=(500.0, 700.0))
    ).run()
    assert _fingerprint(lop) == _fingerprint(mid)


# ------------------------------------------- everything on, under faults
@pytest.mark.parametrize("seed", [11, 12])
def test_cross_all_features_faulted_byte_identical(seed):
    """Acceptance: shared plane + adaptive boundaries,
    under loss and churn, across seeds — byte-identical."""
    cfg = _faulted(
        _cfg(
            seed,
            shard_mode="cross",
            shards=3,
            shard_adaptive=True,
            shard_calibration=0.5,
        )
    )
    result = Scenario(cfg).run()
    assert result.fault_counters["drops_injected"] > 0
    stats = result.shard_stats
    assert stats["plane"] is True
