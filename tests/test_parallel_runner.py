"""Parallel sweep execution: order preservation and byte-identity.

The contract sold by a campaign's ``--jobs``: its records and report are
byte-identical for any job count.  That holds because (a) each point is
an independent simulation whose randomness is a pure function of its
config, and (b) :func:`repro.experiments.parallel.parallel_map` returns
results in submission order.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.experiments.parallel import parallel_map
from repro.experiments.scenario import ScenarioConfig

from tests.trace_digest import trace_digest


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"worker failure on {x}")


# ------------------------------------------------------------ parallel_map
def test_parallel_map_preserves_order_inline():
    assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_parallel_map_preserves_order_pooled():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=4) == [x * x for x in items]


def test_parallel_map_rejects_bad_jobs():
    with pytest.raises(ValueError):
        parallel_map(_square, [1], jobs=0)


def test_parallel_map_single_item_runs_inline():
    # One item never spins up a pool (worth asserting: pool startup for a
    # single point would dominate small sweeps).
    assert parallel_map(_square, [5], jobs=8) == [25]


def test_parallel_map_propagates_worker_errors():
    with pytest.raises(RuntimeError, match="worker failure"):
        parallel_map(_boom, [1, 2], jobs=2)


# ------------------------------------------------------------ bench harness
def _load_bench_to_json():
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "bench_to_json.py"
    spec = importlib.util.spec_from_file_location("bench_to_json", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(means: dict) -> dict:
    return {
        "schema_version": 1,
        "suite": "crypto",
        "benchmarks": {
            name: {"mean_s": mean, "stddev_s": 0.0, "rounds": 5}
            for name, mean in means.items()
        },
        "derived": {},
    }


def test_bench_compare_flags_regressions_only():
    harness = _load_bench_to_json()
    baseline = _doc({"a": 0.010, "b": 0.010})
    improved_and_regressed = _doc({"a": 0.009, "b": 0.025})
    failures = harness.compare(improved_and_regressed, baseline, max_regression=2.0)
    assert len(failures) == 1
    assert failures[0].startswith("b:")
    assert harness.compare(improved_and_regressed, baseline, max_regression=3.0) == []


# ------------------------------------------- crypto fast path (PR 3)
def _real_crypto_digest(seed: int) -> str:
    """Worker: the full-record trace digest of one real-crypto scenario
    (caches on).  Module-level so it pickles into pool workers."""
    return trace_digest(
        ScenarioConfig(
            protocol="agfw",
            num_nodes=10,
            sim_time=3.0,
            traffic_start=(0.5, 1.5),
            num_flows=3,
            num_senders=3,
            seed=seed,
            real_crypto=True,
            aant_ring_size=2,
        )
    )


def test_real_crypto_parallel_byte_identical_with_caches():
    """--jobs byte-identity must survive the crypto memo caches: pool
    workers start cold while the inline path may run warm, so equality
    here is a direct test of cache outcome-invisibility across processes."""
    seeds = [3, 4]
    serial = parallel_map(_real_crypto_digest, seeds, jobs=1)
    pooled = parallel_map(_real_crypto_digest, seeds, jobs=2)
    assert serial == pooled


def test_bench_distill_crypto_suite_derived_ratios():
    harness = _load_bench_to_json()
    raw = {
        "benchmarks": [
            {
                "name": "test_hello_verify_ring5_10_receivers[off]",
                "stats": {"mean": 0.009, "stddev": 0.0, "rounds": 5},
            },
            {
                "name": "test_hello_verify_ring5_10_receivers[on]",
                "stats": {"mean": 0.001, "stddev": 0.0, "rounds": 5},
            },
        ]
    }
    document = harness.distill(raw)
    assert document["schema_version"] == harness.SCHEMA_VERSION
    assert document["suite"] == "crypto"
    assert document["derived"]["hello_verify_cached_speedup"] == 9.0
    # Ratios whose benchmarks did not run are omitted, not zeroed.
    assert "trapdoor_open_cached_speedup" not in document["derived"]


# ------------------------------------------- hard worker death (PR 10)
def _die_on_marker(item: str) -> str:
    """Worker: SIGKILL its own process on the marked item — the closest
    stand-in for an OOM kill the kernel can deliver."""
    import os
    import signal

    if item == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def test_parallel_map_surfaces_hard_worker_death():
    """Regression: multiprocessing.Pool.map hangs forever when a worker
    is killed hard (its task is simply lost).  parallel_map must instead
    raise WorkerCrashError naming every unfinished point."""
    from repro.experiments.parallel import WorkerCrashError

    with pytest.raises(WorkerCrashError, match="terminated abruptly") as err:
        parallel_map(
            _die_on_marker,
            ["alpha", "die", "beta", "gamma"],
            jobs=2,
            describe=lambda item: f"point:{item}",
        )
    # The crashed point is indistinguishable from in-flight siblings, so
    # it must be among the reported unfinished points.
    assert "point:die" in str(err.value)
    assert "point:die" in err.value.points


def test_parallel_map_worker_death_leaves_completed_results_unreported():
    # Sanity: the same marker item runs fine inline (no pool to crash).
    assert parallel_map(_die_on_marker, ["alpha"], jobs=4) == ["alpha"]
