"""Parallel sweep execution: order preservation and byte-identity.

The contract sold by ``--jobs``: the formatted output of every
experiment is byte-identical for any job count.  That holds because (a)
each point is an independent simulation whose randomness is a pure
function of its config, and (b) :func:`repro.experiments.parallel.
parallel_map` returns results in submission order.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.experiments.fig1 import run_fig1
from repro.experiments.faults_sweep import run_faults_sweep
from repro.experiments.parallel import parallel_map
from repro.experiments.runner import main as runner_main


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


# ------------------------------------------------------------- experiments
def test_fig1_points_identical_serial_vs_parallel():
    kwargs = dict(node_counts=(12, 16), schemes=("agfw",), sim_time=3.0, seed=9)
    serial = run_fig1(jobs=1, **kwargs)
    pooled = run_fig1(jobs=2, **kwargs)
    assert serial == pooled  # Fig1Point is a frozen dataclass: full equality


def test_faults_sweep_identical_serial_vs_parallel():
    """Impaired points (loss draws + churn plans) stay a pure function of
    their config: fanning the sweep over workers changes nothing."""
    kwargs = dict(
        loss_rates=(0.3,), churn_rates=(1.5,), schemes=("agfw",),
        num_nodes=12, sim_time=3.0, seed=9,
    )
    serial = run_faults_sweep(jobs=1, **kwargs)
    pooled = run_faults_sweep(jobs=2, **kwargs)
    assert serial == pooled  # FaultPoint is a frozen dataclass: full equality
    assert any(p.drops_injected > 0 for p in serial)
    assert any(p.crashes > 0 for p in serial)


def test_fig1_churn_parameter_threads_fault_plans():
    """run_fig1(churn=...) doses every point; the default path is untouched."""
    plain = run_fig1(node_counts=(12,), schemes=("gpsr",), sim_time=3.0, seed=4)
    churned = run_fig1(
        node_counts=(12,), schemes=("gpsr",), sim_time=3.0, seed=4, churn=(3.0, 0.5)
    )
    assert plain != churned  # the plan actually bit


def test_runner_output_byte_identical_across_jobs(capsys):
    argv = ["--sim-time", "3", "--nodes", "12", "--skip", "als", "exposure", "faults"]
    assert runner_main(argv + ["--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert runner_main(argv + ["--jobs", "3"]) == 0
    pooled_out = capsys.readouterr().out
    assert serial_out == pooled_out
    assert "Figure 1(a)" in serial_out


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
        "suite": "substrate",
        "benchmarks": {
            name: {"mean_s": mean, "stddev_s": 0.0, "rounds": 5}
            for name, mean in means.items()
        },
        "derived": {},
    }


def test_bench_distill_schema_and_derived_speedup():
    harness = _load_bench_to_json()
    raw = {
        "benchmarks": [
            {
                "name": "test_medium_fanout_150_nodes[brute]",
                "stats": {"mean": 0.060, "stddev": 0.001, "rounds": 10},
            },
            {
                "name": "test_medium_fanout_150_nodes[grid]",
                "stats": {"mean": 0.015, "stddev": 0.001, "rounds": 40},
            },
        ]
    }
    document = harness.distill(raw)
    assert document["schema_version"] == harness.SCHEMA_VERSION
    assert document["suite"] == "substrate"
    assert document["derived"]["fanout_speedup_150_nodes"] == 4.0


def test_bench_compare_flags_regressions_only():
    harness = _load_bench_to_json()
    baseline = _doc({"a": 0.010, "b": 0.010})
    improved_and_regressed = _doc({"a": 0.009, "b": 0.025})
    failures = harness.compare(improved_and_regressed, baseline, max_regression=2.0)
    assert len(failures) == 1
    assert failures[0].startswith("b:")
    assert harness.compare(improved_and_regressed, baseline, max_regression=3.0) == []


def test_committed_baseline_meets_speedup_floor():
    """The acceptance criterion lives in the committed artifact: the
    recorded grid-vs-brute fan-out speedup at 150 nodes must be >= 3x."""
    import json

    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "BENCH_substrate.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["schema_version"] == 1
    assert document["derived"]["fanout_speedup_150_nodes"] >= 3.0


def test_committed_faults_baseline_within_overhead_budget():
    """The committed faults artifact pins the impairment cost contract:
    every regime's end-to-end overhead vs the unimpaired leg stays under
    2x (impairment provokes protocol work — retransmissions — but must
    never blow the run up), and the ``none`` leg is present as the
    zero-cost-when-disabled reference point."""
    import json

    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "BENCH_faults.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["schema_version"] == 1
    assert document["suite"] == "faults"
    for metric in (
        "bernoulli_scenario_overhead",
        "gilbert_scenario_overhead",
        "churn_scenario_overhead",
    ):
        assert 0.0 < document["derived"][metric] < 2.0, metric
    assert "test_scenario_impairment[none]" in document["benchmarks"]


# ------------------------------------------- crypto fast path (PR 3)
def _real_crypto_digest(seed: int) -> tuple:
    """Worker: run one real-crypto scenario (caches on) and digest its trace.

    Module-level so it pickles into pool workers.  The digest covers
    ``(time, category, node)`` per record — stable across processes,
    unlike packet uids which come from per-process counters.
    """
    import hashlib

    from repro.experiments.scenario import Scenario, ScenarioConfig

    scenario = Scenario(
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
            keep_trace=True,
        )
    )
    result = scenario.run()
    records = tuple((repr(r.time), r.category, r.node) for r in scenario.tracer.records)
    digest = hashlib.sha256(repr(records).encode("utf-8")).hexdigest()
    return (result.sent, result.delivered, digest)


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
    document = harness.distill(raw, "crypto")
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


def test_bench_aggregate_enumerates_sorted_regardless_of_discovery_order(
    tmp_path, monkeypatch
):
    """Regression (DET-012 class): aggregate() must not depend on
    filesystem enumeration order, which is machine- and history-
    dependent.  Shuffle what glob returns; the document must not move."""
    import json
    import random

    harness = _load_bench_to_json()
    for suite in ("zulu", "alpha", "mike"):
        doc = {
            "schema_version": 1,
            "suite": suite,
            "benchmarks": {f"bench_{suite}": {"mean_s": 0.01, "stddev_s": 0.0, "rounds": 3}},
            "derived": {f"{suite}_ratio": 2.0},
        }
        (tmp_path / f"BENCH_{suite}.json").write_text(json.dumps(doc), encoding="utf-8")

    baseline = harness.aggregate(tmp_path)
    real_glob = pathlib.Path.glob
    for shuffle_seed in (1, 2, 3):
        def shuffled(self, pattern, _seed=shuffle_seed):
            entries = list(real_glob(self, pattern))
            random.Random(_seed).shuffle(entries)
            return iter(entries)

        monkeypatch.setattr(pathlib.Path, "glob", shuffled)
        assert harness.aggregate(tmp_path) == baseline
        monkeypatch.undo()
    assert baseline["suites"] == ["alpha", "mike", "zulu"]
