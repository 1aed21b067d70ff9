"""Campaign layer round-trips: spec, digest, store, executor, report.

The acceptance properties pinned here:

* digests are stable across interpreter restarts (hash randomization
  included) and across ``--jobs`` pool workers;
* rerunning a completed campaign touches nothing (pure cache hits);
* a SIGINT mid-matrix leaves completed points durable, a rerun finishes
  only the missing cells, and the final report is byte-identical to an
  uninterrupted sequential run's;
* the committed ``BENCH_campaign.json`` records a >= 10x warm-over-cold
  cache speedup (the "rerun is free" acceptance floor).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CampaignSpecError,
    IncompleteCampaignError,
    ResultStore,
    campaign_report,
    config_digest,
    load_spec,
    run_campaign,
    spec_from_mapping,
)
from repro.campaign.digest import RESULT_SALT, canonical_payload
from repro.experiments.parallel import parallel_map
from repro.experiments.runner import main as runner_main
from repro.experiments.scenario import ScenarioConfig

REPO = pathlib.Path(__file__).parent.parent

SMOKE = {
    "name": "smoke",
    "seed": 3,
    "seeds": 2,
    "metrics": ["delivery_fraction", "mean_latency_ms"],
    "base": {
        "sim_time": 2.0,
        "num_flows": 3,
        "num_senders": 3,
        "traffic_start": [0.5, 1.0],
    },
    "axes": {"protocol": ["gpsr", "agfw"], "num_nodes": [12, 16]},
}

SMOKE_TOML = """\
name = "smoke"
seed = 3
seeds = 2
metrics = ["delivery_fraction", "mean_latency_ms"]

[base]
sim_time = 2.0
num_flows = 3
num_senders = 3
traffic_start = [0.5, 1.0]

[axes]
protocol = ["gpsr", "agfw"]
num_nodes = [12, 16]
"""


def _smoke_spec():
    return spec_from_mapping(SMOKE)


# ------------------------------------------------------------------- spec
def test_toml_and_json_specs_are_equivalent(tmp_path):
    toml_path = tmp_path / "c.toml"
    toml_path.write_text(SMOKE_TOML, encoding="utf-8")
    json_path = tmp_path / "c.json"
    json_path.write_text(json.dumps(SMOKE), encoding="utf-8")
    assert load_spec(toml_path) == load_spec(json_path) == _smoke_spec()


def test_points_canonical_order_and_distinct_seeds():
    points = _smoke_spec().points()
    assert len(points) == 8  # 2 protocols x 2 densities x 2 seeds
    # First axis outermost, replicate innermost.
    assert [(dict(p.axes)["protocol"], dict(p.axes)["num_nodes"], p.seed_index)
            for p in points[:4]] == [
        ("gpsr", 12, 0), ("gpsr", 12, 1), ("gpsr", 16, 0), ("gpsr", 16, 1),
    ]
    seeds = [p.config.seed for p in points]
    assert len(set(seeds)) == len(seeds)  # every point statistically independent
    # Points are pure functions of the spec: a rebuild is identical.
    assert points == _smoke_spec().points()


def test_spec_validation_rejects_bad_input():
    with pytest.raises(CampaignSpecError, match="not a ScenarioConfig field"):
        spec_from_mapping({**SMOKE, "axes": {"wavelength": [1, 2]}})
    with pytest.raises(CampaignSpecError, match="campaign-managed"):
        spec_from_mapping({**SMOKE, "base": {"seed": 5}})
    with pytest.raises(CampaignSpecError, match="unknown metric"):
        spec_from_mapping({**SMOKE, "metrics": ["vibes"]})
    with pytest.raises(CampaignSpecError, match="no axes"):
        spec_from_mapping({k: v for k, v in SMOKE.items() if k != "axes"})
    with pytest.raises(CampaignSpecError, match="valid ScenarioConfig"):
        spec_from_mapping({**SMOKE, "axes": {"protocol": ["warp-routing"]}}).points()
    with pytest.raises(CampaignSpecError, match="not both"):
        spec_from_mapping({**SMOKE, "sweep": [{"axes": {"num_nodes": [5]}}]})


def test_bad_reference_fails_at_expansion():
    """A bad backend value must fail while the matrix expands, naming the
    knob the spec set, not later inside the executor.  The string
    ``"false"`` is truthy and would otherwise run the reference."""
    spec = spec_from_mapping({**SMOKE, "axes": {"reference": [False, "false"]}})
    with pytest.raises(CampaignSpecError, match="reference must be a bool"):
        spec.points()


NAN = float("nan")
GILBERT = {"loss_model": ["gilbert"], "loss_rate": [0.2]}
DISTANCE = {"loss_model": ["distance"], "loss_rate": [0.2]}


@pytest.mark.parametrize(
    "axes, message",
    [
        ({"flow_locality": [900.0, float("nan")]}, "flow_locality must be positive and finite"),
        (
            {"placement": ["clusters"], "cluster_radius": [400.0, float("nan")]},
            "cluster_radius must be positive and finite",
        ),
        ({"sim_time": [2.0, float("nan")]}, "sim_time must be positive and finite"),
        ({"radio_range": [250.0, float("nan")]}, "radio_range must be positive and finite"),
        (
            {"interference_range": [550.0, float("nan")]},
            "interference_range must be positive and finite",
        ),
        ({"aant_ring_size": [2, -3]}, "aant_ring_size must be >= 0"),
        (
            {"num_nodes": [6], "real_crypto": [True], "aant_ring_size": [5, 10]},
            "aant_ring_size must be <= num_nodes - 1",
        ),
        ({"min_speed": [1.0, float("nan")]}, "min_speed <= max_speed"),
        ({"max_speed": [20.0, float("nan")]}, "min_speed <= max_speed"),
        ({"max_speed": [20.0, float("inf")]}, "min_speed <= max_speed"),
        ({"pause_time": [0.0, float("nan")]}, "pause_time must be non-negative and finite"),
        (
            {"traffic_start": [[0.5, 1.0], [float("nan"), 0.5]]},
            "traffic_start must be non-negative and finite",
        ),
        (
            {"traffic_start": [[0.5, 1.0], [-1.0, -0.5]]},
            "traffic_start must be non-negative and finite",
        ),
        (
            {"oracle_staleness": [0.0, float("nan")]},
            "oracle_staleness must be non-negative and finite",
        ),
        ({"rate_pps": [4.0, float("nan")]}, "rate_pps must be positive and finite"),
        ({"width": [1500.0, float("nan")]}, "width must be positive and finite"),
        ({"height": [300.0, float("nan")]}, "height must be positive and finite"),
        ({"loss_model": ["bernoulli"], "loss_rate": [0.1, NAN]}, "bernoulli rate must be in"),
        ({"loss_model": ["bernoulli"], "loss_rate": [0.1, 1.5]}, "bernoulli rate must be in"),
        ({"num_flows": [3, 0]}, "num_flows must be >= 1"),
        ({"num_senders": [3, 0]}, "num_senders must be >= 1"),
        ({"payload_bytes": [128, 0]}, "payload_bytes must be >= 1"),
        ({**GILBERT, "loss_params": [{"burst_length": 0.5}]}, "burst_length must be >= 1"),
        ({**DISTANCE, "loss_params": [{"bogus": 1.0}]}, "unknown loss_params"),
    ],
)
def test_nan_distance_fails_at_expansion(axes, message):
    """TOML admits ``nan`` and ``inf``; they must fail while the matrix
    expands, like a bad backend value, instead of running a silently
    degenerate point (a non-finite speed used to hang the run at t = 0).
    So must a ring size no run could sign with, and a workload size or
    loss setting no run could build."""
    spec = spec_from_mapping({**SMOKE, "axes": axes})
    with pytest.raises(CampaignSpecError, match=message):
        spec.points()


def test_churn_axis_expands_to_fault_plan():
    spec = spec_from_mapping(
        {
            "name": "churny",
            "base": {"sim_time": 2.0, "num_nodes": 12},
            "axes": {"churn_rate": [0.0, 2.0]},
        }
    )
    calm, churned = spec.points()
    assert calm.config.fault_plan is None  # zero dose = untouched config
    assert churned.config.fault_plan is not None
    assert churned.config.fault_plan.events
    # The plan participates in content addressing.
    assert config_digest(calm.config) != config_digest(churned.config)


# ----------------------------------------------------------------- digest
def test_digest_is_pure_and_salt_sensitive():
    cfg = ScenarioConfig(num_nodes=12, sim_time=2.0, seed=9)
    assert config_digest(cfg) == config_digest(ScenarioConfig(num_nodes=12, sim_time=2.0, seed=9))
    assert config_digest(cfg) != config_digest(ScenarioConfig(num_nodes=12, sim_time=2.0, seed=10))
    assert config_digest(cfg) != config_digest(cfg, salt=RESULT_SALT + "-v2")
    assert b'"salt"' in canonical_payload(cfg)


def _digests_of_smoke(_ignored: int) -> list:
    """Worker: digests of the whole smoke matrix — top-level so it pickles."""
    return [config_digest(p.config) for p in spec_from_mapping(SMOKE).points()]


def test_digest_stable_across_process_restarts_and_jobs(tmp_path):
    inline = _digests_of_smoke(0)
    # Fresh interpreters with different hash randomization: a true
    # process restart, not a forked copy of this one.
    script = (
        "import json, sys\n"
        "from repro.campaign import spec_from_mapping, config_digest\n"
        "spec = spec_from_mapping(json.loads(sys.argv[1]))\n"
        "print('\\n'.join(config_digest(p.config) for p in spec.points()))\n"
    )
    outs = []
    for hash_seed in ("1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(SMOKE)],
            capture_output=True, text=True, env=env, check=True,
        )
        outs.append(proc.stdout.split())
    assert outs[0] == outs[1] == inline
    # And across --jobs pool workers (forked children).
    pooled = parallel_map(_digests_of_smoke, [0, 1], jobs=2)
    assert pooled == [inline, inline]


# ------------------------------------------------------------------ store
def test_store_roundtrip_sorted_enumeration_and_corruption(tmp_path):
    store = ResultStore(tmp_path / "s")
    assert store.digests() == [] and len(store) == 0
    record = {"schema": 1, "metrics": {"delivery_fraction": 0.5}}
    a = "aa" + "0" * 62
    b = "0b" + "1" * 62
    store.put(a, record)
    store.put(b, record)
    assert store.get(a) == record
    assert store.get("ff" + "0" * 62) is None
    assert store.digests() == sorted([a, b])
    # No temp droppings survive a put.
    assert not [p for p in (tmp_path / "s").rglob(".*tmp*")]
    store.path_for(a).write_text("{truncated", encoding="utf-8")
    with pytest.raises(ValueError, match="corrupt record"):
        store.get(a)
    with pytest.raises(ValueError, match="not a content digest"):
        store.path_for("../../etc/passwd")


# -------------------------------------------------------------- executor
def test_rerun_is_pure_cache_hit(tmp_path):
    spec = _smoke_spec()
    store = ResultStore(tmp_path / "store")
    first = run_campaign(spec, store)
    assert (first.total, first.cached, first.executed) == (8, 0, 8)
    stamps = {d: store.path_for(d).stat().st_mtime_ns for d in store.digests()}
    second = run_campaign(spec, store)
    assert (second.total, second.cached, second.executed) == (8, 8, 0)
    assert {d: store.path_for(d).stat().st_mtime_ns for d in store.digests()} == stamps


#: Channel loss plus a churn sweep: pooled workers must reproduce each
#: point's loss draws and crash schedule, not just its clean traffic.
LOSS_CHURN = {
    "name": "loss-churn",
    "seed": 9,
    "base": {"protocol": "agfw", "num_nodes": 12, "sim_time": 3.0,
             "loss_model": "bernoulli", "loss_rate": 0.3},
    "axes": {"churn_rate": [1.5, 3.0]},
}


@pytest.mark.parametrize("mapping", [SMOKE, LOSS_CHURN], ids=["smoke", "loss-churn"])
def test_store_and_report_identical_across_jobs(tmp_path, mapping):
    spec = spec_from_mapping(mapping)
    serial = ResultStore(tmp_path / "serial")
    pooled = ResultStore(tmp_path / "pooled")
    run_campaign(spec, serial, jobs=1)
    run_campaign(spec, pooled, jobs=3)
    assert serial.digests() == pooled.digests()
    for digest in serial.digests():
        assert serial.path_for(digest).read_bytes() == pooled.path_for(digest).read_bytes()
    assert campaign_report(spec, serial) == campaign_report(spec, pooled)
    if mapping is LOSS_CHURN:
        counters = [serial.get(d)["fault_counters"] for d in serial.digests()]
        assert all(c["drops_injected"] > 0 for c in counters)
        assert all(c["crashes"] > 0 for c in counters)


def test_report_requires_complete_matrix(tmp_path):
    spec = _smoke_spec()
    store = ResultStore(tmp_path / "store")
    with pytest.raises(IncompleteCampaignError, match="8 of 8 points missing"):
        campaign_report(spec, store)


def test_sigint_then_resume_matches_uninterrupted_sequential_run(tmp_path):
    """Interrupt a parallel campaign mid-matrix; completed points must be
    durable, the resume must execute only the missing cells, and the
    final report must be byte-identical to a cold jobs=1 run."""
    # 8 points: ProcessPoolExecutor prefetches ~jobs+1 items into its
    # call queue (uncancellable); the matrix must be larger than that
    # so the interrupt reliably leaves pending cells behind.
    slow = {
        "name": "sigint",
        "seed": 5,
        "seeds": 2,
        "base": {"sim_time": 6.0, "num_flows": 4, "num_senders": 4,
                 "traffic_start": [0.5, 1.0]},
        "axes": {"protocol": ["gpsr", "agfw"], "num_nodes": [18, 24]},
    }
    spec_path = tmp_path / "sigint.json"
    spec_path.write_text(json.dumps(slow), encoding="utf-8")
    store_root = tmp_path / "interrupted"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.runner", "campaign", "run",
            str(spec_path), "--store", str(store_root), "--jobs", "2",
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    store = ResultStore(store_root)
    deadline = time.monotonic() + 120.0
    while len(store.digests()) < 1 and time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    out, _ = proc.communicate(timeout=120)
    spec = load_spec(spec_path)
    total = len(spec.points())
    done = len(store.digests())
    if proc.returncode == 0:
        # Matrix finished before the signal landed (very slow machine
        # fallback) — the resume path below still must be a pure cache hit.
        assert done == total
    else:
        assert proc.returncode == 130, out
        assert "durable" in out
        assert 0 < done < total, out  # partial progress survived the interrupt
    resumed = run_campaign(spec, store)
    assert resumed.cached == done and resumed.executed == total - done
    cold_store = ResultStore(tmp_path / "cold")
    cold = run_campaign(spec, cold_store, jobs=1)
    assert cold.executed == total
    assert campaign_report(spec, store) == campaign_report(spec, cold_store)


# ------------------------------------------------------------------- cli
def test_runner_campaign_subcommand_run_status_report(tmp_path, capsys):
    spec_path = tmp_path / "smoke.json"
    spec_path.write_text(json.dumps(SMOKE), encoding="utf-8")
    store = tmp_path / "store"
    argv = ["campaign", "run", str(spec_path), "--store", str(store)]
    assert runner_main(argv) == 0
    first = capsys.readouterr().out
    assert "0 cache hits, 8 executed" in first
    assert runner_main(argv) == 0
    rerun = capsys.readouterr().out
    assert "8 cache hits, 0 executed" in rerun
    assert runner_main(["campaign", "status", str(spec_path), "--store", str(store)]) == 0
    assert "8/8 points (complete)" in capsys.readouterr().out
    out_file = tmp_path / "report.txt"
    assert runner_main(
        ["campaign", "report", str(spec_path), "--store", str(store),
         "--output", str(out_file)]
    ) == 0
    capsys.readouterr()
    text = out_file.read_text(encoding="utf-8")
    assert "# campaign 'smoke'" in text
    assert "delivery_fraction (num_nodes x protocol" in text


def test_report_crossover_detection(tmp_path):
    """A metric whose column ordering flips along the row axis is called
    out mechanically (the Fig. 1 crossover claim, as a report feature)."""
    spec = spec_from_mapping(
        {
            "name": "cross",
            "seed": 2,
            "metrics": ["delivery_fraction", "collisions"],
            "base": {"sim_time": 2.0, "num_flows": 3, "num_senders": 3,
                     "traffic_start": [0.5, 1.0]},
            "axes": {"protocol": ["gpsr", "agfw"], "num_nodes": [12, 16, 20]},
        }
    )
    store = ResultStore(tmp_path / "store")
    run_campaign(spec, store)
    report = campaign_report(spec, store)
    flips = any(
        line.startswith("crossover[") for line in report.splitlines()
    )
    # Whether this workload crosses is seed-dependent; assert agreement
    # between the report and a hand check rather than a fixed outcome.
    by_cell = {}
    for point in spec.points():
        coords = dict(point.axes)
        metrics = store.get(config_digest(point.config))["metrics"]
        by_cell[(coords["num_nodes"], coords["protocol"])] = metrics
    hand = False
    for metric in spec.metrics:
        signs = [
            (by_cell[(n, "gpsr")][metric] > by_cell[(n, "agfw")][metric])
            - (by_cell[(n, "gpsr")][metric] < by_cell[(n, "agfw")][metric])
            for n in (12, 16, 20)
        ]
        signs = [s for s in signs if s]
        hand = hand or any(a != b for a, b in zip(signs, signs[1:]))
    assert flips == hand


# ------------------------------------------------- committed artifacts
def test_committed_campaign_files_parse_and_validate():
    campaign_dir = REPO / "examples" / "campaigns"
    files = sorted(campaign_dir.glob("*.toml"))
    assert files, "no committed campaign files"
    for path in files:
        spec = load_spec(path)
        assert spec.points(), path.name


def test_experiments_md_report_commands_name_committed_files():
    """Every paper table EXPERIMENTS.md attributes to a campaign names a
    spec that loads and a report file that is committed beside it."""
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8").replace("\\\n", " ")
    commands = re.findall(r"python -m repro\.campaign report\s+(\S+)\s+--output\s+(\S+)", text)
    specs = {pathlib.Path(spec).name for spec, _output in commands}
    assert specs >= {"fig1_sweep.toml", "faults_sweep.toml"}
    for spec, output in commands:
        assert load_spec(REPO / spec).points(), spec
        assert (REPO / output).is_file(), output


def test_committed_campaign_bench_meets_cache_speedup_floor():
    """The acceptance criterion lives in the committed artifact: a fully
    cached rerun must be >= 10x faster than the cold run."""
    path = REPO / "benchmarks" / "BENCH_campaign.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["schema_version"] == 1
    assert document["suite"] == "campaign"
    assert document["derived"]["campaign_warm_cache_speedup"] >= 10.0
