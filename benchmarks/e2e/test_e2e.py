"""Self-tests of the end-to-end benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  They drive
the real command on ``--quick`` horizons and take under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.ledger import LAYERS
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    """All four workloads, seed 1, with traced runs."""
    out = tmp_path_factory.mktemp("traced") / "doc.json"
    proc = bench("--seed", "1", "--seconds", "0", "--trace", "1", "--quick", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    return {"stdout": proc.stdout, "doc": json.loads(out.read_text())}


@pytest.fixture(scope="module")
def untraced_seed2(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("plain") / "doc.json"
    proc = bench("--seed", "2", "--seconds", "0", "--trace", "0", "--quick", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    return {"stdout": proc.stdout, "doc": json.loads(out.read_text())}


def test_spec_names_the_code_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_every_end_to_end_metric_prints_with_its_unit(untraced_seed2):
    lines = result_lines(untraced_seed2["stdout"])
    assert len(lines) == len(WORKLOADS)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= run.MIN_RUNS
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_every_per_layer_metric_prints_with_its_unit(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    lines = result_lines(traced["stdout"])
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert line["correct"] and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_traced_outcome_equals_untraced(traced):
    for name, result in traced["doc"]["workloads"].items():
        assert result["traced"], name
        for record in result["traced"] + result["runs"]:
            assert record["digest"] == result["digest"], name


def test_ledger_rows_sum_to_the_traced_run(traced):
    for name, result in traced["doc"]["workloads"].items():
        for record in result["traced"]:
            for phase in ("setup_ledger", "ledger"):
                report = record[phase]
                raw = sum(report["layers"][layer]["raw_s"] for layer in LAYERS)
                assert raw == pytest.approx(report["traced_s"], rel=0.01), (name, phase)
        rows = ["sim.engine.dispatch_share", "sim.engine.schedule_share"]
        rows += [f"{layer}.share" for layer in LAYERS if not layer.startswith("sim.engine.")]
        shares = {row: result["per_layer"][row]["value"] for row in rows}
        assert sum(shares.values()) == pytest.approx(100.0, abs=1.0), name
        assert shares["unattributed.share"] < 10.0, name
        assert result["per_layer"]["trace.overhead_frac"]["value"] > 0.0, name


def test_workloads_stress_what_they_were_chosen_for(traced, untraced_seed2):
    layers = {
        name: {k: v["value"] for k, v in result["per_layer"].items()}
        for name, result in traced["doc"]["workloads"].items()
    }
    assert layers["aant-real-150"]["crypto.setup_share"] > 50.0
    assert layers["aant-real-150"]["crypto.share"] > 5 * layers["fig1-agfw-150"]["crypto.share"]
    assert layers["fig1-gpsr-150"]["crypto.calls"] == 0
    rss = {
        name: result["metrics"]["peak_rss_mb"]["value"]
        for name, result in untraced_seed2["doc"]["workloads"].items()
    }
    assert max(rss, key=rss.get) == "cluster-2000-mobile"


def test_another_seed_changes_outcomes_not_correctness(traced, untraced_seed2):
    for name in WORKLOADS:
        one = traced["doc"]["workloads"][name]
        two = untraced_seed2["doc"]["workloads"][name]
        assert two["failed"] == 0 and two["correct"], name
        assert one["digest"] != two["digest"], name


def test_header_records_machine_calibration(untraced_seed2):
    header = untraced_seed2["doc"]["header"]
    assert header["nproc"] >= 1 and header["calibration_loop_s"] > 0


def _metric(value: float, q1: float, q3: float, n: int = 5) -> dict:
    return {"value": value, "unit": "us", "q1": q1, "q3": q3, "n": n}


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        (_metric(10, 9.9, 10.1), _metric(10.1, 10, 10.2), "lower", "same"),
        (_metric(10, 9.9, 10.1), _metric(13, 12.9, 13.1), "lower", "worse"),
        (_metric(10, 9.9, 10.1), _metric(8, 7.9, 8.1), "lower", "better"),
        (_metric(10, 9.9, 10.1), _metric(7, 6.9, 7.1), "higher", "worse"),
        (_metric(10, 7.0, 13.0), _metric(13, 12.9, 13.1), "lower", "unresolved"),
        (_metric(10, 9.0, 11.0), _metric(9.5, 9.4, 9.6), "lower", "same"),
        (_metric(10, 10, 10, n=1), _metric(8, 7.9, 8.1), "lower", "unresolved"),
    ],
)
def test_verdict(a, b, better, expected):
    assert run.verdict(a, b, better, 0.2) == expected


def _doc(path: Path, us: float, failed: int) -> str:
    metrics = {
        m["name"]: _metric(us, us * 0.99, us * 1.01) if m["name"] == "us_per_event"
        else _metric(1.0, 0.99, 1.01)
        for m in SPEC["end_to_end"]
    }
    workloads = {
        name: {"metrics": metrics, "attempted": 5, "failed": failed} for name in WORKLOADS
    }
    header = {"source": path.name, "nproc": 2, "calibration_loop_s": 0.02, "python": "3"}
    path.write_text(json.dumps({"header": header, "workloads": workloads}))
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    base = _doc(tmp_path / "a.json", 10.0, 0)
    assert run.compare(base, _doc(tmp_path / "same.json", 10.05, 0)) == 0
    assert run.compare(base, _doc(tmp_path / "faster.json", 8.0, 0)) == 0
    assert "better" in capsys.readouterr().out
    assert run.compare(base, _doc(tmp_path / "slower.json", 20.0, 0)) == 1
    assert "worse" in capsys.readouterr().out
    assert run.compare(base, _doc(tmp_path / "failing.json", 10.0, 1)) == 1
    assert "failed_frac" in capsys.readouterr().out


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig1-gpsr-150", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)
