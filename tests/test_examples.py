"""Smoke tests: every example script runs to completion.

Each example is executed in a subprocess with scaled-down parameters so
the whole file stays under a minute; output markers confirm the
interesting part actually happened (not just a clean exit).
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(script: str, *args: str, timeout: float = 180.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "delivered: 1 packet(s) at node 5" in out
    assert "pseudonym" in out
    assert "node-" not in out.split("sniffer reads them")[1].split("forwarding")[0]


def test_location_privacy_audit():
    out = _run("location_privacy_audit.py", "--nodes", "15", "--time", "8")
    assert "doublets captured: 0" in out  # AGFW side
    assert "identities exposed" in out
    assert "tracking coverage" in out


def test_anonymous_location_service():
    out = _run("anonymous_location_service.py", "--nodes", "30", "--seed", "5")
    assert "ciphertext entries" in out
    assert "resolved location" in out


def test_authenticated_neighbors():
    out = _run("authenticated_neighbors.py", "--ring-size", "2", "--nodes", "4")
    assert "neighbor tables poisoned: 0" in out
    assert "forged hellos rejected" in out


def test_density_sweep_quick(tmp_path):
    """The paper-scale Fig 1 spec keeps its 900 s shape, and shrunk to
    one density at 4 s it runs and reports both Fig 1 metrics."""
    import tomllib

    from repro.campaign import ResultStore, campaign_report, run_campaign, spec_from_mapping

    spec = tomllib.loads((EXAMPLES / "campaigns" / "fig1_full.toml").read_text())
    assert spec["base"] == {"sim_time": 900.0, "traffic_start": [1.0, 30.0]}
    assert len(spec_from_mapping(spec).points()) == 18  # 3 schemes x 6 densities
    spec["base"]["sim_time"] = 4.0
    spec["axes"]["num_nodes"] = [20]
    quick, store = spec_from_mapping(spec), ResultStore(tmp_path / "quick.store")
    assert run_campaign(quick, store).executed == 3
    report = campaign_report(quick, store)
    assert "delivery_fraction (num_nodes x protocol" in report
    assert "mean_latency_ms (num_nodes x protocol" in report
