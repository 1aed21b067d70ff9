"""Tests for the experiment harness: security and overhead."""

from __future__ import annotations

from repro.experiments.overhead import (
    aant_overhead_table,
    format_aant_overhead,
    format_location_service_comparison,
    run_location_service_comparison,
)
from repro.experiments.security import format_exposure, run_exposure_experiment


# ---------------------------------------------------------------- security
def test_exposure_experiment_small():
    reports = run_exposure_experiment(sim_time=6.0, num_nodes=15, seed=3)
    by_protocol = {r.protocol: r for r in reports}
    assert by_protocol["gpsr"].doublets > 0
    assert by_protocol["agfw"].doublets == 0
    text = format_exposure(reports)
    assert "(id, loc) doublets" in text


# ---------------------------------------------------------------- overhead
def test_aant_table_rows():
    rows = aant_overhead_table(ring_sizes=(1, 2))
    assert [r.ring_size for r in rows] == [1, 2]
    assert rows[1].hello_bytes_with_certs > rows[0].hello_bytes_with_certs
    assert "k" in format_aant_overhead(rows)


def test_location_service_comparison_small():
    reports = run_location_service_comparison(
        num_nodes=25, num_lookups=4, senders_per_node=3, seed=19, warmup=10.0
    )
    services = [r.service for r in reports]
    assert services == ["dlm", "als"]
    als = reports[1]
    assert als.crypto_ops > 0
    text = format_location_service_comparison(reports)
    assert "dlm" in text and "als" in text
