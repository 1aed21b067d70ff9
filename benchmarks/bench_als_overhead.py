"""Sections 3.3 & 5: ALS vs DLM message/byte/crypto overhead.

The paper expects ALS "to be similar to the original location service
... one might also expect it to elegantly degrade a bit" — with the
admitted caveat that an updater pushes one encrypted entry per
anticipated sender.  This bench runs the identical lookup workload over
both services and regenerates the comparison table.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.experiments.overhead import (
    _run_service_point,
    format_location_service_comparison,
    run_location_service_comparison,
)

NUM_NODES = 40
NUM_LOOKUPS = 8
SENDERS_PER_NODE = 5


@pytest.mark.benchmark(group="als")
def test_als_vs_dlm_overhead(benchmark):
    reports = benchmark.pedantic(
        run_location_service_comparison,
        kwargs=dict(
            num_nodes=NUM_NODES,
            num_lookups=NUM_LOOKUPS,
            senders_per_node=SENDERS_PER_NODE,
            seed=11,
        ),
        rounds=1,
        iterations=1,
    )
    write_result("als_vs_dlm", format_location_service_comparison(reports))
    dlm = next(r for r in reports if r.service == "dlm")
    als = next(r for r in reports if r.service == "als")
    # Functionality is preserved...
    assert als.lookups_answered >= NUM_LOOKUPS // 2
    # ...at a cost: more messages (one per anticipated sender per update)
    # and cryptographic work DLM never does.
    assert als.messages > dlm.messages
    assert als.bytes > dlm.bytes
    assert als.crypto_ops > 0 and dlm.crypto_ops == 0
    benchmark.extra_info["als_over_dlm_bytes"] = round(als.bytes / dlm.bytes, 1)


@pytest.mark.benchmark(group="als")
def test_als_no_index_variant_costs_more(benchmark):
    """The paper's alternative (no index in LREQ) trades bandwidth for
    requester-index privacy: replies carry whole ciphertext sets."""

    def run():
        return [
            _run_service_point(
                "als", num_nodes=30, seed=13, num_lookups=5, warmup=15.0,
                include_index=include_index, senders_per_node=4,
            )
            for include_index in (True, False)
        ]

    with_index, without_index = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "als_index_variant",
        "ALS index vs no-index (paper's alternative scheme)\n"
        f"lookups answered with index:    "
        f"{with_index.lookups_answered}/{with_index.lookups}\n"
        f"lookups answered without index: "
        f"{without_index.lookups_answered}/{without_index.lookups}\n"
        f"bytes with index:    {with_index.bytes}\n"
        f"bytes without index: {without_index.bytes}\n"
        f"crypto ops with index:    {with_index.crypto_ops}\n"
        f"crypto ops without index: {without_index.crypto_ops}",
    )
    # The same service: the variant finds every target the index does...
    assert without_index.lookups_answered >= with_index.lookups_answered
    # ..."as a trade of anonymity, the communication and computation
    # overhead increase."
    assert without_index.bytes > with_index.bytes
    assert without_index.crypto_ops >= with_index.crypto_ops
