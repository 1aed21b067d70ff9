"""The crypto fast path: memo mechanics, outcome invariance, bench floor.

Three layers of assurance for ``repro.crypto.cache``:

1. **Mechanics** — ``LruMemo`` hit/miss/eviction behaviour is exact and
   deterministic, including under a tiny ``maxsize`` where eviction is
   constantly exercised.
2. **Outcome invariance** — the wired call sites (CA verify, ring
   verify, trapdoor open) return identical results cached or not, and a
   full real-crypto scenario produces *byte-identical traces* with and
   without the memo (``reference=True``) for multiple seeds.  The
   ``checked_memo`` fixture additionally proves every individual
   memoized value against recomputation.
3. **The committed benchmark artifact** — ``BENCH_crypto.json`` must
   record the acceptance-criterion speedups (the CI bench job regenerates
   and gates; this suite floors the committed numbers).
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.core.aant import AantAuthenticator
from repro.core.config import AantConfig
from repro.core.trapdoor import TrapdoorContents, TrapdoorFactory
from repro.crypto.cache import (
    CERT_VERIFY,
    RING_VERIFY,
    TRAPDOOR_OPEN,
    LruMemo,
    cache_counters,
    memo,
    reset_caches,
)
from repro.crypto.rsa import generate_keypair
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.geo.vec import Position
from repro.metrics import crypto_cache_counters
from tests.conftest import assert_reference_matches


# ---------------------------------------------------------------- mechanics
def test_lru_memo_hit_miss_counters():
    cache = LruMemo("t", maxsize=8)
    calls = []

    def compute():
        calls.append(1)
        return 42

    assert cache.get_or_compute("k", compute) == 42
    assert cache.get_or_compute("k", compute) == 42
    assert len(calls) == 1  # second lookup memoized
    assert cache.stats.misses == 1 and cache.stats.hits == 1
    assert "k" in cache and len(cache) == 1


def test_lru_memo_eviction_under_tiny_maxsize():
    """A maxsize-2 cache stays *correct* while constantly evicting: every
    value still equals recomputation, only the hit rate suffers."""
    cache = LruMemo("tiny", maxsize=2)
    for round_ in range(3):
        for key in range(5):
            value = cache.get_or_compute(key, lambda k=key: k * 10)
            assert value == key * 10
    assert len(cache) == 2
    assert cache.stats.evictions > 0
    # 5 distinct keys cycling through a 2-slot cache: every access after
    # the first round is still a miss (the LRU tail is always the next key).
    assert cache.stats.misses == 15 and cache.stats.hits == 0


def test_lru_memo_recency_order_not_hash_order():
    cache = LruMemo("lru", maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get_or_compute("a", lambda: 1)  # refresh "a" -> "b" becomes LRU
    cache.put("c", 3)  # evicts "b", not "a"
    assert "a" in cache and "c" in cache and "b" not in cache


def test_lru_memo_put_refresh_does_not_evict():
    cache = LruMemo("r", maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh in place
    assert len(cache) == 2 and cache.stats.evictions == 0


def test_lru_memo_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        LruMemo("bad", maxsize=0)


def test_off_mode_never_touches_store():
    cache = LruMemo("off", maxsize=8)
    calls = []
    for _ in range(3):
        cache.get_or_compute("k", lambda: calls.append(1) or 7, memoize=False)
    assert len(calls) == 3 and len(cache) == 0
    assert cache.stats.hits == 0 and cache.stats.misses == 0


def test_cross_mode_agrees_and_counts(checked_memo):
    cache = LruMemo("x", maxsize=8)
    calls = []

    def compute():
        calls.append(1)
        return 5

    assert cache.get_or_compute("k", compute) == 5  # miss
    assert cache.get_or_compute("k", compute) == 5  # checked hit
    assert len(calls) == 2  # the hit was recomputed
    assert cache.stats.misses == 1 and cache.stats.hits == 1


def test_cross_mode_detects_poisoned_entry(checked_memo):
    cache = LruMemo("poison", maxsize=8)
    cache.put("k", "stale")
    with pytest.raises(AssertionError, match="memoized 'stale' != recomputed 'fresh'"):
        cache.get_or_compute("k", lambda: "fresh")


def test_registry_shares_instances_and_resets():
    reset_caches()
    a = memo("shared")
    b = memo("shared")
    assert a is b
    a.put("k", 1)
    reset_caches()
    assert "k" not in memo("shared")


# ------------------------------------------------------------------ metrics
def test_metrics_surface_cache_counters():
    reset_caches()
    cache = memo("metrics_demo")
    cache.get_or_compute("k", lambda: 1)
    cache.get_or_compute("k", lambda: 1)
    counters = crypto_cache_counters()
    assert counters == cache_counters()
    assert counters["metrics_demo"]["hits"] == 1
    assert counters["metrics_demo"]["misses"] == 1
    assert counters["metrics_demo"]["size"] == 1
    reset_caches()


# ------------------------------------------------------- wired call sites
def test_ca_verify_caches_signature_but_not_revocation(ca_with_nodes):
    """Only the pure signature check is memoized; revocation is consulted
    fresh on every call, so revoking a cert invalidates it immediately
    even with a warm cache."""
    ca, stores = ca_with_nodes
    cert = stores[0].certificate
    reset_caches()
    assert ca.verify(cert)
    assert cache_counters()[CERT_VERIFY]["misses"] == 1
    assert ca.verify(cert)
    assert cache_counters()[CERT_VERIFY]["hits"] == 1
    ca.revoke(cert.serial)
    try:
        assert not ca.verify(cert)  # warm cache cannot resurrect it
    finally:
        ca._revoked.discard(cert.serial)  # leave shared fixture clean
    assert ca.verify(cert)
    reset_caches()


def test_ring_verify_cached_across_receivers(ca_with_nodes):
    """One signed hello heard by several receivers costs one real ring
    verification; the rest are memo hits with identical verdicts."""
    ca, stores = ca_with_nodes
    signer = AantAuthenticator(
        AantConfig(ring_size=3), mode="real",
        keystore=stores[0], ca=ca, rng=random.Random(0),
    )
    args = (b"\x05" * 6, Position(3.0, 4.0), 2.0)
    attachment, _ = signer.sign_hello(*args)
    reset_caches()
    for index in range(1, 4):
        verifier = AantAuthenticator(
            AantConfig(ring_size=3), mode="real", keystore=stores[index], ca=ca
        )
        valid, delay = verifier.verify_hello(attachment, *args)
        assert valid
        assert delay == pytest.approx(
            verifier.cost.ring_verify_cost(attachment.ring_size)
        )  # hits charge the same virtual time as the miss
    counters = cache_counters()[RING_VERIFY]
    assert counters["misses"] == 1 and counters["hits"] == 2
    reset_caches()


def test_trapdoor_negative_open_is_memoized():
    """The expensive common case: a non-destination node failing to open a
    trapdoor.  The None result memoizes like any other."""
    rng = random.Random(11)
    dest_key = generate_keypair(512, rng)
    other_key = generate_keypair(512, rng)
    factory = TrapdoorFactory("real", rng=rng)
    contents = TrapdoorContents("src", Position(1, 2), 0.5)
    trapdoor, _ = factory.seal("dest", dest_key.public(), contents)
    reset_caches()
    for _ in range(3):
        opened, delay = factory.try_open(trapdoor, "other", other_key)
        assert opened is None
        assert delay > 0  # the cost model charge survives the memo hit
    counters = cache_counters()[TRAPDOOR_OPEN]
    assert counters["misses"] == 1 and counters["hits"] == 2
    # ... and the true destination still opens it.
    opened, _ = factory.try_open(trapdoor, "dest", dest_key)
    assert opened is not None and opened.src_identity == contents.src_identity
    reset_caches()


# --------------------------------------------------- end-to-end invariance
def _real_scenario(seed: int, **overrides) -> ScenarioConfig:
    return ScenarioConfig(
        protocol="agfw",
        num_nodes=12,
        sim_time=4.0,
        traffic_start=(0.5, 1.5),
        num_flows=4,
        num_senders=4,
        seed=seed,
        real_crypto=True,
        aant_ring_size=2,
        **overrides,
    )


@pytest.mark.parametrize("seed", [3, 17])
def test_cache_modes_byte_identical_traces(seed, checked_memo, checked_medium):
    """The acceptance criterion: an end-to-end AANT + trapdoor run under
    real crypto emits byte-identical traces with and without the memo,
    and every memo hit equals its recomputation."""
    reset_caches()
    assert_reference_matches(_real_scenario(seed))
    reset_caches()


def test_scenario_on_mode_actually_hits():
    """Guard against the fast path silently disconnecting: a real-crypto
    run with caches on must register hits on the wired call sites, and
    the reference run none at all."""
    reset_caches()
    Scenario(_real_scenario(seed=3, reference=True)).run()
    assert all(c["hits"] + c["misses"] == 0 for c in cache_counters().values())
    Scenario(_real_scenario(seed=3)).run()
    counters = cache_counters()
    assert counters[CERT_VERIFY]["hits"] > 0
    assert counters[RING_VERIFY]["hits"] > 0
    reset_caches()


def test_scenario_rejects_bad_cache_mode():
    with pytest.raises(ValueError, match="reference must be a bool"):
        _real_scenario(seed=1, reference="off")


# ------------------------------------------------------ committed baseline
def test_committed_crypto_baseline_meets_speedup_floors():
    """The acceptance criterion lives in the committed artifact: the
    recorded cached-vs-uncached speedup for the repeated hello-verify
    workload (ring size 5, 10 receivers) must be >= 3x."""
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "BENCH_crypto.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["schema_version"] == 1
    assert document["suite"] == "crypto"
    assert document["derived"]["hello_verify_cached_speedup"] >= 3.0
    assert document["derived"]["trapdoor_open_cached_speedup"] >= 3.0
    assert document["derived"]["crt_precompute_speedup"] >= 1.0
