"""Observability for the crypto fast path (repro.crypto.cache).

The memo caches are outcome-invisible by construction, so the only
externally interesting signal is *how much work they saved*: hit/miss/
eviction counters per cache.  This module surfaces them through
``repro.metrics`` so experiments and benchmarks report cache efficacy
next to delivery/overhead numbers.
"""

from __future__ import annotations

from typing import Dict

from repro.crypto.cache import cache_counters

__all__ = ["crypto_cache_counters"]


def crypto_cache_counters() -> Dict[str, Dict[str, int]]:
    """Per-cache counters: ``{name: {hits, misses, evictions, size}}``.

    Counters are cumulative for the process (the caches deliberately
    outlive any single :class:`~repro.sim.engine.Simulator`); take a
    snapshot before and after a run to attribute work to it.
    """
    return cache_counters()
