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

__all__ = ["crypto_cache_counters", "crypto_cache_hit_rates", "format_crypto_cache_report"]


def crypto_cache_counters() -> Dict[str, Dict[str, int]]:
    """Per-cache counters: ``{name: {hits, misses, evictions, size}}``.

    Counters are cumulative for the process (the caches deliberately
    outlive any single :class:`~repro.sim.engine.Simulator`); take a
    snapshot before and after a run to attribute work to it.
    """
    return cache_counters()


def crypto_cache_hit_rates() -> Dict[str, float]:
    """Hit fraction per cache (0.0 when a cache has seen no lookups)."""
    rates: Dict[str, float] = {}
    for name, counters in cache_counters().items():
        lookups = counters["hits"] + counters["misses"]
        rates[name] = counters["hits"] / lookups if lookups else 0.0
    return rates


def format_crypto_cache_report() -> str:
    """A deterministic, human-readable table of cache counters."""
    lines = ["crypto cache      hits    misses  evict  hit-rate"]
    for name, counters in cache_counters().items():
        lookups = counters["hits"] + counters["misses"]
        rate = counters["hits"] / lookups if lookups else 0.0
        lines.append(
            f"{name:<15} {counters['hits']:>7} {counters['misses']:>9} "
            f"{counters['evictions']:>6}  {rate:7.1%}"
        )
    return "\n".join(lines)
