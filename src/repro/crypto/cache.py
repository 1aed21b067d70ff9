"""Deterministic memo caches for the crypto fast path.

The paper replaces per-packet cryptography with a calibrated cost model;
our ``real`` backend actually runs RSA, RST ring signatures, and
trapdoor opens.  Those operations are *pure functions of their inputs*:

* verifying a CA signature over a certificate,
* verifying an RST ring signature over ``(message, ring, signature)``,
* attempting to open a trapdoor with ``(private key, ciphertext)``.

A hello broadcast is verified by every neighbor that hears it and a
trapdoor is attempted by every node in the last-hop region, so the same
modular exponentiations are repeated ``k * degree`` and ``region-size``
times per packet.  This module collapses the redundancy with bounded,
deterministic LRU memo caches — **without changing a single simulated
outcome**: cached or not, the caller charges the same
:class:`~repro.crypto.timing.CryptoCostModel` virtual-time delay, and
the memoized value equals what recomputation would produce (keys cover
every input the computation reads).

Every call site takes one ``memoize`` flag: ``True`` (default) consults
and fills the cache, ``False`` always recomputes and never touches it.
``ScenarioConfig(reference=True)`` runs without the memo; the test suite
proves the two trace identically and recomputes every hit to compare it
with the memoized value.

Why the registry may live at module scope: the stored values are pure
functions of their keys, so state persisting across
:class:`~repro.sim.engine.Simulator` instances is *outcome invisible* —
a warm cache returns exactly what a cold recomputation would, and the
charged delays do not depend on hit/miss.  The
determinism equivalence suite (``tests/test_crypto_cache.py``) runs
memoized and reference scenarios back-to-back in one process and
asserts byte-identical traces, which would catch any violation, and
the run-time determinism check (``tests/test_determinism.py``) runs
real-crypto scenarios back to back in one process against fresh
interpreters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, TypeVar

__all__ = [
    "CacheStats",
    "LruMemo",
    "memo",
    "cache_counters",
    "reset_caches",
    "CERT_VERIFY",
    "RING_VERIFY",
    "TRAPDOOR_OPEN",
]

T = TypeVar("T")

#: Canonical cache names used by the wired call sites.
CERT_VERIFY = "cert_verify"
RING_VERIFY = "ring_verify"
TRAPDOOR_OPEN = "trapdoor_open"

#: Bound chosen so a paper-scale run (50 nodes, ring 5, 900 s) never
#: evicts on the hot path while a pathological workload stays O(1) memory.
DEFAULT_MAXSIZE = 4096


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one memo cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class LruMemo:
    """A bounded, deterministic memo table with LRU eviction.

    Determinism: the store is an :class:`~collections.OrderedDict`
    (insertion/recency order only — never hash order), keys are built
    from digests and fingerprints (bytes/tuples, no object identity),
    and eviction is purely a function of the access sequence.  Two
    processes replaying the same access sequence hold identical tables.
    """

    def __init__(self, name: str, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if needed."""
        if key in self._store:
            self._store.move_to_end(key)
            self._store[key] = value
            return
        self._store[key] = value
        if len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.stats.evictions += 1

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], T], memoize: bool = True
    ) -> T:
        """Return the memoized value for ``key``, computing it on a miss;
        with ``memoize=False`` just return ``compute()``.

        ``compute`` must be a pure function of ``key``'s constituents;
        the caller is responsible for charging any virtual-time cost
        identically on hit and miss.
        """
        if not memoize:
            return compute()
        if key in self._store:
            self._store.move_to_end(key)
            self.stats.hits += 1
            return self._store[key]  # type: ignore[return-value]
        value = compute()
        self.put(key, value)
        self.stats.misses += 1
        return value

    def clear(self) -> None:
        """Drop all entries (counters are kept; they are cumulative)."""
        self._store.clear()


# Module-level registry — see the module docstring for the
# outcome-invisibility argument.
_REGISTRY: Dict[str, LruMemo] = {}


def memo(name: str, maxsize: int = DEFAULT_MAXSIZE) -> LruMemo:
    """The process-wide memo cache registered under ``name`` (created lazily).

    ``maxsize`` only applies on first creation; later callers share the
    existing instance regardless of the value they pass.
    """
    cache = _REGISTRY.get(name)
    if cache is None:
        cache = LruMemo(name, maxsize)
        _REGISTRY[name] = cache
    return cache


def cache_counters() -> Dict[str, Dict[str, int]]:
    """Snapshot of hit/miss/eviction counters for every registered cache.

    Sorted by cache name so formatted output is deterministic; surfaced
    to experiments through :func:`repro.metrics.crypto_cache_counters`.
    """
    return {
        name: dict(_REGISTRY[name].stats.snapshot(), size=len(_REGISTRY[name]))
        for name in sorted(_REGISTRY)
    }


def reset_caches() -> None:
    """Forget every registered cache (tests and benchmarks only).

    Simulation code never needs this: persistence across runs is
    outcome-invisible by construction.
    """
    _REGISTRY.clear()
