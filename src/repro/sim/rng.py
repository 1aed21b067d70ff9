"""Deterministic random-number streams.

A simulation run must be reproducible from a single seed, yet individual
subsystems (mobility, traffic, MAC backoff, crypto nonces, ...) must not
perturb each other's streams when one of them draws a different number of
variates.  :class:`RngRegistry` derives an independent, stable
``random.Random`` stream per named subsystem from the master seed.

The determinism contract — a trace is a pure function of the config
and its master seed:

1. Every stream of randomness is a ``random.Random`` obtained from a
   registry (``node.rng(name)`` / ``RngRegistry.stream``) or seeded from
   a value that is itself derived from the master seed.  This module is
   the **only** place that constructs ``random.Random``; the
   process-global ``random`` module is never drawn from.
2. Simulated time comes from ``sim.now``, never the wall clock or OS
   entropy — no ``time.time``/``datetime.now``/``uuid4``/``os.urandom``
   in simulation code (DET-003).
3. Float sim-times are never compared with ``==``/``!=`` (DET-004), and
   event-ordering never depends on set iteration order.

``tests/test_determinism.py`` checks the contract at run time, by
full-record trace digests across hash seeds, processes and pool sizes;
four AST checks in ``tests/test_static_determinism.py`` flag the bugs
that agree from run to run on one machine.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed for ``name`` from ``master_seed``.

    Uses SHA-256 over ``master_seed || name`` so that streams are
    independent of registration order and of each other.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of named, independently seeded ``random.Random`` streams.

    Example
    -------
    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("mobility")
    >>> b = rngs.stream("traffic")
    >>> a is rngs.stream("mobility")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """Return a new registry whose master seed is derived from ``name``.

        Useful to give each simulated node its own registry so per-node
        subsystem streams stay independent across nodes.
        """
        return RngRegistry(derive_seed(self.seed, name))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
