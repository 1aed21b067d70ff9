"""Content addressing for campaign results.

A result is addressed by ``sha256(canonical config JSON + version
salt)``.  The three ingredients of the key:

* **canonical config digest** — ``ScenarioConfig.canonical_dict()``
  flattens the config (nested fault plans included) to a JSON-stable
  form; ``json.dumps(sort_keys=True, separators=(",", ":"))`` makes the
  byte string independent of field declaration order, dict insertion
  order, and interpreter hash randomization.
* **seed** — already a field of the config, so it participates in the
  canonical form; two replicates of one cell differ only here and hash
  apart.
* **code-relevant version salt** — :data:`RESULT_SALT`.  Bump it when a
  change alters what a stored record *means* (simulation outcomes, the
  record schema, metric definitions); every old cache entry then misses
  and reruns.  Pure performance work (pooling, vectorization, memos) is
  proven trace-invariant against ``reference=True`` runs by the test
  suite and does NOT bump the salt — that invariance is exactly what
  makes the cache safe.

The digest is stable across process restarts, ``--jobs`` pool workers,
and machines: it reads no filesystem state, no wall clock, and no
addresses.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments.scenario import ScenarioConfig

__all__ = ["RESULT_SALT", "config_digest", "canonical_payload"]

#: Version salt folded into every key.  Bump ONLY when stored records
#: change meaning; see the module docstring.
RESULT_SALT = "repro-campaign/records-v1"


def canonical_payload(config: ScenarioConfig, salt: str = RESULT_SALT) -> bytes:
    """The exact byte string that gets hashed (exposed for tests/debugging)."""
    document = {"config": config.canonical_dict(), "salt": salt}
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def config_digest(config: ScenarioConfig, salt: str = RESULT_SALT) -> str:
    """The content address (64 hex chars) of ``config``'s result."""
    return hashlib.sha256(canonical_payload(config, salt)).hexdigest()
