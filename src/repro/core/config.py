"""Configuration for the anonymous geographic routing scheme.

One dataclass per concern so experiments can ablate independently:
``AgfwConfig`` extends the shared routing parameters with the paper's
protocol knobs (network-layer ACK on/off — the Figure 1(a) ablation —
retransmission policy, next-hop strategy) and selects the crypto
*backend*: ``"modeled"`` charges the paper's calibrated delays/sizes
without running math; ``"real"`` runs the actual RSA/ring-signature
implementations from :mod:`repro.crypto`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.freshness import STRATEGIES
from repro.crypto.timing import DEFAULT_COST_MODEL, CryptoCostModel
from repro.domains import InstanceOf, Integer, Maybe, OneOf, checked, positive
from repro.routing.base import ROUTING_DOMAINS, RoutingConfig

__all__ = ["AantConfig", "AgfwConfig", "CryptoMode"]

CryptoMode = str  # "modeled" | "real"


@dataclass
class AantConfig:
    """Authenticated-ANT (ring signature) settings — paper Section 3.1.2."""

    ring_size: int = 4
    """Number of decoy signers k; anonymity set is k+1."""

    attach_certificates: bool = True
    """Attach full certificates (bootstrap) vs serial numbers only (warm cache)."""


@checked({
    **ROUTING_DOMAINS,
    "enable_ack": InstanceOf(bool),
    "ack_timeout": positive(),
    "max_retransmissions": Integer(0),
    "piggyback_acks": InstanceOf(bool),
    "pseudonym_memory": Integer(1),
    "next_hop_strategy": OneOf(tuple(STRATEGIES)),
    "enable_perimeter": InstanceOf(bool),
    "crypto_mode": OneOf(("modeled", "real")),
    "cost_model": InstanceOf(CryptoCostModel),
    "aant": Maybe(InstanceOf(AantConfig)),
})
@dataclass
class AgfwConfig(RoutingConfig):
    """All knobs of the anonymous routing scheme."""

    neighbor_timeout_factor: float = 2.0
    """ANT entries expire after ~2 beacon intervals — this must stay in
    step with ``pseudonym_memory``: the paper keys the two-pseudonym
    memory to "the continuous timeout of table entries", i.e. no live ANT
    entry should reference a pseudonym its owner has already forgotten."""

    enable_ack: bool = True
    """Network-layer ACK + retransmissions (AGFW vs AGFW-noACK in Fig 1a)."""

    ack_timeout: float = 0.030
    """Seconds a forwarder waits for the NL-ACK before retransmitting.

    Must exceed the committed forwarder's worst-case trapdoor-opening
    delay (8.5 ms) plus queueing."""

    max_retransmissions: int = 3
    """Retransmissions per hop before giving up on the committed forwarder."""

    piggyback_acks: bool = False
    """Let ACK references ride on outgoing data packets when one is queued."""

    pseudonym_memory: int = 2
    """How many of its own latest pseudonyms a node honours (paper: two)."""

    next_hop_strategy: str = "freshest_progress"
    """ANT candidate selection: 'best_position' | 'freshest_progress'
    (Sec 3.1.1: 'preferable to choose a fresher position rather than the
    best one')."""

    enable_perimeter: bool = False
    """Perimeter-mode recovery at greedy dead ends — the paper's stated
    future work ("recovery strategies like perimeter forwarding could be
    applied ... it should not be difficult to extend the scheme").
    Face routing runs on the Gabriel-planarized ANT, addressing next hops
    by pseudonym exactly like greedy mode, so anonymity is preserved."""

    crypto_mode: CryptoMode = "modeled"
    """'modeled' = charge calibrated costs; 'real' = run actual crypto."""

    cost_model: CryptoCostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)

    aant: Optional[AantConfig] = None
    """None = first-attempt ANT (unauthenticated); set to enable ring
    signatures.  The paper's Figure 1 runs 'the first version of ANT'."""
