"""Metrics: online collectors, summary statistics, crypto-cache and
fault-injection counters."""

from repro.metrics.collectors import DeliveryCollector, OverheadCollector
from repro.metrics.crypto import crypto_cache_counters
from repro.metrics.faults import FaultMetrics
from repro.metrics.stats import Summary, mean_confidence_interval, percentile, summarize

__all__ = [
    "DeliveryCollector",
    "OverheadCollector",
    "Summary",
    "FaultMetrics",
    "crypto_cache_counters",
    "mean_confidence_interval",
    "percentile",
    "summarize",
]
