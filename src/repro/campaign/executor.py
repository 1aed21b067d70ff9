"""Resumable campaign execution on top of ``parallel_map``.

The executor is a cache-filling loop, not a scheduler: it diffs the
spec's point matrix against the store, runs only the missing cells, and
lets each *worker* persist its own record the moment the simulation
finishes.  That single decision buys every durability property the
campaign layer sells:

* **SIGINT-safe** — interrupt the parent at any instant; every point
  whose worker completed is already on disk (atomic write-then-rename),
  so a rerun picks up exactly the missing cells.  No checkpoint file,
  no journal: the store *is* the progress state.
* **jobs-invariant** — a record is a pure function of the point's
  config, so cold/warm, serial/pooled, interrupted/uninterrupted runs
  converge on byte-identical stores (modulo nothing: records exclude
  wall-clock measurements) and therefore byte-identical reports.
* **crash-isolated** — a hard worker death surfaces as
  :class:`~repro.experiments.parallel.WorkerCrashError` naming the
  unfinished points; completed siblings stay durable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.digest import RESULT_SALT, config_digest
from repro.campaign.spec import METRIC_NAMES, CampaignPoint, CampaignSpec
from repro.campaign.store import ResultStore
from repro.experiments.parallel import parallel_map
from repro.experiments.scenario import ScenarioResult, run_scenario

__all__ = ["RunSummary", "point_record", "campaign_progress", "run_campaign"]

RECORD_SCHEMA = 1

_Item = Tuple[str, str, CampaignPoint]  # (digest, store root, point)


@dataclass(frozen=True)
class RunSummary:
    """What one ``run_campaign`` call did."""

    total: int
    cached: int
    executed: int

    @property
    def complete(self) -> bool:
        return self.cached + self.executed == self.total

    def __str__(self) -> str:
        return (
            f"{self.total} points — {self.cached} cache hits, "
            f"{self.executed} executed"
        )


def _finite(value: float) -> Optional[float]:
    """JSON-safe metric value: non-finite (0-goodput overhead) → None."""
    return value if math.isfinite(value) else None


def point_record(
    point: CampaignPoint, digest: str, result: ScenarioResult
) -> Dict[str, object]:
    """The stored form of one completed point.

    Only deterministic fields go in: wall-clock measurements are
    excluded entirely so stores — and the reports derived from them —
    are byte-identical however and whenever the campaign ran.
    """
    latency = result.latency
    metrics: Dict[str, object] = {
        "delivery_fraction": result.delivery_fraction,
        "mean_latency_ms": result.mean_latency * 1000.0,
        "latency_p50_ms": latency.p50 * 1000.0 if latency else None,
        "latency_p95_ms": latency.p95 * 1000.0 if latency else None,
        "sent": result.sent,
        "delivered": result.delivered,
        "collisions": result.collisions,
        "overhead_ratio": _finite(result.overhead_ratio),
    }
    assert set(metrics) == set(METRIC_NAMES)
    return {
        "schema": RECORD_SCHEMA,
        "digest": digest,
        "salt": RESULT_SALT,
        "seed": point.config.seed,
        "sweep": point.sweep,
        "axes": {k: v for k, v in point.axes},
        "seed_index": point.seed_index,
        "metrics": metrics,
        "bytes_by_kind": dict(sorted(result.bytes_by_kind.items())),
        "fault_counters": dict(sorted(result.fault_counters.items())),
    }


def _execute_point(item: _Item) -> str:
    """Worker for one missing cell — top-level so it pickles.

    Persists its own record before returning, so completion implies
    durability even when the parent never collects the result.
    """
    digest, root, point = item
    result = run_scenario(point.config)
    ResultStore(root).put(digest, point_record(point, digest, result))
    return digest


def campaign_progress(
    spec: CampaignSpec, store: ResultStore
) -> Tuple[List[Tuple[CampaignPoint, str]], List[Tuple[CampaignPoint, str]]]:
    """Diff the matrix against the store: (done, missing) point lists,
    each entry ``(point, digest)``, in canonical matrix order."""
    done: List[Tuple[CampaignPoint, str]] = []
    missing: List[Tuple[CampaignPoint, str]] = []
    for point in spec.points():
        digest = config_digest(point.config)
        (done if store.has(digest) else missing).append((point, digest))
    return done, missing


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    jobs: int = 1,
    echo: Optional[Callable[[str], None]] = None,
) -> RunSummary:
    """Fill the store with every missing point of ``spec``'s matrix.

    Completed points are cache hits and never rerun; only the missing
    cells execute, fanned over ``jobs`` processes.
    Safe to interrupt and re-invoke: the call converges on the complete
    matrix across any number of partial runs.
    """
    say = echo if echo is not None else (lambda _msg: None)
    done, missing = campaign_progress(spec, store)
    say(
        f"campaign {spec.name!r}: {len(done)}/{len(done) + len(missing)} "
        f"points cached, executing {len(missing)}"
    )
    if missing:
        parallel_map(
            _execute_point,
            [(digest, str(store.root), point) for point, digest in missing],
            jobs=jobs,
            describe=lambda item: item[2].label,
        )
    return RunSummary(
        total=len(done) + len(missing), cached=len(done), executed=len(missing)
    )
