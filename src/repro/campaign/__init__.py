"""Campaign layer: declarative sweep matrices over a cached result store.

The paper's claims are statements about *sweeps* (delivery/latency
crossovers vs density, robustness vs impairment dose), and ROADMAP item
2 wants millions of runs — so runs are cheap, cached, and resumable:

* :mod:`repro.campaign.spec` — a TOML/JSON file → cartesian product of
  ``ScenarioConfig`` axes with per-point derived seeds;
* :mod:`repro.campaign.digest` — content addressing:
  ``sha256(canonical config + version salt)``;
* :mod:`repro.campaign.store` — one atomic JSON record per completed
  point, ``<root>/<digest[:2]>/<digest>.json``;
* :mod:`repro.campaign.executor` — resumable/interruptible execution on
  ``parallel_map`` (workers persist their own records);
* :mod:`repro.campaign.report` — percentile tables + per-axis crossover
  detection, byte-identical for any execution history.

CLI: ``python -m repro.campaign run|status|report <spec>``.
"""

from repro.campaign.digest import RESULT_SALT, config_digest
from repro.campaign.executor import RunSummary, campaign_progress, point_record, run_campaign
from repro.campaign.report import IncompleteCampaignError, campaign_report
from repro.campaign.spec import (
    METRIC_NAMES,
    CampaignPoint,
    CampaignSpec,
    CampaignSpecError,
    SweepSpec,
    load_spec,
    spec_from_mapping,
)
from repro.campaign.store import ResultStore

__all__ = [
    "RESULT_SALT",
    "config_digest",
    "RunSummary",
    "campaign_progress",
    "point_record",
    "run_campaign",
    "IncompleteCampaignError",
    "campaign_report",
    "METRIC_NAMES",
    "CampaignPoint",
    "CampaignSpec",
    "CampaignSpecError",
    "SweepSpec",
    "load_spec",
    "spec_from_mapping",
    "ResultStore",
]
