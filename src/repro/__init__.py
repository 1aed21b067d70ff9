"""Anonymous geographic ad hoc routing — a full reproduction of
Zhou & Yow, *Anonymizing Geographic Ad Hoc Routing for Preserving
Location Privacy*.

The package bundles the paper's contribution (ANT / AANT / AGFW / ALS)
with everything it runs on: a discrete-event wireless simulator with an
802.11 DCF MAC, random-waypoint mobility, the GPSR baseline, the DLM
location service, a from-scratch crypto stack (RSA, RST ring signatures,
certificates), adversary models, the experiment harness, and the
campaign layer (:mod:`repro.campaign`) that regenerates the paper's
Fig 1 and faults tables from committed specs.

Quick tour
----------
>>> from repro.experiments import ScenarioConfig, run_scenario
>>> result = run_scenario(ScenarioConfig(protocol="agfw", num_nodes=50,
...                                      sim_time=20.0, seed=1))
>>> round(result.delivery_fraction, 2)  # doctest: +SKIP
0.99

Subpackages
-----------
``repro.core``        the paper's protocols (start here)
``repro.routing``     GPSR greedy + perimeter baseline
``repro.location``    oracle / DLM location services, geocast transport
``repro.crypto``      RSA, ring signatures, certificates, cost model
``repro.net``         radio medium, PHY, 802.11 DCF MAC, mobility, nodes
``repro.sim``         event engine, RNG streams, tracing
``repro.traffic``     CBR workloads
``repro.metrics``     delivery/latency/overhead collectors
``repro.adversary``   sniffers, doublet tracking, anonymity metrics
``repro.experiments`` scenario builder and per-table harnesses
``repro.campaign``    sweep specs, result store and reports (Fig 1, faults)
"""

from repro.core import AantConfig, AgfwConfig, AgfwRouter, AlsAgent, AlsConfig
from repro.experiments import ScenarioConfig, ScenarioResult, run_scenario
from repro.routing import GpsrConfig, GpsrRouter

__version__ = "1.0.0"

__all__ = [
    "AantConfig",
    "AgfwConfig",
    "AgfwRouter",
    "AlsAgent",
    "AlsConfig",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "GpsrConfig",
    "GpsrRouter",
    "__version__",
]
