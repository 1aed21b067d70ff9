"""One-stop runner for the tables that are not campaign specs.

``python -m repro.experiments.runner`` prints the privacy-exposure,
AANT-overhead and ALS-vs-DLM tables.  They stay here because their
outputs (sniffer yields, per-ring-size byte costs, location-service
message counts) do not fit a campaign point record.

Fig 1 and the faults sweep are campaign specs under
``examples/campaigns``; ``python -m repro.experiments.runner campaign
run|status|report <spec>`` mounts the campaign CLI (declarative matrix +
content-addressed result cache; see :mod:`repro.campaign`).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.overhead import (
    aant_overhead_table,
    format_aant_overhead,
    format_location_service_comparison,
    run_location_service_comparison,
)
from repro.experiments.security import format_exposure, run_exposure_experiment

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        # Sweep campaigns (declarative matrix + cached result store) are
        # a subcommand so `runner` stays the one entry point; see
        # repro.campaign.cli for run | status | report.
        from repro.campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sim-time",
        type=float,
        default=20.0,
        help="base horizon; the exposure run takes min(3 x this, 60) s",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent experiment points "
        "(output is byte-identical for any value)",
    )
    parser.add_argument(
        "--skip",
        nargs="*",
        default=[],
        choices=["exposure", "aant", "als"],
        help="experiments to skip",
    )
    args = parser.parse_args(argv)

    if "exposure" not in args.skip:
        print("# Privacy exposure (Sections 2 & 4)\n")
        reports = run_exposure_experiment(
            sim_time=min(args.sim_time * 3, 60.0), seed=args.seed, jobs=args.jobs
        )
        print(format_exposure(reports))
        print()

    if "aant" not in args.skip:
        print("# AANT overhead (Section 4)\n")
        print(format_aant_overhead(aant_overhead_table()))
        print()

    if "als" not in args.skip:
        print("# ALS vs DLM overhead (Sections 3.3 & 5)\n")
        reports = run_location_service_comparison(seed=args.seed, jobs=args.jobs)
        print(format_location_service_comparison(reports))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
