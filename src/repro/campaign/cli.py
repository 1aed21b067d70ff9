"""``campaign run | status | report`` — the sweep-campaign CLI.

Run as::

    python -m repro.campaign run examples/campaigns/smoke.toml

``run`` is resumable and interruptible: Ctrl-C leaves every completed
point durable in the store and a rerun executes only the missing cells
(exit code 130 signals the interruption).  ``status`` diffs the matrix
against the store without running anything.  ``report`` renders the
deterministic stats/crossover report — byte-identical however the
matrix was filled.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.campaign.executor import campaign_progress, run_campaign
from repro.campaign.report import IncompleteCampaignError, campaign_report
from repro.campaign.spec import CampaignSpec, CampaignSpecError, load_spec
from repro.campaign.store import ResultStore

__all__ = ["main"]


def _default_store(spec_path: pathlib.Path) -> pathlib.Path:
    return spec_path.with_suffix(".store")


def _load(args) -> tuple[CampaignSpec, ResultStore]:
    spec_path = pathlib.Path(args.spec)
    spec = load_spec(spec_path)
    store_root = args.store if args.store else _default_store(spec_path)
    return spec, ResultStore(store_root)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="campaign", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="campaign file (.toml or .json)")
        p.add_argument(
            "--store", type=pathlib.Path, default=None,
            help="result store directory (default: <spec>.store)",
        )

    p_run = sub.add_parser("run", help="execute every missing point of the matrix")
    add_common(p_run)
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for missing points (results identical for any value)",
    )

    p_status = sub.add_parser("status", help="diff the matrix against the store")
    add_common(p_status)

    p_report = sub.add_parser("report", help="render the stats/crossover report")
    add_common(p_report)
    p_report.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="write the report here instead of stdout",
    )

    args = parser.parse_args(argv)
    try:
        spec, store = _load(args)
    except (CampaignSpecError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        try:
            summary = run_campaign(spec, store, jobs=args.jobs, echo=print)
        except KeyboardInterrupt:
            done, missing = campaign_progress(spec, store)
            print(
                f"\ninterrupted — {len(done)}/{len(done) + len(missing)} points "
                f"durable in {store.root}; rerun to resume"
            )
            return 130
        print(f"campaign {spec.name!r}: {summary} -> {store.root}")
        return 0

    if args.command == "status":
        done, missing = campaign_progress(spec, store)
        total = len(done) + len(missing)
        state = "complete" if not missing else "incomplete"
        print(f"campaign {spec.name!r}: {len(done)}/{total} points ({state})")
        if missing:
            preview = ", ".join(point.label for point, _d in missing[:4])
            more = f" (+{len(missing) - 4} more)" if len(missing) > 4 else ""
            print(f"missing: {preview}{more}")
        return 0 if not missing else 1

    # report
    try:
        text = campaign_report(spec, store)
    except IncompleteCampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
