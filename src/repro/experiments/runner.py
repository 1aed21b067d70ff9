"""One-stop reproduction runner.

``python -m repro.experiments.runner`` regenerates every table/figure of
the paper at a configurable scale and prints the same series the paper
reports.  ``--full`` uses the paper's 900 s horizon (slow: pure-Python
discrete-event simulation); the default is a scaled-down sweep that
preserves the shapes.

``python -m repro.experiments.runner campaign run|status|report <spec>``
mounts the sweep-campaign CLI (declarative matrix + content-addressed
result cache; see :mod:`repro.campaign`).
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys

from repro.experiments.fig1 import (
    DEFAULT_NODE_COUNTS,
    format_fig1a,
    format_fig1b,
    run_fig1,
)
from repro.experiments.faults_sweep import format_faults_sweep, run_faults_sweep
from repro.faults import LOSS_MODELS
from repro.experiments.overhead import (
    aant_overhead_table,
    format_aant_overhead,
    format_location_service_comparison,
    run_location_service_comparison,
)
from repro.experiments.scenario import ScenarioConfig
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
    parser.add_argument("--full", action="store_true", help="paper-scale 900 s runs")
    parser.add_argument("--sim-time", type=float, default=None, help="seconds per point")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent experiment points "
        "(output is byte-identical for any value)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        type=int,
        const=25,
        default=None,
        metavar="TOP_N",
        help="run everything under cProfile and write the top-N "
        "cumulative-time rows (default 25) to benchmarks/results/",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        nargs="*",
        default=None,
        help="node counts for the density sweep",
    )
    parser.add_argument(
        "--skip",
        nargs="*",
        default=[],
        choices=["fig1", "exposure", "aant", "als", "faults"],
        help="experiments to skip",
    )
    parser.add_argument(
        "--loss-model",
        choices=LOSS_MODELS,
        default="none",
        help="channel-loss model applied to the density sweep "
        "(the default 'none' keeps the pre-fault byte-identical traces)",
    )
    parser.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        help="loss dose for --loss-model (Bernoulli/steady-state drop "
        "probability or distance-loss ceiling)",
    )
    parser.add_argument(
        "--fault-churn",
        type=float,
        nargs="*",
        default=None,
        metavar=("RATE", "DOWNTIME"),
        help="inject seeded node churn into the density sweep: expected "
        "crashes per node over the run, optionally followed by the mean "
        "downtime in seconds",
    )
    args = parser.parse_args(argv)
    if args.loss_model == "none" and args.loss_rate:
        parser.error("--loss-rate requires --loss-model")
    churn = None
    if args.fault_churn is not None:
        if not 1 <= len(args.fault_churn) <= 2:
            parser.error("--fault-churn takes RATE [MEAN_DOWNTIME]")
        churn = (args.fault_churn[0], args.fault_churn[1] if len(args.fault_churn) == 2 else None)

    sim_time = args.sim_time if args.sim_time is not None else (900.0 if args.full else 20.0)
    counts = tuple(args.nodes) if args.nodes else (
        DEFAULT_NODE_COUNTS if args.full else (50, 100, 112, 150)
    )

    if args.profile is not None:
        # Results are printed as usual; the profile rides alongside as a
        # deterministically named artifact (no timestamps — reruns
        # overwrite, diffs stay reviewable).
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            _run_experiments(args, sim_time, counts, churn)
        finally:
            profiler.disable()
            out_dir = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"
            out_dir.mkdir(parents=True, exist_ok=True)
            out_path = out_dir / f"profile_runner_seed{args.seed}.txt"
            with out_path.open("w", encoding="utf-8") as fh:
                stats = pstats.Stats(profiler, stream=fh)
                stats.strip_dirs().sort_stats("cumulative").print_stats(args.profile)
            print(f"[profile] top-{args.profile} cumulative rows -> {out_path}")
    else:
        _run_experiments(args, sim_time, counts, churn)
    return 0


def _run_experiments(args, sim_time: float, counts: tuple, churn) -> None:
    if "fig1" not in args.skip:
        impairments = []
        if args.loss_model != "none":
            impairments.append(f"loss {args.loss_model} p={args.loss_rate:g}")
        if churn is not None:
            impairments.append(f"churn r={churn[0]:g}")
        suffix = f", {'; '.join(impairments)}" if impairments else ""
        print(f"# Density sweep ({sim_time:.0f} s per point, seed {args.seed}{suffix})\n")
        points = run_fig1(
            node_counts=counts,
            sim_time=sim_time,
            seed=args.seed,
            jobs=args.jobs,
            base=ScenarioConfig(loss_model=args.loss_model, loss_rate=args.loss_rate),
            churn=churn,
        )
        print(format_fig1a(points))
        print()
        print(format_fig1b(points))
        print()

    if "exposure" not in args.skip:
        print("# Privacy exposure (Sections 2 & 4)\n")
        reports = run_exposure_experiment(
            sim_time=min(sim_time * 3, 60.0), seed=args.seed, jobs=args.jobs
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

    if "faults" not in args.skip:
        fault_time = min(sim_time, 20.0)
        print(f"# Robustness sweep ({fault_time:.0f} s per point, seed {args.seed})\n")
        fault_points = run_faults_sweep(
            sim_time=fault_time,
            seed=args.seed,
            jobs=args.jobs,
            base=ScenarioConfig(),
        )
        print(format_faults_sweep(fault_points))
        print()


if __name__ == "__main__":
    sys.exit(main())
