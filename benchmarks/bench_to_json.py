#!/usr/bin/env python
"""Run a benchmark suite and emit a slim, versioned JSON baseline.

``pytest-benchmark``'s native ``--benchmark-json`` output is rich but
noisy (hostnames, timestamps, per-round samples) — unsuitable for
committing and diffing.  This harness runs a suite, distills it to a
stable machine-readable document, and can compare a fresh run against a
committed baseline:

    # regenerate the committed baselines
    python benchmarks/bench_to_json.py --output benchmarks/BENCH_substrate.json
    python benchmarks/bench_to_json.py --suite crypto \\
        --output benchmarks/BENCH_crypto.json

    # CI smoke: fresh run, fail if any benchmark slowed >2x vs baseline
    python benchmarks/bench_to_json.py --output /tmp/bench_now.json \\
        --compare benchmarks/BENCH_substrate.json --max-regression 2.0

Output schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "suite": "substrate" | "crypto" | ... | "campaign",
      "benchmarks": {"<name>": {"mean_s": ..., "stddev_s": ..., "rounds": ...,
                                "extra_info": {...}}},   # only when recorded
      "derived": {"<metric>": <numerator / denominator>}
    }

A derived metric's numerator/denominator is a benchmark's mean.

Absolute means are hardware-dependent; the *ratios* (the derived
speedups and the regression comparison) are what the numbers are for.

``--suite all`` runs nothing: it folds every committed
``BENCH_<suite>.json`` into one flat document (names and derived
metrics prefixed ``<suite>:``) so the whole perf history can be
tracked — and regression-compared — as a single file.

Suites:

* ``substrate`` — medium fan-out / engine throughput (PR 2); derived
  ``fanout_speedup_150_nodes`` (grid vs brute).
* ``crypto`` — RSA/ring/trapdoor primitives plus the crypto fast path
  (PR 3); derived cached-vs-uncached speedups for the hello-verify and
  trapdoor-open workloads and the CRT precompute micro-benchmark.
* ``engine`` — event throughput and the tracer fast path (PR 4);
  derived ``trace_drop_path_speedup`` (trace keep-vs-drop path ratio).
* ``faults`` — fault-injection machinery (PR 5): loss-model draw
  throughput plus end-to-end scenarios under each impairment regime;
  derived ``*_scenario_overhead`` ratios vs the unimpaired leg (the
  zero-cost-when-disabled guarantee).
* ``analysis`` — the static-analysis engine (PR 6): full ``src/`` lint,
  uncached and with a cold vs warm incremental cache; derived
  ``incremental_cache_speedup`` (rule dispatch skipped on unchanged
  files).
* ``hotpath`` — the vectorized core (PR 7): neighbor-gather and batch
  mobility micro-kernels (brute scalar vs numpy-batched; acceptance
  floor 5x each) and a 150-node end-to-end scenario on the brute scan
  vs the array index (floor 1.3x).
* ``campaign`` — the campaign layer (PR 10): one 8-point matrix run
  cold (empty store) vs warm (pre-filled store); derived
  ``campaign_warm_cache_speedup`` (acceptance floor: 10x — reruns of a
  completed campaign must be effectively free).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
SCHEMA_VERSION = 1

#: Per-suite benchmark file and derived ratio metrics
#: (name -> (numerator benchmark, denominator benchmark)).
SUITES: dict[str, dict] = {
    "substrate": {
        "file": "bench_simulator.py",
        "derived": {
            "fanout_speedup_150_nodes": (
                "test_medium_fanout_150_nodes[brute]",
                "test_medium_fanout_150_nodes[grid]",
            ),
        },
    },
    "crypto": {
        "file": "bench_crypto_costs.py",
        "derived": {
            "hello_verify_cached_speedup": (
                "test_hello_verify_ring5_10_receivers[off]",
                "test_hello_verify_ring5_10_receivers[on]",
            ),
            "trapdoor_open_cached_speedup": (
                "test_trapdoor_open_region10[off]",
                "test_trapdoor_open_region10[on]",
            ),
            "crt_precompute_speedup": (
                "test_rsa512_private_apply[recompute]",
                "test_rsa512_private_apply[precomputed]",
            ),
        },
    },
    "faults": {
        "file": "bench_faults.py",
        "derived": {
            "bernoulli_scenario_overhead": (
                "test_scenario_impairment[bernoulli]",
                "test_scenario_impairment[none]",
            ),
            "gilbert_scenario_overhead": (
                "test_scenario_impairment[gilbert]",
                "test_scenario_impairment[none]",
            ),
            "churn_scenario_overhead": (
                "test_scenario_impairment[churn]",
                "test_scenario_impairment[none]",
            ),
        },
    },
    "analysis": {
        "file": "bench_analysis.py",
        "derived": {
            "incremental_cache_speedup": (
                "test_full_src_analysis_cached[cold]",
                "test_full_src_analysis_cached[warm]",
            ),
        },
    },
    "hotpath": {
        "file": "bench_hotpath.py",
        "derived": {
            "neighbor_gather_speedup": (
                "test_neighbor_gather_150_nodes[brute]",
                "test_neighbor_gather_150_nodes[array]",
            ),
            "batch_mobility_speedup": (
                "test_batch_mobility_150_legs[scalar]",
                "test_batch_mobility_150_legs[batch]",
            ),
            "scenario_hotpath_speedup": (
                "test_end_to_end_scenario_150[baseline]",
                "test_end_to_end_scenario_150[fast]",
            ),
        },
    },
    "campaign": {
        "file": "bench_campaign.py",
        "derived": {
            "campaign_warm_cache_speedup": (
                "test_campaign_cache[cold]",
                "test_campaign_cache[warm]",
            ),
        },
    },
    "engine": {
        "file": "bench_engine.py",
        "derived": {
            "trace_drop_path_speedup": (
                "test_trace_emit_20k[keep]",
                "test_trace_emit_20k[drop]",
            ),
        },
    },
}

#: Backward-compatible aliases (pre-multi-suite callers/tests).
BENCH_FILE = BENCH_DIR / SUITES["substrate"]["file"]
DERIVED = SUITES["substrate"]["derived"]


def run_suite(pytest_args: list[str] | None = None, suite: str = "substrate") -> dict:
    """Run one benchmark suite; return pytest-benchmark's raw JSON."""
    bench_file = BENCH_DIR / SUITES[suite]["file"]
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = pathlib.Path(tmp) / "raw.json"
        cmd = [
            sys.executable, "-m", "pytest", str(bench_file),
            "-q", "-p", "no:cacheprovider",
            "--benchmark-only",
            f"--benchmark-json={raw_path}",
        ] + (pytest_args or [])
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark suite failed (pytest exit {proc.returncode})")
        return json.loads(raw_path.read_text(encoding="utf-8"))


def _metric_value(benchmarks: dict, name: str) -> float | None:
    """One side of a derived ratio: the named benchmark's mean."""
    entry = benchmarks.get(name)
    return entry["mean_s"] if entry else None


def distill(raw: dict, suite: str = "substrate") -> dict:
    """Reduce pytest-benchmark's document to the committed schema."""
    benchmarks: dict[str, dict] = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        entry = {
            "mean_s": round(stats["mean"], 9),
            "stddev_s": round(stats["stddev"], 9),
            "rounds": stats["rounds"],
        }
        info = bench.get("extra_info") or {}
        if info:
            entry["extra_info"] = {
                key: round(value, 9) if isinstance(value, float) else value
                for key, value in sorted(info.items())
            }
        benchmarks[bench["name"]] = entry
    derived: dict[str, float] = {}
    for metric, (numerator, denominator) in SUITES[suite]["derived"].items():
        num = _metric_value(benchmarks, numerator)
        den = _metric_value(benchmarks, denominator)
        if num is not None and den is not None and den > 0:
            derived[metric] = round(num / den, 3)
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "benchmarks": dict(sorted(benchmarks.items())),
        "derived": derived,
    }


def aggregate(bench_dir: pathlib.Path) -> dict:
    """Fold every committed ``BENCH_<suite>.json`` into one document.

    Benchmark names and derived metrics are prefixed ``<suite>:`` so
    the result is schema-compatible with a single-suite document — the
    same :func:`compare` gate tracks the whole perf history at once.
    """
    benchmarks: dict[str, dict] = {}
    derived: dict[str, float] = {}
    found = []
    # sorted(): glob yields entries in filesystem order (the DET-012 bug
    # class), which would leak machine-dependent ordering into the
    # committed perf-history document.  Discovery is by filename, not by
    # the SUITES registry, so a committed baseline survives aggregation
    # even when its suite definition has moved on.
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("schema_version") != SCHEMA_VERSION:
            raise SystemExit(
                f"{path.name}: schema_version "
                f"{document.get('schema_version')!r} != {SCHEMA_VERSION}"
            )
        suite = document.get("suite") or path.stem[len("BENCH_"):]
        if suite == "all":
            continue  # never fold a combined document into itself
        found.append(suite)
        for name, entry in document.get("benchmarks", {}).items():
            benchmarks[f"{suite}:{name}"] = entry
        for metric, value in document.get("derived", {}).items():
            derived[f"{suite}:{metric}"] = value
    if not found:
        raise SystemExit(f"no BENCH_*.json baselines under {bench_dir}")
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "all",
        "suites": found,
        "benchmarks": dict(sorted(benchmarks.items())),
        "derived": dict(sorted(derived.items())),
    }


def compare(current: dict, baseline: dict, max_regression: float) -> list[str]:
    """Regressions of ``current`` vs ``baseline`` (empty list = pass).

    A benchmark regresses when its mean slows by more than
    ``max_regression``x.  Benchmarks present on only one side are
    reported informationally but do not fail the comparison (suites
    grow; removals should be deliberate and reviewed).
    """
    failures: list[str] = []
    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})
    for name, base in sorted(base_benches.items()):
        cur = cur_benches.get(name)
        if cur is None:
            print(f"note: baseline benchmark missing from this run: {name}")
            continue
        if base["mean_s"] <= 0:
            continue
        ratio = cur["mean_s"] / base["mean_s"]
        status = "FAIL" if ratio > max_regression else "ok"
        print(
            f"{status:>4}  {name:<44} {base['mean_s'] * 1e3:9.3f} ms -> "
            f"{cur['mean_s'] * 1e3:9.3f} ms  ({ratio:.2f}x)"
        )
        if ratio > max_regression:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"(limit {max_regression:.2f}x)"
            )
    for name in sorted(set(cur_benches) - set(base_benches)):
        print(f"note: new benchmark not in baseline: {name}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite", choices=sorted(SUITES) + ["all"], default="substrate",
        help="which benchmark suite to run/distill (default: substrate); "
        "'all' runs nothing and folds the committed BENCH_*.json "
        "baselines into one combined document",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="where to write the distilled JSON (default: stdout)",
    )
    parser.add_argument(
        "--compare", type=pathlib.Path, default=None,
        help="baseline JSON to compare against (exit 1 on regression)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="fail when a benchmark's mean slows by more than this factor",
    )
    parser.add_argument(
        "--from-raw", type=pathlib.Path, default=None,
        help="distill an existing pytest-benchmark JSON instead of running",
    )
    args = parser.parse_args(argv)

    if args.suite == "all":
        if args.from_raw is not None:
            raise SystemExit("--from-raw does not apply to --suite all")
        document = aggregate(BENCH_DIR)
    else:
        raw = (
            json.loads(args.from_raw.read_text(encoding="utf-8"))
            if args.from_raw is not None
            else run_suite(suite=args.suite)
        )
        document = distill(raw, args.suite)
    text = json.dumps(document, indent=2, sort_keys=False) + "\n"
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")

    if args.compare is not None:
        baseline = json.loads(args.compare.read_text(encoding="utf-8"))
        if baseline.get("schema_version") != SCHEMA_VERSION:
            raise SystemExit(
                f"baseline schema_version {baseline.get('schema_version')!r} "
                f"!= expected {SCHEMA_VERSION}"
            )
        if baseline.get("suite", args.suite) != args.suite:
            raise SystemExit(
                f"baseline is for suite {baseline.get('suite')!r}, "
                f"not {args.suite!r}"
            )
        failures = compare(document, baseline, args.max_regression)
        if failures:
            for failure in failures:
                print(f"regression: {failure}", file=sys.stderr)
            return 1
        print("benchmark comparison passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
