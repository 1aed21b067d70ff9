#!/usr/bin/env python
"""Run the crypto benchmark suite and emit a slim, versioned JSON baseline.

``pytest-benchmark``'s native ``--benchmark-json`` output is rich but
noisy (hostnames, timestamps, per-round samples) — unsuitable for
committing and diffing.  This harness runs ``bench_crypto_costs.py``,
distills it to a stable machine-readable document, and can compare a
fresh run against the committed baseline:

    # regenerate the committed baseline
    python benchmarks/bench_to_json.py --output benchmarks/BENCH_crypto.json

    # CI smoke: fresh run, fail if any benchmark slowed >2x vs baseline
    python benchmarks/bench_to_json.py --output /tmp/bench_now.json \\
        --compare benchmarks/BENCH_crypto.json --max-regression 2.0

Output schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "suite": "crypto",
      "benchmarks": {"<name>": {"mean_s": ..., "stddev_s": ..., "rounds": ...,
                                "extra_info": {...}}},   # only when recorded
      "derived": {"<metric>": <numerator / denominator>}
    }

A derived metric's numerator/denominator is a benchmark's mean: the
cached-vs-uncached speedups for the hello-verify and trapdoor-open
workloads and the CRT precompute micro-benchmark.

Absolute means are hardware-dependent; the *ratios* (the derived
speedups and the regression comparison) are what the numbers are for.
Every other layer is judged end to end by ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SUITE_FILE = pathlib.Path(__file__).resolve().parent / "bench_crypto_costs.py"
SCHEMA_VERSION = 1
SUITE = "crypto"

#: Derived ratio metrics: name -> (numerator benchmark, denominator benchmark).
RATIOS = {
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
}


def run_suite() -> dict:
    """Run the crypto suite; return pytest-benchmark's raw JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = pathlib.Path(tmp) / "raw.json"
        cmd = [
            sys.executable, "-m", "pytest", str(SUITE_FILE),
            "-q", "-p", "no:cacheprovider",
            "--benchmark-only",
            f"--benchmark-json={raw_path}",
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark suite failed (pytest exit {proc.returncode})")
        return json.loads(raw_path.read_text(encoding="utf-8"))


def _metric_value(benchmarks: dict, name: str) -> float | None:
    """One side of a derived ratio: the named benchmark's mean."""
    entry = benchmarks.get(name)
    return entry["mean_s"] if entry else None


def distill(raw: dict) -> dict:
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
    for metric, (numerator, denominator) in RATIOS.items():
        num = _metric_value(benchmarks, numerator)
        den = _metric_value(benchmarks, denominator)
        if num is not None and den is not None and den > 0:
            derived[metric] = round(num / den, 3)
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": SUITE,
        "benchmarks": dict(sorted(benchmarks.items())),
        "derived": derived,
    }


def compare(current: dict, baseline: dict, max_regression: float) -> list[str]:
    """Regressions of ``current`` vs ``baseline`` (empty list = pass).

    A benchmark regresses when its mean slows by more than
    ``max_regression``x.  Benchmarks present on only one side are
    reported informationally but do not fail the comparison (the suite
    grows; removals should be deliberate and reviewed).
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

    raw = (
        json.loads(args.from_raw.read_text(encoding="utf-8"))
        if args.from_raw is not None
        else run_suite()
    )
    document = distill(raw)
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
        if baseline.get("suite", SUITE) != SUITE:
            raise SystemExit(
                f"baseline is for suite {baseline.get('suite')!r}, not {SUITE!r}"
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
