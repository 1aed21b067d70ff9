"""End-to-end benchmark: four canonical scenarios, one child process per run.

Measure one workload for a fixed window (the form in BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --workload fig1-gpsr-150 --seed 1 --seconds 20 --trace 0

Measure all four and keep the result document, then compare two of them::

    python3 benchmarks/e2e/run.py --seed 1 --seconds 20 --output a.json
    python3 benchmarks/e2e/run.py compare a.json b.json

Each repetition is a fresh ``python`` child (``child.py``), started one at
a time: a closed loop with never more than one simulation process.  All
repetitions of a run use the same seed, so they simulate the same thing
and must produce the same outcome digest.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``).  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.ledger import LAYERS, self_times  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

CHILD = Path(__file__).resolve().with_name("child.py")

#: Untraced repetitions a ``--trace 0`` run makes even when ``--seconds``
#: is shorter, so that it has quartiles.
MIN_RUNS = 3
#: A child that takes longer has hung; the run is stopped and failed.
CHILD_TIMEOUT_S = 90.0

END_TO_END_UNITS = {"us_per_event": "us", "setup_s": "s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    """A repetition crashed, hung, or produced a wrong outcome."""


# ------------------------------------------------------------------ children
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Outcomes never depend on str hashing (the determinism contract);
    # pinning it removes dict-layout differences from the timing noise.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(name: str, seed: int, quick: bool, trace: bool) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; its JSON record."""
    argv = [sys.executable, str(CHILD), name, str(seed), str(int(quick)), str(int(trace))]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{name} seed {seed}: no result after {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RunFailed(f"{name} seed {seed}: exit {proc.returncode}: {tail[0]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RunFailed(f"{name} seed {seed}: unreadable result: {lines[-1][:80]}") from exc


def check(record: Dict[str, Any], reference: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why ``record`` is a wrong outcome, or None when it is right."""
    sent, delivered = record["sent"], record["delivered"]
    if not 0 < delivered <= sent:
        return f"delivered {delivered} of {sent} sent"
    if record["originated"] != sent:
        return f"routers originated {record['originated']} packets but {sent} were sent"
    if reference is not None and record["digest"] != reference["digest"]:
        return f"outcome digest {record['digest'][:12]} != first run {reference['digest'][:12]}"
    return None


# --------------------------------------------------------------- statistics
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: List[float], unit: str) -> Dict[str, Any]:
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    samples = {
        "us_per_event": [r["run_s"] / r["events"] * 1e6 for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {name: summary(samples[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(runs: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The per-layer metrics of a traced run, as ``{name: (value, unit)}``.

    Layer times are shares (%) of the run, from the traced repetitions'
    self times scaled to the untraced median (see ``ledger.self_times``);
    counts are deterministic and taken from the first traced repetition.
    """
    untraced_s = statistics.median(r["run_s"] for r in runs)
    traced_s = statistics.median(t["run_s"] for t in traced)
    run_self, _ = self_times([t["ledger"] for t in traced], untraced_s)
    run_total = untraced_s * len(traced)
    setup_self, _ = self_times(
        [t["setup_ledger"] for t in traced], statistics.median(r["setup_s"] for r in runs)
    )
    first = traced[0]
    sites = first["ledger"]["sites"]
    spans = {layer: row["spans"] for layer, row in first["ledger"]["layers"].items()}
    c = first["counters"]

    def share(*layers: str) -> float:
        return 100.0 * sum(run_self[layer] for layer in layers) / run_total

    def site_spans(site: str) -> int:
        return sites.get(site, {"spans": 0})["spans"]

    events = c["events"]
    scheduled = (
        spans["sim.engine.schedule"]
        + first["setup_ledger"]["layers"]["sim.engine.schedule"]["spans"]
    )
    receptions = site_spans("net.phy/PhyRadio.on_tx_start")
    received = c["phy_delivered"] + c["phy_collided"]
    lookups = c["cache_hits"] + c["cache_misses"]
    return {
        "sim.engine.share": (share("sim.engine.dispatch", "sim.engine.schedule"), "%"),
        "sim.engine.dispatch_share": (share("sim.engine.dispatch"), "%"),
        "sim.engine.schedule_share": (share("sim.engine.schedule"), "%"),
        "sim.engine.events": (events, "count"),
        "sim.engine.scheduled": (scheduled, "count"),
        "sim.engine.executed_frac": (events / scheduled, "ratio"),
        "sim.engine.events_per_s": (events / untraced_s, "1/s"),
        "net.mac.dcf.share": (share("net.mac.dcf"), "%"),
        "net.mac.dcf.calls": (spans["net.mac.dcf"], "count"),
        "net.mac.dcf.retries": (c["mac_retries"], "count"),
        "net.mac.dcf.drops": (c["mac_drops"], "count"),
        "net.mac.dcf.delivered_up_frac": (c["mac_delivered_up"] / c["phy_delivered"], "ratio"),
        "net.phy.share": (share("net.phy"), "%"),
        "net.phy.receptions": (receptions, "count"),
        "net.phy.collided_frac": (c["phy_collided"] / received, "ratio"),
        "net.medium.share": (share("net.medium"), "%"),
        "net.medium.transmits": (c["transmits"], "count"),
        "net.medium.receivers_per_tx": (receptions / c["transmits"], "rx/tx"),
        "geo.spatial_array.share": (share("geo.spatial_array"), "%"),
        "geo.spatial_array.fanouts": (
            site_spans("geo.spatial_array/ArraySpatialIndex.classify_fanout"), "count"
        ),
        "geo.spatial_array.rebins": (c["rebins"], "count"),
        "geo.vecops.share": (share("geo.vecops"), "%"),
        "geo.vecops.calls": (spans["geo.vecops"], "count"),
        "net.mobility.share": (share("net.mobility"), "%"),
        "net.mobility.calls": (spans["net.mobility"], "count"),
        "routing.share": (share("routing"), "%"),
        "routing.calls": (spans["routing"], "count"),
        "routing.forwarded": (c["forwarded"], "count"),
        "routing.drops": (c["route_drops"], "count"),
        "crypto.share": (share("crypto"), "%"),
        "crypto.setup_share": (100.0 * setup_self["crypto"] / sum(setup_self.values()), "%"),
        "crypto.calls": (spans["crypto"], "count"),
        "crypto.cache_hit_frac": (c["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "traffic.cbr.share": (share("traffic.cbr"), "%"),
        "traffic.cbr.ticks": (site_spans("traffic.cbr/cbr.tick"), "count"),
        "sim.trace.share": (share("sim.trace"), "%"),
        "sim.trace.emits": (site_spans("sim.trace/Tracer.emit"), "count"),
        "unattributed.share": (share("unattributed"), "%"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.run_s": (traced_s, "s"),
    }


# ---------------------------------------------------------------- measuring
def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """Repeat ``name`` for ``seconds``; a result record.

    Without ``trace`` a run makes at least MIN_RUNS repetitions.  With
    ``trace`` every untraced repetition is followed by a traced one, at
    least once; the traced outcome must match the untraced one digest for
    digest.  The first failure ends the run.
    """
    runs: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    failures: List[str] = []
    attempted = 0
    min_runs = 1 if trace else MIN_RUNS
    started = time.perf_counter()
    while not failures and (len(runs) < min_runs or time.perf_counter() - started < seconds):
        for tracing in (False, True) if trace else (False,):
            attempted += 1
            try:
                record = run_child(name, seed, quick, tracing)
                problem = check(record, runs[0] if runs else None)
            except RunFailed as exc:
                problem = str(exc)
            if problem is not None:
                failures.append(f"{'traced ' if tracing else ''}run {attempted}: {problem}")
                break
            (traced if tracing else runs).append(record)
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "correct": not failures,
        "elapsed_s": time.perf_counter() - started,
    }
    if runs:
        result.update(
            digest=runs[0]["digest"],
            sent=runs[0]["sent"],
            delivered=runs[0]["delivered"],
            delivery_fraction=runs[0]["delivery_fraction"],
            mean_latency_s=runs[0]["mean_latency_s"],
            metrics=end_to_end(runs),
            runs=runs,
        )
    if runs and traced:
        result["per_layer"] = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in per_layer(runs, traced).items()
        }
        result["traced"] = traced
    return result


def result_line(result: Dict[str, Any], trace: bool) -> str:
    """The JSON line that ends a workload's output."""
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def describe(result: Dict[str, Any]) -> List[str]:
    """Human-readable lines printed above the result line."""
    lines = [
        f"# {result['workload']} seed {result['seed']}: {result['attempted']} runs, "
        f"{result['failed']} failed, {result['elapsed_s']:.1f} s",
    ]
    lines += [f"#   failure: {failure}" for failure in result["failures"]]
    if "digest" not in result:
        return lines
    lines.append(
        f"#   outcome {str(result['digest'])[:16]}  delivered {result['delivered']}/"
        f"{result['sent']}  delivery_fraction {result['delivery_fraction']:.4f}  "
        f"mean_latency_ms {result['mean_latency_s'] * 1e3:.3f}"
    )
    for name, m in result["metrics"].items():
        lines.append(
            f"#   {name} = {m['value']:.6g} {m['unit']}  "
            f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
        )
    if "traced" in result:
        lines += describe_ledger(result["traced"], result["runs"])
    return lines


def describe_ledger(traced: List[Dict[str, Any]], runs: List[Dict[str, Any]]) -> List[str]:
    untraced_s = statistics.median(r["run_s"] for r in runs)
    rows, k = self_times([t["ledger"] for t in traced], untraced_s)
    total = sum(rows.values())
    lines = [f"#   ledger over {len(traced)} traced runs          self_s   share"]
    for layer in LAYERS:
        lines.append(f"#     {layer:<28} {rows[layer]:9.4f}  {100 * rows[layer] / total:5.1f}%")
    traced_total = sum(t["ledger"]["traced_s"] for t in traced)
    lines.append(
        f"#     traced {traced_total:.3f} s; rows sum to {total:.3f} s = {len(traced)} x untraced "
        f"median {untraced_s:.3f} s; calibrated span cost scaled by {k:.2f}"
    )
    return lines


def calibration_loop_s() -> float:
    """Median time of a fixed pure-Python loop: this machine's speed."""
    def loop() -> int:
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return total

    samples = []
    for _ in range(5):
        start = time.perf_counter()
        loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ------------------------------------------------------------------ compare
def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    """better / same / worse / unresolved for one metric, A -> B.

    Unresolved when either side has fewer than MIN_RUNS repetitions or a
    quartile spread above the bound; worse when B's median is worse by
    more than the bound; better when it is better by more than A's own
    spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    spread_a = (a["q3"] - a["q1"]) / a["value"]
    spread_b = (b["q3"] - b["q1"]) / b["value"]
    if min(a["n"], b["n"]) < MIN_RUNS or max(spread_a, spread_b) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > spread_a:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    """Print A-vs-B verdicts; 1 on a regression or more failures, else 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    for label, doc in zip("AB", docs):
        h = doc["header"]
        print(f"{label}: {h['source']}  nproc {h['nproc']}  calibration_loop_s "
              f"{h['calibration_loop_s']:.4f}  python {h['python']}")
    regressed = False
    a_all, b_all = docs[0]["workloads"], docs[1]["workloads"]
    print(f"{'workload':<22}{'metric':<14}"
          f"{'A median [q1, q3]':>32}{'B median [q1, q3]':>32}  verdict")
    for name in sorted(set(a_all) | set(b_all)):
        if name not in a_all or name not in b_all:
            print(f"{name:<22}missing from {'A' if name not in a_all else 'B'}")
            regressed = True
            continue
        a, b = a_all[name], b_all[name]
        for metric in spec["end_to_end"]:
            ma, mb = a["metrics"][metric["name"]], b["metrics"][metric["name"]]
            v = verdict(ma, mb, metric["better"], metric["bound"])
            regressed |= v == "worse"
            print(f"{name:<22}{metric['name']:<14}{_cell(ma):>32}{_cell(mb):>32}  {v}")
        frac_a = a["failed"] / a["attempted"]
        frac_b = b["failed"] / b["attempted"]
        if frac_b > frac_a:
            print(f"{name:<22}failed_frac   {frac_a:>32.3f}{frac_b:>32.3f}  worse")
            regressed = True
    return 1 if regressed else 0


def _cell(m: Dict[str, float]) -> str:
    return f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"


# --------------------------------------------------------------------- main
def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement window per workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced runs and print the per-layer ledger")
    parser.add_argument("--quick", action="store_true",
                        help="scale every horizon down (self-tests)")
    parser.add_argument("--output", help="write the full result document here")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace), args.quick)
        results[name] = result
        print("\n".join(describe(result)), flush=True)
        if "metrics" not in result or (args.trace and "per_layer" not in result):
            print(f"run.py: {name}: no successful run to report", file=sys.stderr)
            return 1
        print(result_line(result, bool(args.trace)), flush=True)
    if args.output:
        header = {
            "source": args.output,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "quick": args.quick,
            "nproc": os.cpu_count(),
            "calibration_loop_s": calibration_loop_s(),
            "python": sys.version.split()[0],
        }
        Path(args.output).write_text(json.dumps({"header": header, "workloads": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
