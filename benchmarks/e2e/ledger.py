"""Per-layer self-time ledger for one traced scenario run.

The traced child process calls :func:`install` before it builds the
scenario.  That wraps each layer's public methods at class level, and
wraps every scheduled event callback in a root span whose layer comes
from the event's ``name=`` prefix.  Spans nest on a stack; a span's self
time is its duration minus the time of the spans it encloses.  Only
aggregates are kept in memory: self seconds and span count per site, and
span count per parent -> child site edge.

Wrapping costs time inside every span and around it.  :func:`calibrate`
measures that cost on an empty function in the same process, and
:func:`self_times` subtracts it as span count x per-span cost, scaled so
that the rows add up to the untraced run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Ledger", "Calibration", "LAYERS", "calibrate", "event_layer", "install", "self_times"]

clock = time.perf_counter

#: Event ``name=`` prefix -> layer of the root span around the callback.
EVENT_LAYERS = {
    "mac": "net.mac.dcf",
    "phy": "net.phy",
    "agfw": "routing",
    "gpsr": "routing",
    "router": "routing",
    "aant": "routing",
    "rwp": "net.mobility",
    "cbr": "traffic.cbr",
}

#: (layer, module, class, method) wrapped at class level.  ``routing`` is
#: the router agent of the workload's protocol: ``core.agfw`` or
#: ``routing.gpsr`` (the two never run together).
METHOD_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("net.medium", "repro.net.medium", "RadioMedium", "transmit"),
    ("geo.spatial_array", "repro.geo.spatial_array", "ArraySpatialIndex", "classify_fanout"),
    ("geo.vecops", "repro.geo.vecops", "LegArrays", "set_leg"),
    ("net.phy", "repro.net.phy", "PhyRadio", "on_tx_start"),
    ("net.phy", "repro.net.phy", "PhyRadio", "on_tx_end"),
    ("net.mac.dcf", "repro.net.mac.dcf", "DcfMac", "send"),
    ("net.mac.dcf", "repro.net.mac.dcf", "DcfMac", "on_frame"),
    ("net.mobility", "repro.net.mobility", "RandomWaypointMobility", "position_at"),
    ("routing", "repro.routing.gpsr", "GpsrRouter", "on_packet"),
    ("routing", "repro.core.agfw", "AgfwRouter", "on_packet"),
    ("routing", "repro.routing.base", "BaseRouter", "send_data"),
    ("crypto", "repro.core.aant", "AantAuthenticator", "sign_hello"),
    ("crypto", "repro.core.aant", "AantAuthenticator", "verify_hello"),
    ("crypto", "repro.core.aant", "AantAuthenticator", "accept_certificates"),
    ("crypto", "repro.core.trapdoor", "TrapdoorFactory", "seal"),
    ("crypto", "repro.core.trapdoor", "TrapdoorFactory", "try_open"),
    ("crypto", "repro.crypto.certificates", "CertificateAuthority", "enroll"),
    ("sim.trace", "repro.sim.trace", "Tracer", "emit"),
)

#: Batch kernels, wrapped where ``spatial_array`` looks them up.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = tuple(
    ("geo.vecops", "repro.geo.spatial_array", name)
    for name in ("batch_position_at", "batch_cells", "batch_cell_margins")
)

SCHEDULE_LAYER = "sim.engine.schedule"
SCHEDULE_SITE = SCHEDULE_LAYER + "/Simulator.schedule_at"
DISPATCH_LAYER = "sim.engine.dispatch"
UNATTRIBUTED = "unattributed"

#: Every ledger row, in report order.  Dispatch is what the run loop
#: spends outside all spans: queue pops, the loop itself, run() prologue.
LAYERS: Tuple[str, ...] = (
    DISPATCH_LAYER,
    SCHEDULE_LAYER,
    "net.mac.dcf",
    "net.phy",
    "net.medium",
    "geo.spatial_array",
    "geo.vecops",
    "net.mobility",
    "routing",
    "crypto",
    "traffic.cbr",
    "sim.trace",
    UNATTRIBUTED,
)


def event_layer(name: str) -> str:
    """The layer owning an event named ``name`` (``unattributed`` if none)."""
    return EVENT_LAYERS.get(name.partition(".")[0], UNATTRIBUTED)


def _layer(site: str) -> str:
    return site.partition("/")[0]


class Ledger:
    """Span aggregates for one process, per site and per parent site.

    A site is ``"<layer>/<what>"``: a wrapped method, a batch kernel, or
    an event name.  Layer rows are sums over their sites.
    """

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[child_seconds, child_span_counts]``.
        self._stack: List[list] = []
        #: site -> [self_seconds, spans]
        self._acc: Dict[str, list] = {}
        #: parent site (None = top level) -> {child site: spans}
        self._edges: Dict[Optional[str], Dict[str, int]] = {None: {}}
        #: Pseudo-frame that spans opened with an empty stack report to.
        self._top = [0.0, self._edges[None]]

    def wrap(self, site: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``site``."""
        acc = self._acc.get(site)
        if acc is None:
            acc = self._acc[site] = [0.0, 0]
            self._edges[site] = {}
        kids = self._edges[site]
        stack = self._stack
        top = self._top

        def span(*args, **kwargs):
            frame = [0.0, kids]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                acc[0] += elapsed - frame[0]
                acc[1] += 1
                parent = stack[-1] if stack else top
                parent[0] += elapsed
                counts = parent[1]
                counts[site] = counts.get(site, 0) + 1

        return span

    def reset(self) -> None:
        """Zero every aggregate (between the set-up and run phases)."""
        for acc in self._acc.values():
            acc[0] = 0.0
            acc[1] = 0
        for counts in self._edges.values():
            counts.clear()
        self._top[0] = 0.0

    def raw_self(self, site: str) -> float:
        """Uncorrected self seconds of ``site`` since the last reset."""
        return self._acc[site][0]

    def report(self, total_s: float, cal: "Calibration") -> Dict[str, Any]:
        """Raw self seconds and estimated tracing cost, per site and per layer.

        ``total_s`` is the traced duration of the phase.  A site's cost is
        ``inside_s`` per span it recorded plus ``outside_s`` per child span
        (and ``root_wrap_s`` per span of the scheduling site).  Dispatch is
        the traced time outside every span; it bears ``outside_s`` per
        top-level span.  Raw layer rows sum to ``total_s`` by construction,
        so a sum that misses it exposes lost or double-counted spans.
        """
        sites = {}
        for site, (raw, spans) in sorted(self._acc.items()):
            if spans:
                cost = spans * cal.inside_s + sum(self._edges[site].values()) * cal.outside_s
                if site == SCHEDULE_SITE:
                    cost += spans * cal.root_wrap_s
                sites[site] = {"raw_s": raw, "cost_s": cost, "spans": spans}
        layers = {layer: {"raw_s": 0.0, "cost_s": 0.0, "spans": 0} for layer in LAYERS}
        layers[DISPATCH_LAYER]["raw_s"] = total_s - self._top[0]
        layers[DISPATCH_LAYER]["cost_s"] = sum(self._edges[None].values()) * cal.outside_s
        for site, row in sites.items():
            layer = layers[_layer(site)]
            for key, value in row.items():
                layer[key] += value
        edges: Dict[str, int] = {}
        for parent, counts in self._edges.items():
            for child, count in counts.items():
                key = f"{'top' if parent is None else _layer(parent)}->{_layer(child)}"
                edges[key] = edges.get(key, 0) + count
        return {
            "traced_s": total_s,
            "layers": layers,
            "sites": sites,
            "edges": dict(sorted(edges.items())),
        }


def self_times(
    reports: List[Dict[str, Any]], untraced_s: float
) -> Tuple[Dict[str, float], float]:
    """Layer self seconds summed over traced ``reports``, and the cost scale.

    The empty-span calibration fixes how the tracing cost divides between
    layers; its total is scaled by ``k`` so that the rows add up to the
    untraced duration ``untraced_s`` per report.  ``k`` near 1 means the
    calibration alone explains the overhead.
    """
    raw = {layer: sum(r["layers"][layer]["raw_s"] for r in reports) for layer in LAYERS}
    cost = {layer: sum(r["layers"][layer]["cost_s"] for r in reports) for layer in LAYERS}
    overhead = sum(r["traced_s"] for r in reports) - untraced_s * len(reports)
    total_cost = sum(cost.values())
    k = overhead / total_cost if total_cost else 0.0
    return {layer: raw[layer] - k * cost[layer] for layer in LAYERS}, k


class Calibration(NamedTuple):
    """Per-span tracing cost, in seconds.

    ``inside_s`` lands in the span's own measured duration, ``outside_s``
    in its parent's self time, and ``root_wrap_s`` in the scheduling span
    that builds a root span around each event callback.
    """

    inside_s: float
    outside_s: float
    root_wrap_s: float


def _nop(_arg: object) -> None:
    return None


def _per_call(loop: Callable[[int], None], n: int, batches: int) -> float:
    samples = []
    for _ in range(batches):
        start = clock()
        loop(n)
        samples.append((clock() - start) / n)
    return statistics.median(samples)


def calibrate(n: int = 20000, batches: int = 7) -> Calibration:
    """Measure the tracing cost of an empty span in this process."""
    probe = Ledger()
    wrapped = probe.wrap("calibration/nop", _nop)
    rooted = _rooted_schedule_at(_schedule_nop, probe)

    def empty(count: int) -> None:
        for _ in range(count):
            pass

    def plain(count: int) -> None:
        for _ in range(count):
            _nop(None)

    def traced(count: int) -> None:
        for _ in range(count):
            wrapped(None)

    def schedule_plain(count: int) -> None:
        for _ in range(count):
            _schedule_nop(None, 0.0, _nop, name="mac.slot")

    def schedule_rooted(count: int) -> None:
        for _ in range(count):
            rooted(None, 0.0, _nop, name="mac.slot")

    empty_s = _per_call(empty, n, batches)
    plain_s = _per_call(plain, n, batches)
    probe.reset()
    traced_s = _per_call(traced, n, batches)
    inside = max(probe.raw_self("calibration/nop") / (n * batches) - (plain_s - empty_s), 0.0)
    outside = max(traced_s - plain_s - inside, 0.0)
    root_wrap = max(
        _per_call(schedule_rooted, n, batches) - _per_call(schedule_plain, n, batches), 0.0
    )
    return Calibration(inside, outside, root_wrap)


def _schedule_nop(_sim: object, _time: float, _callback: Callable, **_kwargs: object) -> None:
    return None


def _rooted_schedule_at(schedule_at: Callable, ledger: Ledger) -> Callable:
    """``schedule_at`` with the callback wrapped in a root span of its event."""
    wrap = ledger.wrap
    sites: Dict[str, str] = {}

    def rooted(self, time, callback, **kwargs):
        name = kwargs.get("name", "")
        site = sites.get(name)
        if site is None:
            site = sites[name] = f"{event_layer(name)}/{name or '(unnamed)'}"
        return schedule_at(self, time, wrap(site, callback), **kwargs)

    return rooted


def install(ledger: Ledger) -> None:
    """Wrap every layer boundary of the ``repro`` package into ``ledger``.

    Patches classes for the life of the process; the traced child is a
    fresh process that builds exactly one scenario afterwards.
    """
    for layer, module, cls_name, method in METHOD_SPANS:
        cls = getattr(importlib.import_module(module), cls_name)
        site = f"{layer}/{cls_name}.{method}"
        setattr(cls, method, ledger.wrap(site, getattr(cls, method)))
    for layer, module, func in FUNCTION_SPANS:
        mod = importlib.import_module(module)
        setattr(mod, func, ledger.wrap(f"{layer}/{func}", getattr(mod, func)))

    from repro.sim.engine import Simulator

    rooted = _rooted_schedule_at(Simulator.schedule_at, ledger)
    Simulator.schedule_at = ledger.wrap(SCHEDULE_SITE, rooted)
